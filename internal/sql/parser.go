package sql

import (
	"fmt"
	"strconv"
	"strings"

	"zidian/internal/relation"
)

// Parse parses one SELECT statement.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: trailing input at %s", p.peek())
	}
	return q, nil
}

// MustParse is Parse that panics on error; for static workload queries.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []token
	pos  int
	// params counts the `?` placeholders consumed so far; each placeholder
	// is numbered left to right across the whole statement.
	params int
}

// param consumes a `?` token and allocates the next placeholder slot.
func (p *parser) param() *Param {
	p.advance()
	pr := &Param{Index: p.params}
	p.params++
	return pr
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

// keyword reports whether the next token is the given keyword (case
// insensitive) and consumes it if so.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.advance()
		return true
	}
	return false
}

// peekKeyword reports whether the next token is the keyword, not consuming.
func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("sql: expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.peek()
	if t.kind != kind {
		return token{}, fmt.Errorf("sql: expected %s, found %s", what, t)
	}
	return p.advance(), nil
}

// IsReserved reports whether word is one of the dialect's reserved words
// (case-insensitive), the words that terminate clauses. Reserved words can
// never be identifiers, so they are the exact set a cache-key normalizer may
// case-fold without merging statements that parse differently: identifier
// case is significant (the parser preserves it and relation/attribute
// lookups are case-sensitive), keyword case is not.
func IsReserved(word string) bool {
	// Reserved words are ASCII, two to eight letters: fold into a stack
	// buffer; switching on the converted byte slice does not allocate.
	var buf [8]byte
	if len(word) < 2 || len(word) > len(buf) {
		return false
	}
	for i := 0; i < len(word); i++ {
		buf[i] = word[i] | 0x20
	}
	switch string(buf[:len(word)]) {
	case "select", "from", "where", "group", "order", "by", "limit", "and",
		"as", "distinct", "between", "in", "asc", "desc":
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent || IsReserved(t.text) {
		return "", fmt.Errorf("sql: expected identifier, found %s", t)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{Limit: -1}
	if p.keyword("DISTINCT") {
		q.Distinct = true
	}
	if p.peek().kind == tokStar {
		p.advance()
		q.Star = true
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			q.Items = append(q.Items, item)
			if p.peek().kind != tokComma {
				break
			}
			p.advance()
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Name: name, Alias: name}
		if p.keyword("AS") {
			if ref.Alias, err = p.ident(); err != nil {
				return nil, err
			}
		} else if t := p.peek(); t.kind == tokIdent && !IsReserved(t.text) {
			ref.Alias = t.text
			p.advance()
		}
		q.From = append(q.From, ref)
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}
	if p.keyword("WHERE") {
		for {
			preds, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, preds...)
			if !p.keyword("AND") {
				break
			}
		}
	}
	if p.peekKeyword("GROUP") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseCol()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, c)
			if p.peek().kind != tokComma {
				break
			}
			p.advance()
		}
	}
	if p.peekKeyword("ORDER") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseCol()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: c}
			if p.keyword("DESC") {
				item.Desc = true
			} else {
				p.keyword("ASC")
			}
			q.OrderBy = append(q.OrderBy, item)
			if p.peek().kind != tokComma {
				break
			}
			p.advance()
		}
	}
	if p.keyword("LIMIT") {
		if p.peek().kind == tokParam {
			q.LimitParam = p.param()
		} else {
			t, err := p.expect(tokNumber, "limit count")
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(t.text)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("sql: bad LIMIT %q", t.text)
			}
			q.Limit = n
		}
	}
	q.NumParams = p.params
	return q, nil
}

var aggFuncs = map[string]AggFunc{
	"sum": AggSum, "count": AggCount, "min": AggMin, "max": AggMax, "avg": AggAvg,
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.peek()
	if t.kind == tokIdent {
		if agg, ok := aggFuncs[strings.ToLower(t.text)]; ok &&
			p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokLParen {
			p.advance() // agg name
			p.advance() // (
			item := SelectItem{Agg: agg}
			if p.peek().kind == tokStar {
				if agg != AggCount {
					return SelectItem{}, fmt.Errorf("sql: %s(*) is not supported", agg)
				}
				p.advance()
				item.Star = true
			} else {
				c, err := p.parseCol()
				if err != nil {
					return SelectItem{}, err
				}
				item.Col = c
			}
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return SelectItem{}, err
			}
			if p.keyword("AS") {
				alias, err := p.ident()
				if err != nil {
					return SelectItem{}, err
				}
				item.Alias = alias
			}
			return item, nil
		}
	}
	c, err := p.parseCol()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Col: c}
	if p.keyword("AS") {
		if item.Alias, err = p.ident(); err != nil {
			return SelectItem{}, err
		}
	}
	return item, nil
}

func (p *parser) parseCol() (Col, error) {
	first, err := p.ident()
	if err != nil {
		return Col{}, err
	}
	if p.peek().kind == tokDot {
		p.advance()
		second, err := p.ident()
		if err != nil {
			return Col{}, err
		}
		return Col{Table: first, Name: second}, nil
	}
	return Col{Name: first}, nil
}

// parseLitOrParam parses a literal value or a `?` placeholder; exactly one
// of the two results is meaningful (the Param pointer is nil for literals).
func (p *parser) parseLitOrParam() (relation.Value, *Param, error) {
	if p.peek().kind == tokParam {
		return relation.Value{}, p.param(), nil
	}
	v, err := p.parseLit()
	return v, nil, err
}

// parseLit parses a literal value.
func (p *parser) parseLit() (relation.Value, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		return numberValue(t.text)
	case tokString:
		p.advance()
		// A copy: a value kept in a row or a plan must not pin the text.
		return relation.String(strings.Clone(unquote(t.text))), nil
	default:
		return relation.Value{}, fmt.Errorf("sql: expected literal, found %s", t)
	}
}

// numberValue converts the text of a number token (optional sign, digits
// and dots, as the lexer cuts it) to its value: a dot makes it a float,
// anything else must fit an int64.
func numberValue(text string) (relation.Value, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return relation.Value{}, fmt.Errorf("sql: bad number %q", text)
		}
		return relation.Float(f), nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return relation.Value{}, fmt.Errorf("sql: bad number %q", text)
	}
	return relation.Int(i), nil
}

// boundPred builds one comparison conjunct whose RHS is a literal or a `?`
// placeholder.
func boundPred(left Col, op CmpOp, lit *relation.Value, param *Param) Pred {
	if param != nil {
		return Pred{Left: left, Op: op, Param: param}
	}
	return Pred{Left: left, Op: op, Lit: lit}
}

// parsePred parses one predicate; BETWEEN desugars to two conjuncts. Value
// positions (comparison RHS, BETWEEN bounds, IN elements) accept `?`
// placeholders.
func (p *parser) parsePred() ([]Pred, error) {
	left, err := p.parseCol()
	if err != nil {
		return nil, err
	}
	if p.keyword("BETWEEN") {
		lo, loParam, err := p.parseLitOrParam()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, hiParam, err := p.parseLitOrParam()
		if err != nil {
			return nil, err
		}
		return []Pred{
			boundPred(left, OpGe, &lo, loParam),
			boundPred(left, OpLe, &hi, hiParam),
		}, nil
	}
	if p.keyword("IN") {
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		pred := Pred{Left: left, Op: OpEq}
		for {
			v, param, err := p.parseLitOrParam()
			if err != nil {
				return nil, err
			}
			if param != nil {
				pred.InParams = append(pred.InParams, *param)
			} else {
				pred.In = append(pred.In, v)
			}
			if p.peek().kind != tokComma {
				break
			}
			p.advance()
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return []Pred{pred}, nil
	}
	opTok, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return nil, err
	}
	op := CmpOp(opTok.text)
	t := p.peek()
	if t.kind == tokNumber || t.kind == tokString || t.kind == tokParam {
		lit, param, err := p.parseLitOrParam()
		if err != nil {
			return nil, err
		}
		return []Pred{boundPred(left, op, &lit, param)}, nil
	}
	right, err := p.parseCol()
	if err != nil {
		return nil, err
	}
	return []Pred{{Left: left, Op: op, Right: &right}}, nil
}
