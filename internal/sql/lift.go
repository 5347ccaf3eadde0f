package sql

import (
	"strings"

	"zidian/internal/relation"
)

// LiftLiterals rewrites an ad hoc SELECT into the `?` template a client that
// parameterized its equality operands would have sent. It walks the lexer's
// own tokens, so an operand is exactly what the parser would read as one:
// every number or string literal directly after `=`, or as an element of an
// `IN (...)` list, is replaced by `?` in the text, and its value — converted
// as parseLit converts it — is returned in placeholder order. Everything
// between the lifted tokens is copied from src untouched.
//
// What the planner reads stays in the text: literals under <, <=, >, >=, <>
// and BETWEEN, and LIMIT counts. ok is false when src does not lex, is not a
// SELECT, already holds a `?` (the client parameterized it), or has nothing
// to lift.
func LiftLiterals(src string) (text string, vals []relation.Value, ok bool) {
	const (
		none   = iota
		eq     // just past `=`
		in     // just past the keyword IN
		inOpen // inside IN (, an element is due
		inElem // inside IN (, just past a lifted element
	)
	l := &lexer{src: src}
	t, err := l.next()
	if err != nil || t.kind != tokIdent || !strings.EqualFold(t.text, "select") {
		return "", nil, false
	}
	var b strings.Builder
	copied := 0 // src[:copied] is in b, lifted tokens replaced
	state := none
	for {
		if t, err = l.next(); err != nil || t.kind == tokParam {
			return "", nil, false
		}
		if t.kind == tokEOF {
			break
		}
		switch {
		case (t.kind == tokNumber || t.kind == tokString) && (state == eq || state == inOpen):
			v := relation.String(t.text)
			if t.kind == tokNumber {
				if v, err = numberValue(t.text); err != nil {
					return "", nil, false
				}
			}
			vals = append(vals, v)
			if b.Len() == 0 {
				b.Grow(len(src))
			}
			b.WriteString(src[copied:t.pos])
			b.WriteByte('?')
			copied = l.pos
			if state == inOpen {
				state = inElem
			} else {
				state = none
			}
		case t.kind == tokOp && t.text == "=":
			state = eq
		case t.kind == tokIdent && strings.EqualFold(t.text, "in"):
			state = in
		case t.kind == tokLParen && state == in, t.kind == tokComma && state == inElem:
			state = inOpen
		default:
			state = none
		}
	}
	if len(vals) == 0 {
		return "", nil, false
	}
	b.WriteString(src[copied:])
	return b.String(), vals, true
}
