// Package sql implements a lexer and parser for the SQL fragment covered by
// the paper's theory: select-project-join (SPC) queries with conjunctive
// WHERE clauses, extended with group-by aggregates (RAaggr), DISTINCT,
// ORDER BY and LIMIT.
package sql

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokStar
	tokOp    // = <> < <= > >=
	tokParam // ? placeholder
	tokError // text that does not lex, from pos to the end
)

type token struct {
	kind tokenKind
	// text is the token's source span, except that `!=` reads as `<>`. A
	// string token's span keeps its quotes and escapes: unquote reads it.
	text string
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("%q", unquote(t.text))
	}
	return fmt.Sprintf("%q", t.text)
}

// unquote returns the value of a string token: its text inside the quotes,
// where a doubled quote inside a '-quoted literal is one quote character.
func unquote(text string) string {
	body := text[1 : len(text)-1]
	if text[0] == '\'' {
		return strings.ReplaceAll(body, "''", "'")
	}
	return body
}

// err describes a tokError token: where and why the text stops lexing.
func (t token) err() error {
	if c := t.text[0]; c == '\'' || c == '"' {
		return fmt.Errorf("sql: unterminated string at %d", t.pos)
	}
	return fmt.Errorf("sql: unexpected %q at %d", t.text[0], t.pos)
}

// lex tokenizes the whole input up front. Keywords are returned as tokIdent
// and matched case-insensitively by the parser.
func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)/3+2)
	for end := 0; ; {
		var t token
		t.kind, t.pos, end = scan(src, end)
		t.text = src[t.pos:end]
		switch {
		case t.kind == tokError:
			return nil, t.err()
		case t.kind == tokOp && t.text == "!=":
			t.text = "<>"
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// scan finds the token at or after src[i] and returns its kind and span,
// src[start:end]; it allocates nothing. A run of semicolons and white space
// that ends src is the end of input. Text that does not lex is one tokError
// span from where lexing stops to the end of src.
func scan(src string, i int) (kind tokenKind, start, end int) {
	for i < len(src) && isSpace(src[i]) {
		i++
	}
	start = i
	if i == len(src) || src[i] == ';' && onlySemicolons(src[i:]) {
		return tokEOF, len(src), len(src)
	}
	c := src[i]
	i++
	switch {
	case isIdentStart(c):
		for i < len(src) && isIdentPart(src[i]) {
			i++
		}
		return tokIdent, start, i
	case isDigit(c) || (c == '-' && i < len(src) && isDigit(src[i])):
		for i < len(src) && (isDigit(src[i]) || src[i] == '.') {
			i++
		}
		return tokNumber, start, i
	case c == ',':
		return tokComma, start, i
	case c == '.':
		return tokDot, start, i
	case c == '?':
		return tokParam, start, i
	case c == '=':
		return tokOp, start, i
	case c == '(':
		return tokLParen, start, i
	case c == ')':
		return tokRParen, start, i
	case c == '*':
		return tokStar, start, i
	case c == '<' || c == '>':
		if i < len(src) && (src[i] == '=' || c == '<' && src[i] == '>') {
			i++
		}
		return tokOp, start, i
	case c == '!' && i < len(src) && src[i] == '=':
		return tokOp, start, i + 1
	case c == '\'' || c == '"':
		for ; i < len(src); i++ {
			if src[i] != c {
				continue
			}
			if c == '\'' && i+1 < len(src) && src[i+1] == c {
				i++ // '' escape
				continue
			}
			return tokString, start, i + 1
		}
	}
	return tokError, start, len(src)
}

// onlySemicolons reports whether s holds nothing but semicolons and white
// space.
func onlySemicolons(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != ';' && !isSpace(s[i]) {
			return false
		}
	}
	return true
}

// Byte classes: white space is unicode.IsSpace of the byte read as a rune,
// so the lexer reads 0x85 and 0xA0 as white space too.
const (
	classSpace = 1 << iota
	classLetter
	classDigit
)

var classes = func() (t [256]uint8) {
	for _, c := range []byte(" \t\n\v\f\r\x85\xa0") {
		t[c] = classSpace
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = classLetter, classLetter
	}
	t['_'] = classLetter
	for c := '0'; c <= '9'; c++ {
		t[c] = classDigit
	}
	return t
}()

func isSpace(c byte) bool      { return classes[c] == classSpace }
func isDigit(c byte) bool      { return classes[c] == classDigit }
func isIdentStart(c byte) bool { return classes[c] == classLetter }
func isIdentPart(c byte) bool  { return classes[c]&(classLetter|classDigit) != 0 }
