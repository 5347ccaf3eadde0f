package sql

import (
	"strings"

	"zidian/internal/relation"
)

// The serving layer's rewrites of statement text are walks over the lexer's
// tokens (scan), so every one of them reads a token exactly as the parser
// does. Each copies spans of its input and returns the input itself when it
// would change nothing.

// keyBuf writes a plan-cache key token by token: one space where white space
// separated two tokens, none where none did, reserved words lower-cased and
// every other token as given. While the key is a prefix of src it holds no
// bytes; the builder starts at the first token that differs.
type keyBuf struct {
	src   string
	b     strings.Builder
	built bool // b holds the key; otherwise the key is src[:end]
	end   int  // src offset just past the last token written
	some  bool // a token was written
}

// put writes the token of the given kind at src[start:end] as it stands but
// for a reserved word's case.
func (k *keyBuf) put(kind tokenKind, start, end int) {
	text := k.src[start:end]
	fold := kind == tokIdent && hasUpper(text) && IsReserved(text)
	if !k.built && !fold && (start == k.end || k.some && start == k.end+1 && k.src[k.end] == ' ') {
		k.end, k.some = end, true
		return
	}
	k.write(start, end, text, fold)
}

// write writes text for the token at src[start:end], lower-cased with fold.
func (k *keyBuf) write(start, end int, text string, fold bool) {
	if !k.built {
		k.built = true
		k.b.Grow(len(k.src))
		k.b.WriteString(k.src[:k.end])
	}
	if k.some && start > k.end {
		k.b.WriteByte(' ')
	}
	if fold {
		for i := 0; i < len(text); i++ {
			k.b.WriteByte(text[i] | 0x20) // reserved words are ASCII letters
		}
	} else {
		k.b.WriteString(text)
	}
	k.end, k.some = end, true
}

func (k *keyBuf) key() string {
	if k.built {
		return k.b.String()
	}
	return k.src[:k.end]
}

func hasUpper(s string) bool {
	for i := 0; i < len(s); i++ {
		if 'A' <= s[i] && s[i] <= 'Z' {
			return true
		}
	}
	return false
}

// Normalize returns src's plan-cache key: its tokens with one space where
// src had white space between two of them and none where it had none,
// reserved words lower-cased, and every other token copied verbatim — so two
// spellings of one statement share a key while everything the plan depends
// on (literals, identifier case) stays significant. A trailing run of
// semicolons is dropped, as the parser drops it. Text already in normal form
// is returned as is, without allocating. Text that does not lex is its own
// key: it never compiles, so nothing is cached under it.
func Normalize(src string) string {
	k := keyBuf{src: src}
	for end := 0; ; {
		kind, start, e := scan(src, end)
		switch end = e; kind {
		case tokError:
			return src
		case tokEOF:
			return k.key()
		}
		k.put(kind, start, end)
	}
}

// LiftLiterals rewrites an ad hoc SELECT into the plan-cache key of the `?`
// template a client that parameterized its equality operands would have
// sent: every number or string literal directly after `=`, or as an element
// of an `IN (...)` list, becomes `?` in the key, and its value — converted as
// parseLit converts it — is returned in placeholder order. The key is in
// Normalize's form, so the template and the `?` text share one cache entry.
//
// What the planner reads stays in the key: literals under <, <=, >, >=, <>
// and BETWEEN, and LIMIT counts. ok is false when src does not lex, is not a
// SELECT, already holds a `?` (the client parameterized it), or has nothing
// to lift.
func LiftLiterals(src string) (key string, vals []relation.Value, ok bool) {
	const (
		none   = iota
		eq     // just past `=`
		in     // just past the keyword IN
		inOpen // inside IN (, an element is due
		inElem // inside IN (, just past a lifted element
	)
	k := keyBuf{src: src}
	state := none
	for end := 0; ; {
		kind, start, e := scan(src, end)
		end = e
		text := src[start:end]
		if kind == tokError || kind == tokParam || !k.some && !(kind == tokIdent && strings.EqualFold(text, "select")) {
			return "", nil, false
		}
		if kind == tokEOF {
			break
		}
		switch {
		case (kind == tokNumber || kind == tokString) && (state == eq || state == inOpen):
			v, err := numberValue(text)
			if kind == tokString {
				v, err = relation.String(unquote(text)), nil
			}
			if err != nil {
				return "", nil, false
			}
			vals = append(vals, v)
			k.write(start, end, "?", false)
			if state == inOpen {
				state = inElem
			} else {
				state = none
			}
			continue
		case kind == tokOp && text == "=":
			state = eq
		case kind == tokIdent && strings.EqualFold(text, "in"):
			state = in
		case kind == tokLParen && state == in, kind == tokComma && state == inElem:
			state = inOpen
		default:
			state = none
		}
		k.put(kind, start, end)
	}
	if len(vals) == 0 {
		return "", nil, false
	}
	return k.key(), vals, true
}

// Anonymize rewrites a statement's key into its statistics and capture
// template, so two statements differing only in constants share one template
// and no literal value reaches a statement sink. It returns the kind of each
// `?` of the template in order: "int", "float", "string" or "any".
//
//   - A string literal, in either quote style, becomes `?` of kind "string".
//   - A number becomes `?` of kind "int", or "float" when it holds a dot —
//     except a number directly after `limit`, which stays: a LIMIT count is
//     plan shape, not data.
//   - A `?` stays and takes its kind from params in order, or "any".
//   - From where the text stops lexing, the rest becomes one `?` of kind
//     "any": what the lexer cannot read may hold anything.
//
// Everything else is copied verbatim. Text with no literal is returned as
// is, and so are the kinds of a template walked without params: neither
// allocates.
func Anonymize(key string, params []relation.Value) (template string, kinds []string) {
	var b strings.Builder
	copied := 0   // key[:copied] is in b, once b holds anything
	n, np := 0, 0 // kinds and `?`s so far; kinds is nil while it is anyKinds[:n]
	afterLimit := false
	for end := 0; ; {
		kind, start, e := scan(key, end)
		end = e
		k := ""
		switch kind {
		case tokEOF:
			if kinds == nil && n > 0 {
				kinds = anyKinds[:n:n]
			}
			if b.Cap() == 0 {
				return key, kinds
			}
			b.WriteString(key[copied:])
			return b.String(), kinds
		case tokParam:
			if k = "any"; np < len(params) {
				k = kindName(params[np])
			}
			np++
		case tokString:
			k = "string"
		case tokNumber:
			if !afterLimit {
				k = "int"
				if strings.IndexByte(key[start:end], '.') >= 0 {
					k = "float"
				}
			}
		case tokError:
			k = "any"
		}
		afterLimit = kind == tokIdent && end-start == 5 && strings.EqualFold(key[start:end], "limit")
		if k == "" {
			continue
		}
		if kind != tokParam {
			if b.Cap() == 0 {
				b.Grow(len(key))
			}
			b.WriteString(key[copied:start])
			b.WriteByte('?')
			copied = end
		}
		if kinds == nil && (k != "any" || n == len(anyKinds)) {
			kinds = append(make([]string, 0, n+4), anyKinds[:n]...)
		}
		if kinds != nil {
			kinds = append(kinds, k)
		}
		n++
	}
}

// anyKinds backs the kinds of a template whose placeholders are all "any".
var anyKinds = func() (k [64]string) {
	for i := range k {
		k[i] = "any"
	}
	return k
}()

// kindName names a bound value's kind for the statement sinks.
func kindName(v relation.Value) string {
	switch v.Kind {
	case relation.KindInt:
		return "int"
	case relation.KindFloat:
		return "float"
	case relation.KindString:
		return "string"
	default:
		return "any"
	}
}

// AnalyzedQuery returns the SELECT an EXPLAIN ANALYZE statement wraps: src
// from its third token on, or src itself when it has none.
func AnalyzedQuery(src string) string {
	_, _, end := scan(src, 0)
	_, _, end = scan(src, end)
	if kind, start, _ := scan(src, end); kind != tokEOF && kind != tokError {
		return src[start:]
	}
	return src
}
