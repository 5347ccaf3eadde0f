package sql

import (
	"reflect"
	"strings"
	"testing"

	"zidian/internal/relation"
)

// normalizeOracle is the plan-cache key the server's own byte scanner built
// before the key came from the lexer, kept as the reference: white space
// runs collapse to one space, words in the reserved set fold to lower case,
// quoted regions copy verbatim, and trailing semicolons go. Its white space
// is ' ', \t, \n and \r only; the lexer's also holds \v, \f, 0x85 and 0xA0.
func normalizeOracle(src string) string {
	var b strings.Builder
	space := false
	flushSpace := func() {
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
	}
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '\'' || c == '"':
			quote := c
			flushSpace()
			b.WriteByte(c)
			i++
			for i < len(src) {
				b.WriteByte(src[i])
				if src[i] == quote {
					if quote == '\'' && i+1 < len(src) && src[i+1] == quote {
						b.WriteByte(src[i+1])
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			space = true
			i++
		case isIdentStart(c):
			start := i
			for i < len(src) && isIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			flushSpace()
			if IsReserved(word) {
				b.WriteString(strings.ToLower(word))
			} else {
				b.WriteString(word)
			}
		default:
			flushSpace()
			b.WriteByte(c)
			i++
		}
	}
	s := b.String()
	for strings.HasSuffix(s, ";") {
		s = strings.TrimSuffix(s, ";")
		s = strings.TrimRight(s, " ")
	}
	return s
}

// FuzzNormalize: src parses exactly when its key does, and to the same AST;
// the key is its own key; and on text that lexes, with none of the white
// space only the lexer knows, it is what the oracle builds.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"select a from T where a = 5",
		"SELECT  a FROM T\n WHERE a=-5 AND b = 2.50 ",
		"select a from T where s = 'it''s' and t = '''' ;; ",
		`select "a'1" from T where "b""2" = 3 and c = "x'y`,
		" \t\nselect\ra\tfrom T where a\n=\n5 ; ;",
		"select a from T where k = 'open",
		"select a FROM T", "select a from T ", "select  a", "Select", "select;", ";", " ", "a ;b; ",
		"select a from Tselect where SELECTa = 1 and _FROM = from",
		"select a from T where a = 1;", "SELECT a FROM T WHERE a=5AND b = 5x",
		"explain\vanalyze\fselect a from T", "insert into T values (1, 'x') ;",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		key := Normalize(src)
		want, werr := ParseStatement(src)
		got, gerr := ParseStatement(key)
		if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q parses to %+v (%v) but its key %q to %+v (%v)", src, want, werr, key, got, gerr)
		}
		if again := Normalize(key); again != key {
			t.Fatalf("Normalize(%q) = %q, whose key is %q", src, key, again)
		}
		if _, err := lex(src); err == nil && !strings.ContainsAny(src, "\v\f\x85\xa0") {
			if want := normalizeOracle(src); key != want {
				t.Fatalf("Normalize(%q) = %q, the oracle says %q", src, key, want)
			}
		}
	})
}

// FuzzAnonymize: the template holds no literal — it re-lexes with no string
// or number token but a count directly after `limit` — and one kind per
// `?`; and a template is its own template, built without allocating.
func FuzzAnonymize(f *testing.F) {
	for _, s := range []string{
		"select T.a from T where T.name = 'O''Brien' and T.id = 7 and T.x = -1.5",
		`select V.model from VEHICLE V where V.make > "SECRET" limit 10`,
		`insert into T values (1, "x", 'y', ?, 2.5)`,
		`delete from T where T.pw = "open`,
		"select a from T where a = ? and b in (?, 3) limit ?",
		"select a from T where a = 1 # 'b'", "select a from T limit 5 6", "limit 1", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tmpl, kinds := Anonymize(src, nil)
		toks, err := lex(tmpl)
		if err != nil {
			t.Fatalf("Anonymize(%q) = %q, which does not lex: %v", src, tmpl, err)
		}
		params := 0
		for i, tok := range toks {
			afterLimit := i > 0 && toks[i-1].kind == tokIdent && strings.EqualFold(toks[i-1].text, "limit")
			if tok.kind == tokString || tok.kind == tokNumber && !afterLimit {
				t.Fatalf("Anonymize(%q) = %q, which holds the literal %s", src, tmpl, tok)
			}
			if tok.kind == tokParam {
				params++
			}
		}
		if params != len(kinds) {
			t.Fatalf("Anonymize(%q) = %q with %d kinds %v", src, tmpl, len(kinds), kinds)
		}
		var again string
		allocs := testing.AllocsPerRun(10, func() { again, _ = Anonymize(tmpl, nil) })
		if again != tmpl || allocs != 0 && len(kinds) <= len(anyKinds) {
			t.Fatalf("template %q anonymizes to %q with %v allocs", tmpl, again, allocs)
		}
	})
}

// pointTemplates are the serving benchmark's point_zipf templates.
var pointTemplates = []string{
	"select T.test_date, T.result, T.mileage from TEST T where T.vehicle_id = ?",
	"select V.make, V.model, T.test_date, T.result from VEHICLE V, TEST T where V.vehicle_id = ? and T.vehicle_id = V.vehicle_id",
	"select O.obs_date, O.speed, O.road_type from OBSERVATION O where O.vehicle_id = ? and O.speed > 70",
	"select COUNT(*), AVG(T.mileage), MAX(T.defect_count) from TEST T where T.vehicle_id = ?",
	"select T.test_date, T.result, O.obs_date, O.speed from VEHICLE V, TEST T, OBSERVATION O where V.vehicle_id = ? and T.vehicle_id = V.vehicle_id and O.vehicle_id = V.vehicle_id",
}

// BenchmarkStatementText is the per-layer cost of statement text on the
// serving path, one op covering all five point_zipf templates: the key and
// statistics template of each `?` text as a client with one bound value
// sends it, the lift of each text with its literal inlined (adhoc_literal),
// and the parse of those literal texts.
func BenchmarkStatementText(b *testing.B) {
	params := []relation.Value{relation.Int(123)}
	literal := make([]string, len(pointTemplates))
	for i, tmpl := range pointTemplates {
		literal[i] = strings.Replace(tmpl, "?", "123", 1)
	}
	b.Run("normalize+anonymize", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, src := range pointTemplates {
				Anonymize(Normalize(src), params)
			}
		}
	})
	b.Run("lift", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, src := range literal {
				LiftLiterals(src)
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, src := range literal {
				if _, err := ParseStatement(src); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
