package server

import (
	"strings"
	"testing"

	"zidian/internal/sql"
)

// normalizeOracle is NormalizeSQL as it was before the no-op fast path: the
// builder run from the first byte, kept here as the reference.
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
		case isSQLWord(c):
			start := i
			for i < len(src) && isSQLWord(src[i]) {
				i++
			}
			word := src[start:i]
			flushSpace()
			if sql.IsReserved(word) {
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

// TestNormalizeSQLNoOp: text already in normal form — what a client that
// reuses its statements sends — is its own key: returned as it came, with no
// allocation.
func TestNormalizeSQLNoOp(t *testing.T) {
	for _, src := range []string{
		"select V.make, V.model from VEHICLE V where V.vehicle_id = ?",
		"select COUNT(*), AVG(T.mileage) from TEST T where T.vehicle_id = ?",
		"select O.obs_date from OBSERVATION O where O.road_id = ? and O.speed > 70 order by O.obs_date desc limit 20",
		"select a from T where s = 'It''s  SELECT ;' and t = \"x'  FROM\"",
		"insert into VEHICLE values (?, ?, ?)",
		"",
	} {
		var got string
		allocs := testing.AllocsPerRun(100, func() { got = NormalizeSQL(src) })
		if got != src || allocs != 0 {
			t.Errorf("NormalizeSQL(%q) = %q with %v allocs, want the text itself and 0", src, got, allocs)
		}
	}
}

// FuzzNormalizeSQL: the fast path and the resumed builder give what the
// builder gave run from the first byte, and normal form is a fixed point.
func FuzzNormalizeSQL(f *testing.F) {
	for _, s := range []string{
		"select a from T where a = 5",
		"SELECT  a FROM T\n WHERE a=-5 AND b = 2.50 ",
		"select a from T where s = 'it''s' and t = '''' ;; ",
		`select "a'1" from T where "b""2" = 3 and c = "x'y`,
		" \t\nselect\ra\tfrom T where a\n=\n5 ; ;",
		"select a from T where k = 'open",
		"select a FROM T", "select a from T ", "select  a", "Select", "select;", ";", " ", "a ;b; ",
		"select a from Tselect where SELECTa = 1 and _FROM = from",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, want := NormalizeSQL(src), normalizeOracle(src)
		if got != want {
			t.Fatalf("NormalizeSQL(%q) = %q, want %q", src, got, want)
		}
		if again := NormalizeSQL(got); again != normalizeOracle(got) {
			t.Fatalf("NormalizeSQL(%q) = %q, the oracle says %q", got, again, normalizeOracle(got))
		}
	})
}
