package server

import (
	"reflect"
	"testing"

	"zidian/internal/sql"
)

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

// FuzzNormalizeSQL checks the key the server caches a plan under, lifted or
// not: stmtKey's key is its own key, and when the lift declined, the key
// parses exactly when the text does, to the same AST — a plan compiled from
// the text is the plan of every text sharing its key. sql.FuzzNormalize
// holds the key's form against an oracle; FuzzLift holds the lifted case
// against the parser.
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
		key, lifted := stmtKey(src, nil)
		if again, relifted := stmtKey(key, nil); again != key || relifted != nil {
			t.Fatalf("stmtKey(%q) = %q, whose own key is %q %v", src, key, again, relifted)
		}
		if lifted != nil {
			return
		}
		want, werr := sql.ParseStatement(src)
		got, gerr := sql.ParseStatement(key)
		if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q parses to %+v (%v) but its key %q to %+v (%v)", src, want, werr, key, got, gerr)
		}
	})
}
