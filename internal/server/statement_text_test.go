package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"zidian/internal/golden"
	"zidian/internal/relation"
	"zidian/internal/server"
	"zidian/internal/server/client"
	"zidian/internal/server/loadgen"
	"zidian/internal/workload"
)

// statementInput is a statement text and the values a client bound to it.
type statementInput struct {
	src    string
	params []relation.Value
}

// statementTextInputs are the texts whose plan-cache keys and statistics
// templates testdata/statement_text.txt holds: every mot, airca and tpch
// suite query, every loadgen template both with `?` (bound to the values
// it would have inlined) and with its literals inlined, the nine serving
// templates, and the hand cases of the normalizer, lift and anonymizer
// tests.
func statementTextInputs(t *testing.T) []statementInput {
	var in []statementInput
	add := func(src string, params ...relation.Value) { in = append(in, statementInput{src, params}) }
	for _, name := range []string{"mot", "airca", "tpch"} {
		w, err := workload.Generate(name, workload.Spec{Scale: 0.1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			add(q.SQL)
		}
	}
	addTemplate := func(format, paramSQL string, strs []string, args []any) {
		var params []relation.Value
		if len(strs) > 0 {
			args = []any{strs[0]}
			params = []relation.Value{relation.String(strs[0])}
		} else {
			for _, a := range args {
				params = append(params, relation.Int(int64(a.(int))))
			}
		}
		add(paramSQL, params...)
		add(fmt.Sprintf(format, args...))
	}
	template := func(tm loadgen.Template) {
		n := max(tm.Verbs, 1)
		args := make([]any, n)
		for i := range args {
			args[i] = tm.Base + 7 + i*tm.Span
		}
		addTemplate(tm.Format, tm.ParamSQL(), tm.Strings, args)
		if tm.Delete != "" {
			addTemplate(tm.Delete, strings.ReplaceAll(tm.Delete, "%d", "?"), nil, args[:1])
		}
	}
	for _, name := range []string{"mot", "airca", "tpch"} {
		for _, mix := range []string{"point", "nonkey", "range"} {
			tms, setup, err := loadgen.TemplatesMix(name, mix)
			if err != nil {
				continue
			}
			for _, tm := range tms {
				template(tm)
			}
			for _, s := range setup {
				add(s)
			}
		}
	}
	reads, writes, setup, err := loadgen.ReadWriteMix("mot")
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range append(reads, writes...) {
		template(tm)
	}
	for _, s := range setup {
		add(s)
	}
	for _, src := range []string{
		// The serving benchmark's nine read templates.
		"select T.test_date, T.result, T.mileage from TEST T where T.vehicle_id = ?",
		"select V.make, V.model, T.test_date, T.result from VEHICLE V, TEST T where V.vehicle_id = ? and T.vehicle_id = V.vehicle_id",
		"select O.obs_date, O.speed, O.road_type from OBSERVATION O where O.vehicle_id = ? and O.speed > 70",
		"select COUNT(*), AVG(T.mileage), MAX(T.defect_count) from TEST T where T.vehicle_id = ?",
		"select T.test_date, T.result, O.obs_date, O.speed from VEHICLE V, TEST T, OBSERVATION O where V.vehicle_id = ? and T.vehicle_id = V.vehicle_id and O.vehicle_id = V.vehicle_id",
		"select O.obs_id, O.speed, O.weather from OBSERVATION O where O.road_id = ?",
		"select V.vehicle_id, V.color, V.fuel from VEHICLE V where V.year between ? and ?",
		"select O.obs_id, O.direction, O.lane from OBSERVATION O where O.speed between ? and ? limit 20",
		"select V.make, COUNT(*) from VEHICLE V group by V.make",
		// Normalizer hand cases.
		"SELECT  a FROM t", "select a\n\tfrom   t ;", "select a from t;;",
		"SELECT a FROM t WHERE b = 'MiXeD Case'", "select a from t where b = 'two  spaces'", "  select 1  ",
		"SELECT a FROM t WHERE x=1", "select  a\nfrom t where x=1", "select a from t where x=1", "select a from t where x=2",
		"SELECT a FROM t WHERE b = 'It''s  A  Test'",
		`select a from t where b = "It's" and c = 'D'`, `select a from t where b = "it's" and c = 'd'`,
		`select a from t where b = "x'y" and c = 'A  B'`, `select a from t where b = "x'y" and c = 'a  b'`,
		"SELECT a FROM t WHERE b = 'it''s'", "select  a from t where b = 'it''s'",
		`SELECT a FROM t WHERE b = "it's"`, `select a  from t where b = "it's"`,
		"SELECT * FROM Emp", "select * from emp", "SELECT V.make FROM VEHICLE V WHERE V.id = 1",
		"SELECT V.make FROM VEHICLE V", "select V.make from VEHICLE V",
		`SELECT a FROM t WHERE b = "MiXeD  Case"`, `select a from t where b = "AB"`, `select a from t where b = "ab"`,
		"select V.make, V.model from VEHICLE V where V.vehicle_id = ?",
		"select COUNT(*), AVG(T.mileage) from TEST T where T.vehicle_id = ?",
		"select O.obs_date from OBSERVATION O where O.road_id = ? and O.speed > 70 order by O.obs_date desc limit 20",
		"select a from T where s = 'It''s  SELECT ;' and t = \"x'  FROM\"",
		"insert into VEHICLE values (?, ?, ?)", "",
		// Lift hand cases.
		"select V.make from VEHICLE V where V.vehicle_id = 7",
		"SELECT  a FROM T\n WHERE a=-5 AND b = 2.50 ",
		"select a from T where s = 'it''s' and t = ''",
		"select a from T where a In (1, 'x', -2.5) and b in(3)",
		"select a from T1 where T1.k2 = 9 and a > 70 and b <= 3 and c <> 4 and d != 5 limit 5",
		"select a from T where k = 'x' and y between 1 and 2 and z >= 'm'",
		`select a from T where a = 1 and b = "x'1"`,
		"select a from T where a =\v1 and b > 'why?'",
		"select a from T where y between 1 and 2 limit 3", "select a from T where a = b",
		"insert into T values (1, 'x')", "delete from T where a = 1", "explain select a from T where a = 1",
		"select a from T where a = 1 and b = ?", "select a from T where a = 'open",
		"select a from T where a = 1.2.3", "select a from T where a = 99999999999999999999",
		"select a from T where a = 1 # b", "select a from T where a = 1;",
		`select a from T where a = 1 and b = "open`, "select a from T where a = 5x and b = 1",
		// Anonymizer hand cases.
		"select T.a from T where T.id = 42",
		"select T.a from T where T.name = 'O''Brien' and T.id = 7",
		"select T.a from T where T.x = 1.5 and T.y = -3",
		"select T.a from T where T.id = 9 LIMIT 10",
		"select T.a from T where T.id = ?",
		`select T1.a from "Weird Rel" T1 where T1.v = 5`,
		"insert into ACCOUNTS values (1001, 'W2', 55)",
		"select T.a from T where T.id = 8675309 and T.pw = 'hunter2' and T.x = 4.9921",
	} {
		add(src)
	}
	add("select T.a from T where T.id = ? and T.name = ?", relation.Int(4), relation.String("x"))
	return in
}

// renderValues prints bound or lifted values with their kinds.
func renderValues(vs []relation.Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		switch v.Kind {
		case relation.KindInt:
			parts[i] = "int:" + v.String()
		case relation.KindFloat:
			parts[i] = "float:" + v.String()
		default:
			parts[i] = fmt.Sprintf("string:%q", v.Str)
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TestStatementTextHeld: for every input, the plan-cache key and lifted
// values stmtKey derives and the statistics template and kinds AnonymizeSQL
// derives from them are what testdata/statement_text.txt holds, byte for
// byte (internal/golden records it when absent).
func TestStatementTextHeld(t *testing.T) {
	var b strings.Builder
	for _, in := range statementTextInputs(t) {
		key, lifted := server.StmtKey(in.src, in.params)
		binds := in.params
		if lifted != nil {
			binds = lifted
		}
		tmpl, kinds := server.AnonymizeSQL(key, binds)
		fmt.Fprintf(&b, "%q %s\n  key %q lifted %s\n  template %q kinds %v\n",
			in.src, renderValues(in.params), key, renderValues(lifted), tmpl, kinds)
	}
	golden.Check(t, "testdata/statement_text.txt", b.String())
}

// vehicleRow is an INSERT of one VEHICLE row under a fresh id, with make
// spelled as given.
func vehicleRow(id int, make string) string {
	return fmt.Sprintf("insert into VEHICLE values (%d, %s, 'ZM', 'PETROL', 'BLACK', 2026, 1600, 'R-1', 1200, 4, 120, 'BAND-A', '2026-01-15')", id, make)
}

// TestTrailingSemicolonCold: a trailing run of semicolons ends the
// statement on a server that has compiled nothing yet — over the wire,
// through Server.Query, and through Exec for a write. The cache key always
// stripped the run; the parser now does too, so the first statement no
// longer fails where a cached one succeeded.
func TestTrailingSemicolonCold(t *testing.T) {
	srv, tcp, _ := startServer(t, server.Config{})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, rows, _, err := c.Query("select V.make from VEHICLE V where V.vehicle_id = 3;"); err != nil || len(rows) != 1 {
		t.Fatalf("over the wire: %v rows, %v", rows, err)
	}
	ctx := context.Background()
	res, _, _, err := srv.Query(ctx, "select V.model, V.fuel from VEHICLE V where V.vehicle_id = 4 ; ;\n")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("Server.Query: %v", err)
	}
	r, err := srv.Exec(ctx, vehicleRow(900001, "'ZMAKE'")+" ;")
	if err != nil || r.Affected != 1 {
		t.Fatalf("Exec of an INSERT ending in ;: %+v %v", r, err)
	}
}

// TestDoubleQuotedLiteralsNeverReachSinks: a "-quoted string is a literal to
// the parser, so it is one to the statistics template too. Statements
// carrying one — under >, in INSERT values, in a DELETE predicate, and
// unterminated — leave no trace of it in /stats/statements, SHOW
// STATEMENTS, the capture stream or the slow log (a 1ns threshold logs every
// statement).
func TestDoubleQuotedLiteralsNeverReachSinks(t *testing.T) {
	var slow, capture syncBuffer
	srv, tcp, httpA := startServer(t, server.Config{
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &slow,
		CaptureLog:         &capture,
	})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, stmt := range []struct {
		src string
		ok  bool
	}{
		{`select V.model from VEHICLE V where V.make > "SECRETMAKE"`, true},
		{vehicleRow(900002, `"SECRETINS"`), true},
		{`delete from VEHICLE where vehicle_id = 900002 and make = "SECRETDEL"`, true},
		{`select V.model from VEHICLE V where V.make = "SECRETOPEN`, false},
	} {
		if _, err := c.Exec(stmt.src); (err == nil) != stmt.ok {
			t.Fatalf("%s: %v", stmt.src, err)
		}
	}
	show, err := srv.Exec(context.Background(), "show statements")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + httpA + "/stats/statements")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for sink, text := range map[string]string{
		"/stats/statements": string(stats),
		"SHOW STATEMENTS":   fmt.Sprint(show.Result.Rows),
		"capture":           capture.String(),
		"slow log":          slow.String(),
	} {
		if !strings.Contains(text, "VEHICLE") {
			t.Fatalf("%s recorded none of the statements:\n%s", sink, text)
		}
		if strings.Contains(text, "SECRET") {
			t.Errorf("%s holds a literal:\n%s", sink, text)
		}
	}
}

// TestExplainAnalyzeAnyWhiteSpace: EXPLAIN and ANALYZE separated by any
// white space the parser accepts — \v and \f included — answer the annotated
// tree, and the statement is recorded under the inner SELECT's template.
func TestExplainAnalyzeAnyWhiteSpace(t *testing.T) {
	_, tcp, httpA := startServer(t, server.Config{})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, src := range []string{
		"explain\vanalyze select V.make from VEHICLE V where V.vehicle_id = ?",
		"EXPLAIN\fANALYZE\vselect V.make from VEHICLE V where V.vehicle_id = ?",
	} {
		resp, err := c.Exec(src, 3)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if text := fmt.Sprint(resp.Rows); !strings.Contains(text, "rows=") || !strings.Contains(text, "totals:") {
			t.Fatalf("%q: no annotated tree: %s", src, text)
		}
	}
	const want = "select V.make from VEHICLE V where V.vehicle_id = ?"
	for _, e := range fetchStatements(t, "http://"+httpA+"/stats/statements").Statements {
		if e.Verb == "explain_analyze" {
			if e.Template != want || e.Calls != 2 {
				t.Fatalf("explain_analyze recorded as %q x%d, want %q x2", e.Template, e.Calls, want)
			}
			return
		}
	}
	t.Fatal("no explain_analyze statement recorded")
}
