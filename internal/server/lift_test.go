package server

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"zidian/internal/relation"
	"zidian/internal/sql"
)

func TestLiftSQL(t *testing.T) {
	i, f, s := relation.Int, relation.Float, relation.String
	cases := []struct {
		src  string
		want string // "" = declined
		vals []relation.Value
	}{
		{"select V.make from VEHICLE V where V.vehicle_id = 7",
			"select V.make from VEHICLE V where V.vehicle_id = ?", []relation.Value{i(7)}},
		{"SELECT  a FROM T\n WHERE a=-5 AND b = 2.50 ",
			"select a from T where a=? and b = ?", []relation.Value{i(-5), f(2.5)}},
		{"select a from T where s = 'it''s' and t = ''",
			"select a from T where s = ? and t = ?", []relation.Value{s("it's"), s("")}},
		{"select a from T where a In (1, 'x', -2.5) and b in(3)",
			"select a from T where a in (?, ?, ?) and b in(?)", []relation.Value{i(1), s("x"), f(-2.5), i(3)}},
		// Range operands and LIMIT counts stay in the text.
		{"select a from T1 where T1.k2 = 9 and a > 70 and b <= 3 and c <> 4 and d != 5 limit 5",
			"select a from T1 where T1.k2 = ? and a > 70 and b <= 3 and c <> 4 and d != 5 limit 5", []relation.Value{i(9)}},
		{"select a from T where k = 'x' and y between 1 and 2 and z >= 'm'",
			"select a from T where k = ? and y between 1 and 2 and z >= 'm'", []relation.Value{s("x")}},
		// Operands are whatever the lexer cuts: a "-quoted string is a literal,
		// \v is white space.
		{`select a from T where a = 1 and b = "x'1"`,
			`select a from T where a = ? and b = ?`, []relation.Value{i(1), s("x'1")}},
		{"select a from T where a =\v1 and b > 'why?'",
			"select a from T where a = ? and b > 'why?'", []relation.Value{i(1)}},
		// A trailing run of semicolons ends the statement, for the parser too.
		{"select a from T where a = 1;",
			"select a from T where a = ?", []relation.Value{i(1)}},
		// Declined: nothing to lift, not a SELECT, already parameterized, or
		// text the lexer rejects.
		{src: "select a from T where y between 1 and 2 limit 3"},
		{src: "select a from T where a = b"},
		{src: "insert into T values (1, 'x')"},
		{src: "delete from T where a = 1"},
		{src: "explain select a from T where a = 1"},
		{src: "select a from T where a = 1 and b = ?"},
		{src: "select a from T where a = 'open"},
		{src: "select a from T where a = 1.2.3"},
		{src: "select a from T where a = 99999999999999999999"},
		{src: "select a from T where a = 1 # b"},
		{src: "select a from T where a = 1; b"},
		{src: `select a from T where a = 1 and b = "open`},
		{src: ""},
	}
	for _, tc := range cases {
		got, vals, ok := sql.LiftLiterals(tc.src)
		if tc.want == "" {
			if ok {
				t.Errorf("sql.LiftLiterals(%q) = %q %v, want a decline", tc.src, got, vals)
			}
			continue
		}
		if !ok || got != tc.want || !reflect.DeepEqual(vals, tc.vals) {
			t.Errorf("sql.LiftLiterals(%q)\n got %q %v ok=%v\nwant %q %v", tc.src, got, vals, ok, tc.want, tc.vals)
		}
		// The template is the key a `?` client's text normalizes to.
		if n := NormalizeSQL(got); n != got {
			t.Errorf("template %q is not normalized (%q)", got, n)
		}
	}
	// Digits glued to letters are a number then an identifier to the lexer:
	// the number lifts, and the parser rejects template and original alike.
	if got, _, ok := sql.LiftLiterals("select a from T where a = 5x and b = 1"); !ok || got != "select a from T where a = ?x and b = ?" {
		t.Errorf("glued number: %q ok=%v", got, ok)
	}
}

// bindLifted substitutes vals for the template's placeholders in its AST and
// reports false if any placeholder sits where the lift must never put one:
// under a non-equality operator or in LIMIT.
func bindLifted(q *sql.Query, vals []relation.Value) bool {
	if q.LimitParam != nil || q.NumParams != len(vals) {
		return false
	}
	for i := range q.Where {
		p := &q.Where[i]
		if p.Param != nil {
			if p.Op != sql.OpEq {
				return false
			}
			p.Lit, p.Param = &vals[p.Param.Index], nil
		}
		for _, ip := range p.InParams {
			p.In = append(p.In, vals[ip.Index])
		}
		p.InParams = nil
	}
	q.NumParams = 0
	return true
}

// FuzzLift checks the lift against the parser. Whenever sql.LiftLiterals
// accepts a text, the template must parse exactly when the original does, to
// the same AST once the lifted values are bound back, with placeholders only
// in `=` / IN positions; whenever it declines, the server keys the statement
// by its plain normalized text.
func FuzzLift(f *testing.F) {
	for _, s := range []string{
		"select a from T where a = 5",
		"select a from T where s = 'it''s' and t = '''' and u = ''",
		`select "a'1" from T where "b""2" = 3 and c = "x'y"`,
		"select T1.c2 from T1, S_2 where T1.k1 = S_2.k and T1.c2 = 42 and S_2.x=7",
		"select a from T where a = -5 and b = 2.5 and c = -0.25 and d = 5. and e = 1.2.3",
		"select a from T where a = 1 order by a desc limit 5",
		"select a from T where a = 1 and b between 1 and 2 and c >= 3 and d<4 and e <> 5 and f != 6",
		"select a from T where a in (1, 2, 3) and b IN ('x') and c in (-1, 2.5, 'y''z')",
		"select a from T where a = 1 and b = ? and c in (?, 2)",
		"select COUNT(*), MAX(a) from T where k = 'x' group by g",
		"SELECT a FROM T WHERE a=5AND b = 5x and c = 9 9",
		"select a from T where a == 5 and b =< 6 and c = (7)",
		"select a from T where a = 5 limit 5 ;;",
		"insert into T values (1, 'x')",
		"delete from T where a = 1",
		"select a from T where a = 'open",
		"select a from T where a in (1, x, 3) and b in (1 2)",
		" \t\nselect\ra\tfrom T where a\n=\n5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tmpl, vals, ok := sql.LiftLiterals(src)
		if !ok {
			if key, lifted := stmtKey(src, nil); key != NormalizeSQL(src) || lifted != nil {
				t.Fatalf("declined %q but stmtKey = %q %v", src, key, lifted)
			}
			return
		}
		orig, oerr := sql.ParseStatement(src)
		got, gerr := sql.ParseStatement(tmpl)
		if (oerr == nil) != (gerr == nil) {
			t.Fatalf("%q parses (%v) but its template %q does not agree (%v)", src, oerr, tmpl, gerr)
		}
		if oerr != nil {
			return
		}
		q, isQuery := got.(*sql.Query)
		if !isQuery || !bindLifted(q, vals) {
			t.Fatalf("%q: template %q holds a placeholder outside = / IN (values %v)", src, tmpl, vals)
		}
		if !reflect.DeepEqual(orig, got) {
			t.Fatalf("%q: template %q with %v bound parses to\n%+v\nwant\n%+v", src, tmpl, vals, got, orig)
		}
		if n := NormalizeSQL(tmpl); n != tmpl {
			t.Fatalf("%q: template %q renormalizes to %q", src, tmpl, n)
		}
	})
}

// TestPreparedKeyNormalizedOnce: the session keeps a prepared statement's
// plan-cache key and text from prepare time, and execute — including its
// recompile after DDL moved the epoch — reuses the key instead of
// renormalizing the text.
func TestPreparedKeyNormalizedOnce(t *testing.T) {
	inst, _, err := OpenWorkload("mot", 0.1, 7, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(inst, Config{})
	defer srv.Shutdown(context.Background())
	sess := newSession(1, "test")
	const text = "SELECT  V.make FROM VEHICLE V\n WHERE V.vehicle_id = ?"
	if resp := srv.handle(sess, &Request{Op: "prepare", Name: "q", SQL: text}); !resp.OK {
		t.Fatal(resp.Error)
	}
	key, _, ok := sess.Prepared("q")
	if !ok || key != NormalizeSQL(text) {
		t.Fatalf("session key = %q ok=%v, want %q", key, ok, NormalizeSQL(text))
	}
	exec := func() {
		t.Helper()
		var req Request
		if err := json.Unmarshal([]byte(`{"op":"execute","name":"q","params":[3]}`), &req); err != nil {
			t.Fatal(err)
		}
		resp := srv.handle(sess, &req)
		if !resp.OK || len(resp.tuples) != 1 {
			t.Fatalf("execute: %+v", resp)
		}
	}
	exec()
	if _, err := srv.Exec(context.Background(), "create index ix_make on VEHICLE(make)"); err != nil {
		t.Fatal(err)
	}
	exec() // recompiles the plan under the stored key
	key2, src, _ := sess.Prepared("q")
	if key2 != key || src != text {
		t.Fatalf("after DDL: key %q (was %q), text %q", key2, key, src)
	}
	if p, ok := srv.Cache().Get(key); !ok || p.Epoch() != inst.SchemaEpoch() {
		t.Fatal("the stored key's cache entry was not recompiled at the current epoch")
	}
}
