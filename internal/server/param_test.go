package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"zidian"
	"zidian/internal/server"
	"zidian/internal/server/client"
	"zidian/internal/sql"
)

// TestWireParams drives parameterized statements over the wire protocol:
// direct queries, prepare/execute with per-execution bindings, DML, and the
// bind-error surface.
func TestWireParams(t *testing.T) {
	srv, tcp, _ := startServer(t, server.Config{})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const tmpl = "select T.test_date, T.result, T.mileage from TEST T where T.vehicle_id = ?"
	// The same template with different bindings must return the same rows
	// as the literal-inlined spelling.
	for _, id := range []int{1, 2, 3, 7} {
		_, litRows, _, err := c.Query(fmt.Sprintf(
			"select T.test_date, T.result, T.mileage from TEST T where T.vehicle_id = %d", id))
		if err != nil {
			t.Fatalf("literal %d: %v", id, err)
		}
		_, parRows, stats, err := c.Query(tmpl, id)
		if err != nil {
			t.Fatalf("param %d: %v", id, err)
		}
		if fmt.Sprint(parRows) != fmt.Sprint(litRows) {
			t.Fatalf("id %d: literal %v != parameterized %v", id, litRows, parRows)
		}
		if !stats.ScanFree {
			t.Fatalf("id %d: stats %+v", id, stats)
		}
	}
	// After the first compile, every distinct binding is a cache hit on the
	// same template entry.
	_, _, stats, err := c.Query(tmpl, 99)
	if err != nil || !stats.CacheHit {
		t.Fatalf("template should be cached: %+v %v", stats, err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanCache.ParamsHits == 0 {
		t.Fatalf("paramsHits = 0: %+v", st.PlanCache)
	}

	// prepare / execute with per-execution params.
	if err := c.Prepare("pt", tmpl); err != nil {
		t.Fatal(err)
	}
	_, rows1, _, err := c.Execute("pt", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, lit1, _, err := c.Query("select T.test_date, T.result, T.mileage from TEST T where T.vehicle_id = 1")
	if err != nil || fmt.Sprint(rows1) != fmt.Sprint(lit1) {
		t.Fatalf("execute(1) = %v, want %v (%v)", rows1, lit1, err)
	}
	if _, _, _, err := c.Execute("pt"); err == nil || !strings.Contains(err.Error(), "parameters") {
		t.Fatalf("arity mismatch over the wire: %v", err)
	}
	if _, _, _, err := c.Execute("pt", "not-a-number"); err == nil {
		t.Fatal("type mismatch over the wire must error")
	}
	if err := c.ClosePrepared("pt"); err != nil {
		t.Fatal(err)
	}

	// Parameterized DML through exec.
	resp, err := c.Exec(
		"insert into VEHICLE values (?, 'FORD', 'FORD-M001', 'PETROL', 'RED', ?, 1600, 'LONDON', 1200, 4, 120, 'MID', '2015-01-01')",
		990001, 2015)
	if err != nil || resp.Affected != 1 {
		t.Fatalf("insert: %+v %v", resp, err)
	}
	_, rows, _, err := c.Query("select V.make from VEHICLE V where V.vehicle_id = ?", 990001)
	if err != nil || len(rows) != 1 {
		t.Fatalf("inserted row: %v %v", rows, err)
	}
	resp, err = c.Exec("delete from VEHICLE where vehicle_id = ?", 990001)
	if err != nil || resp.Affected != 1 {
		t.Fatalf("delete: %+v %v", resp, err)
	}
	// Params with DDL are rejected.
	if _, err := c.Exec("create index ix_whatever on VEHICLE(make)", 1); err == nil {
		t.Fatal("params with DDL must error")
	}

	_ = srv
}

// TestWireParamDecoding checks the JSON → value mapping: integral numbers
// must arrive as ints (they key blocks), fractions as floats, strings as
// strings, and anything else is rejected.
func TestWireParamDecoding(t *testing.T) {
	raw := func(parts ...string) []json.RawMessage {
		out := make([]json.RawMessage, len(parts))
		for i, p := range parts {
			out[i] = json.RawMessage(p)
		}
		return out
	}
	vals, err := server.DecodeParams(raw("42", "2.5", `"x"`, "1e3"))
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Kind.String() != "int" || vals[0].Int != 42 {
		t.Fatalf("vals[0] = %+v", vals[0])
	}
	if vals[1].Kind.String() != "float" || vals[1].Flt != 2.5 {
		t.Fatalf("vals[1] = %+v", vals[1])
	}
	if vals[2].Kind.String() != "string" || vals[2].Str != "x" {
		t.Fatalf("vals[2] = %+v", vals[2])
	}
	for _, bad := range []string{"true", "null", "[1]", "{}", ""} {
		if _, err := server.DecodeParams(raw(bad)); err == nil {
			t.Errorf("DecodeParams(%s) succeeded", bad)
		}
	}
}

// TestHTTPQueryParams exercises the HTTP surface's params array.
func TestHTTPQueryParams(t *testing.T) {
	_, _, httpA := startServer(t, server.Config{})
	body, _ := json.Marshal(map[string]any{
		"sql":    "select V.make, V.model from VEHICLE V where V.vehicle_id = ?",
		"params": []any{3},
	})
	resp, err := http.Post("http://"+httpA+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r server.Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if !r.OK || len(r.Rows) != 1 {
		t.Fatalf("response = %+v", r)
	}
	// Arity mismatch surfaces as a client error.
	body, _ = json.Marshal(map[string]any{
		"sql": "select V.make from VEHICLE V where V.vehicle_id = ?",
	})
	resp2, err := http.Post("http://"+httpA+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
}

// TestTemplateCacheKeying pins the cache-keying contract: statements of one
// shape share one entry across all their values — bound by the client or
// lifted from the text by the server — while literals the planner reads
// (BETWEEN bounds here) stay significant in the key, with the hit split
// reported per class.
func TestTemplateCacheKeying(t *testing.T) {
	srv, tcp, _ := startServer(t, server.Config{})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const tmpl = "select V.make from VEHICLE V where V.vehicle_id = ?"
	for i := 0; i < 10; i++ {
		if _, _, _, err := c.Query(tmpl, 1000+i); err != nil {
			t.Fatal(err)
		}
	}
	cs := srv.Cache().Stats()
	if cs.ParamsHits != 9 || cs.LiftedHits != 0 {
		t.Fatalf("10 distinct bindings should be 1 miss + 9 template hits, none of them lifted: %+v", cs)
	}
	if srv.Cache().Len() != 1 {
		t.Fatalf("cache should hold one template entry, has %d", srv.Cache().Len())
	}

	// Different spellings of the same template normalize to one key.
	if _, _, _, err := c.Query("SELECT  V.make FROM VEHICLE V WHERE V.vehicle_id = ?;", 1); err != nil {
		t.Fatal(err)
	}
	if srv.Cache().Len() != 1 {
		t.Fatalf("normalization should collapse spellings: %d entries", srv.Cache().Len())
	}

	// Ad hoc spellings of the same shape are lifted onto the template: five
	// distinct equality literals add no entry and miss nothing; each is a
	// lifted hit on the entry the `?` client compiled.
	base := srv.Cache().Stats()
	for i := 0; i < 5; i++ {
		sql := fmt.Sprintf("select V.make from VEHICLE V where V.vehicle_id = %d", 2000+i)
		_, _, stats, err := c.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.CacheHit {
			t.Fatalf("lifted statement %d did not report a cache hit", i)
		}
	}
	cs = srv.Cache().Stats()
	if cs.LiftedHits-base.LiftedHits != 5 || cs.Misses != base.Misses ||
		cs.ParamsHits != base.ParamsHits || cs.LiteralHits != base.LiteralHits {
		t.Fatalf("5 equality literals should be 5 lifted hits and nothing else: before %+v after %+v", base, cs)
	}
	if srv.Cache().Len() != 1 {
		t.Fatalf("cache entries = %d, want the 1 template", srv.Cache().Len())
	}

	// Range literals stay in the text: each distinct BETWEEN pair is its own
	// entry, and only an exact-text repeat hits it, as a literal hit.
	base = cs
	for i := 0; i < 3; i++ {
		sql := fmt.Sprintf("select V.vehicle_id from VEHICLE V where V.year between %d and %d", 2000+i, 2001+i)
		if _, _, _, err := c.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, stats, err := c.Query("select V.vehicle_id from VEHICLE V where V.year between 2000 and 2001"); err != nil || !stats.CacheHit {
		t.Fatalf("exact-text repeat should hit: %+v %v", stats, err)
	}
	cs = srv.Cache().Stats()
	if cs.Misses-base.Misses != 3 || cs.LiteralHits-base.LiteralHits != 1 || cs.LiftedHits != base.LiftedHits {
		t.Fatalf("3 BETWEEN pairs + 1 repeat should be 3 misses and 1 literal hit: before %+v after %+v", base, cs)
	}
	if srv.Cache().Len() != 4 {
		t.Fatalf("cache entries = %d, want 1 template + 3 range texts", srv.Cache().Len())
	}

	// Both in one statement: the equality is lifted, the range keys the entry.
	base = cs
	for _, mk := range []string{"FORD", "BMW", "AUDI"} {
		sql := fmt.Sprintf("select V.vehicle_id from VEHICLE V where V.make = '%s' and V.year between 2003 and 2004", mk)
		if _, _, _, err := c.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	cs = srv.Cache().Stats()
	if cs.Misses-base.Misses != 1 || cs.LiftedHits-base.LiftedHits != 2 || srv.Cache().Len() != 5 {
		t.Fatalf("3 makes over one range should be 1 miss + 2 lifted hits on 1 new entry: before %+v after %+v", base, cs)
	}
}

// TestLiftFallback: statements the lift cannot serve from a template — a
// lifted value the slot's column kind rejects, a template that does not
// compile — and statements whose template plans differently from their
// literal text (contradicting or repeated equalities) answer with exactly
// the rows or error string a literal compile gives.
func TestLiftFallback(t *testing.T) {
	inst, _, err := server.OpenWorkload("mot", 0.2, 7, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(inst, server.Config{})
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	answer := func(res *zidian.Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		res.Sort()
		return fmt.Sprint(res.Cols, res.Rows)
	}
	for _, tc := range []struct {
		sql    string
		lifted bool // served from the template (when it answers at all)
	}{
		{"select V.make from VEHICLE V where V.vehicle_id = 44.5", false},
		{"select V.make from VEHICLE V where V.vehicle_id = 'x'", false},
		{"select V.make from VEHICLE V where V.vehicle_id in (1, 2.5)", false},
		{"select V.make from VEHICLE V where V.nope = 1", false},
		{"select V.make from NOPE V where V.vehicle_id = 1", false},
		{"select V.make from VEHICLE V where V.vehicle_id = 44.0", true},
		{"select V.make from VEHICLE V where V.vehicle_id = 1 and V.vehicle_id = 2", true},
		{"select V.make from VEHICLE V where V.vehicle_id = 1 and V.vehicle_id = 1", true},
		{"select V.make from VEHICLE V where V.vehicle_id in (1, 2, 2)", true},
	} {
		before := srv.Cache().Stats()
		res, _, _, err := srv.Query(ctx, tc.sql)
		got := answer(res, err)
		// One statement is one counted lookup, and a lifted hit only when
		// the template served it: the template lookup of a fallback is not
		// counted.
		after := srv.Cache().Stats()
		if n := after.Hits + after.Misses - before.Hits - before.Misses; n != 1 {
			t.Errorf("%s: counted %d cache lookups, want 1", tc.sql, n)
		}
		if !tc.lifted && after.LiftedHits != before.LiftedHits {
			t.Errorf("%s: fell back to its literal text but counted a lifted hit", tc.sql)
		}
		lres, _, lerr := inst.Query(tc.sql)
		if want := answer(lres, lerr); got != want {
			t.Errorf("%s\n served %s\nliteral %s", tc.sql, got, want)
		}
		if _, _, ok := sql.LiftLiterals(tc.sql); !ok {
			t.Fatalf("%s: the lift declined; the case tests nothing", tc.sql)
		}
		// A fallback leaves an entry keyed by the literal text behind; a
		// statement served from its template never compiles that text.
		if _, literal := srv.Cache().Get(server.NormalizeSQL(tc.sql)); err == nil && literal == tc.lifted {
			t.Errorf("%s: literal-text entry = %v, want served from template = %v", tc.sql, literal, tc.lifted)
		}
	}
}

// TestLiftedEntriesFollowEpoch: CREATE INDEX and DROP INDEX invalidate the
// template entries ad hoc statements were lifted onto, so the next literal
// of the shape recompiles against the new catalog.
func TestLiftedEntriesFollowEpoch(t *testing.T) {
	srv, _ := startIndexServer(t, server.Config{})
	ctx := context.Background()
	query := func(mk int) (*zidian.Stats, bool) {
		t.Helper()
		res, stats, hit, err := srv.Query(ctx,
			fmt.Sprintf("select V.vehicle_id, V.model from VEHICLE V where V.make = 'MAKE-%02d'", mk))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 20 {
			t.Fatalf("MAKE-%02d: %d rows, want 20", mk, len(res.Rows))
		}
		return stats, hit
	}
	if _, hit := query(1); hit {
		t.Fatal("first literal of the shape hit")
	}
	if stats, hit := query(2); !hit || strings.Contains(stats.Plan, "∝ ix_make") {
		t.Fatalf("second literal should hit the scan template: hit=%v plan %s", hit, stats.Plan)
	}
	if _, err := srv.Exec(ctx, "create index ix_make on VEHICLE(make)"); err != nil {
		t.Fatal(err)
	}
	if stats, hit := query(3); hit || !strings.Contains(stats.Plan, "∝ ix_make") {
		t.Fatalf("after CREATE INDEX the template must recompile onto the index: hit=%v plan %s", hit, stats.Plan)
	}
	if stats, hit := query(4); !hit || !strings.Contains(stats.Plan, "∝ ix_make") {
		t.Fatalf("then hit the indexed template: hit=%v plan %s", hit, stats.Plan)
	}
	if _, err := srv.Exec(ctx, "drop index ix_make"); err != nil {
		t.Fatal(err)
	}
	if stats, hit := query(5); hit || strings.Contains(stats.Plan, "∝ ix_make") {
		t.Fatalf("after DROP INDEX the template must recompile off the index: hit=%v plan %s", hit, stats.Plan)
	}
	cs := srv.Cache().Stats()
	if cs.LiftedHits != 2 || cs.Misses != 3 || cs.StaleDrops != 2 || cs.Size != 1 {
		t.Fatalf("cache stats = %+v, want 2 lifted hits, 3 misses, 2 stale drops, 1 entry", cs)
	}
}
