package zidian_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"zidian"
	"zidian/internal/obs"
	"zidian/internal/server"
	sqlpkg "zidian/internal/sql"
)

// checkLifted runs one SELECT three ways — compiled from its literal text
// (what the server did before it lifted literals), through the server, and
// from the sql.LiftLiterals template with the lifted values bound — and
// requires byte-identical rows from all three, and from the template the same
// EXPLAIN (classification headline with its access-path tags, and operator
// tree, once the values are written back into the placeholders) and the
// same traced kv get and scan-step counts as from the literal text. It
// reports whether the statement had anything to lift.
func checkLifted(t *testing.T, inst *zidian.Instance, srv *server.Server, label, sql string) bool {
	t.Helper()
	run := func(src string, vals []zidian.Value) (string, obs.KVSnapshot) {
		t.Helper()
		p, err := inst.Prepare(src)
		if err != nil {
			t.Fatalf("%s: prepare %q: %v", label, src, err)
		}
		tr := &obs.Trace{}
		res, _, err := p.RunTraced(tr, vals...)
		if err != nil {
			t.Fatalf("%s: run %q %v: %v", label, src, vals, err)
		}
		return zidian.RenderResult(res), tr.KV.Snapshot()
	}
	want, wantKV := run(sql, nil)

	res, _, _, err := srv.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: served %q: %v", label, sql, err)
	}
	if got := zidian.RenderResult(res); got != want {
		t.Fatalf("%s: %q\nserved:\n%s\nliteral compile:\n%s", label, sql, got, want)
	}

	tmpl, vals, ok := sqlpkg.LiftLiterals(sql)
	if !ok {
		return false // no equality literal: the server compiled the literal text
	}
	got, gotKV := run(tmpl, vals)
	if got != want {
		t.Fatalf("%s: %q\ntemplate %q %v:\n%s\nliteral compile:\n%s", label, sql, tmpl, vals, got, want)
	}
	if gotKV.Gets != wantKV.Gets || gotKV.ScanNexts != wantKV.ScanNexts {
		t.Fatalf("%s: %q: template did %d gets / %d scan steps, literal compile %d / %d",
			label, sql, gotKV.Gets, gotKV.ScanNexts, wantKV.Gets, wantKV.ScanNexts)
	}
	wantPlan, err := inst.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	gotPlan, err := inst.Explain(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(vals) - 1; i >= 0; i-- { // ?10 before ?1
		gotPlan = strings.ReplaceAll(gotPlan, fmt.Sprintf("?%d", i), vals[i].String())
	}
	if gotPlan != wantPlan {
		t.Fatalf("%s: %q plans differently as a template\ntemplate %q:\n%s\nliteral:\n%s", label, sql, tmpl, gotPlan, wantPlan)
	}
	return true
}

// TestDifferentialLiftedVsLiteral covers every literal query of the grid
// (the suites without their ranged indexes), on all three kv engines at four
// nodes and four workers.
func TestDifferentialLiftedVsLiteral(t *testing.T) {
	var lifted, total atomic.Int64
	zidian.EachCell(t, []int{4}, []int{4}, false, func(t *testing.T, c *zidian.GridCell) {
		srv := server.New(c.Inst, server.Config{})
		defer srv.Shutdown(context.Background())
		for _, q := range c.Queries {
			total.Add(1)
			if checkLifted(t, c.Inst, srv, c.String()+": "+q.Name, q.SQL) {
				lifted.Add(1)
			}
		}
	})
	t.Logf("%d of %d statements had equality literals to lift", lifted.Load(), total.Load())
	if lifted.Load()*4 < total.Load() {
		t.Fatalf("only %d of %d statements were lifted: the suites no longer exercise the lift", lifted.Load(), total.Load())
	}
}
