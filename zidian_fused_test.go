package zidian

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/kba"
)

// materialize returns p with every σ/π/γ chain taken apart — a σ, a π or γ,
// or a π or γ over a σ, as the executor peels them: the plan that feeds the
// chain is run alone, at the given worker count, and the chain is left over
// its rows as a Lit — the operators one after another, as they ran before
// the chain ran inside its producer. The producers' ExecStats are added to
// stats, and each chain is counted in shapes under its shape and producer.
// Every other node is copied with its layout.
func materialize(t *testing.T, p kba.Plan, store *baav.Store, workers int, stats *kba.ExecStats, shapes map[string]int) kba.Plan {
	t.Helper()
	rec := func(c kba.Plan) kba.Plan { return materialize(t, c, store, workers, stats, shapes) }
	switch v := p.(type) {
	case *kba.Project, *kba.GroupBy, *kba.Select:
		shape, in := "", p
		switch v := p.(type) {
		case *kba.Project:
			shape, in = "π", v.Input
		case *kba.GroupBy:
			shape, in = "γ", v.Input
		}
		sel, isSel := in.(*kba.Select)
		if isSel {
			shape, in = shape+"∘σ", sel.Input
		}
		out, st, err := kba.Run(rec(in), store, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		stats.Add(st)
		shapes[strings.TrimPrefix(shape, "∘")+" over "+producerName(in)]++
		var chain kba.Plan = &kba.Lit{V: out}
		if isSel {
			s := *sel
			s.Input = chain
			chain = &s
		}
		switch v := p.(type) {
		case *kba.Project:
			cp := *v
			cp.Input = chain
			chain = &cp
		case *kba.GroupBy:
			cp := *v
			cp.Input = chain
			chain = &cp
		}
		return chain
	case *kba.Extend:
		cp := *v
		cp.Input = rec(v.Input)
		return &cp
	case *kba.Shift:
		cp := *v
		cp.Input = rec(v.Input)
		return &cp
	case *kba.Distinct:
		cp := *v
		cp.Input = rec(v.Input)
		return &cp
	case *kba.Join:
		cp := *v
		cp.L, cp.R = rec(v.L), rec(v.R)
		return &cp
	case *kba.Union:
		cp := *v
		cp.L, cp.R = rec(v.L), rec(v.R)
		return &cp
	case *kba.Diff:
		cp := *v
		cp.L, cp.R = rec(v.L), rec(v.R)
		return &cp
	default: // leaves
		return p
	}
}

// producerName names the producers a chain runs inside; any other plan
// builds its rows and the chain loops over them.
func producerName(p kba.Plan) string {
	switch p.(type) {
	case *kba.Extend:
		return "∝"
	case *kba.Join:
		return "⋈"
	case *kba.ScanKV:
		return "scan"
	}
	return "built rows"
}

// TestDifferentialFusedVsMaterialized runs every plan twice on the same
// store: as the executor runs it, every σ/π/γ chain inside whatever feeds
// it, and materialized, each chain's producer run alone and the chain over
// its rows. Every literal query of the grid (the suites without their ranged
// indexes), on three engines × {1, 4} nodes × {1, 2, 4} workers: the same
// rows in the same order, and the same ExecStats. Every chain shape the
// planner emits over a scan, ∝ or ⋈ occurs.
func TestDifferentialFusedVsMaterialized(t *testing.T) {
	var mu sync.Mutex
	shapes := map[string]int{}
	eachCell(t, []int{1, 4}, []int{1, 2, 4}, false, func(t *testing.T, c *GridCell) {
		seen := map[string]int{}
		for i, q := range c.Queries {
			info := c.plan(t, i)
			if info.Empty {
				continue
			}
			got, gs := c.run(t, info)
			var pre kba.ExecStats
			apart := *info
			apart.Root = materialize(t, info.Root, c.Inst.store, c.Workers, &pre, seen)
			want, ws := c.run(t, &apart)
			if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s: %q\nfused plan answers %v\nmaterialized      %v\nplan %s", c, q.SQL, got.Rows, want.Rows, info.Root)
			}
			if ws.Add(pre); gs != ws {
				t.Fatalf("%s: %q\nfused        %+v\nmaterialized %+v", c, q.SQL, gs, ws)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for shape, n := range seen {
			shapes[shape] += n
		}
	})
	for _, shape := range []string{"π∘σ over ∝", "π∘σ over ⋈", "π∘σ over scan", "γ∘σ over ∝", "γ∘σ over ⋈", "γ∘σ over scan", "γ over scan", "π over scan"} {
		if shapes[shape] == 0 {
			t.Errorf("no plan had a %s: the two arms never compared it (shapes seen: %v)", shape, shapes)
		}
	}
	t.Logf("chains taken apart: %v", shapes)
}
