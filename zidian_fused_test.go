package zidian

import (
	"reflect"
	"strings"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/kba"
	"zidian/internal/parallel"
	"zidian/internal/ra"
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

// TestDifferentialFusedVsMaterialized runs every plan of the differential
// suites twice on the same store: as the executor runs it, every σ/π/γ
// chain inside whatever feeds it, and materialized, each chain's producer
// run alone and the chain over its rows. On three engines × {1, 4} nodes ×
// {1, 2, 4} workers: the same rows in the same order, and the same
// ExecStats. Every chain shape the planner emits over a scan, ∝ or ⋈ occurs.
func TestDifferentialFusedVsMaterialized(t *testing.T) {
	shapes := map[string]int{}
	eachSuiteQuery(t, func(inst *Instance, label, src string) {
		t.Helper()
		q, err := ra.Parse(src, inst.db)
		if err != nil {
			t.Fatalf("%s: %q: %v", label, src, err)
		}
		info, err := inst.checker.Plan(q)
		if err != nil {
			t.Fatalf("%s: %q: %v", label, src, err)
		}
		if info.Empty {
			return
		}
		for _, workers := range []int{1, 2, 4} {
			got, gm, err := parallel.RunKBA(info, inst.store, workers)
			if err != nil {
				t.Fatalf("%s p=%d: %q: %v", label, workers, src, err)
			}
			var pre kba.ExecStats
			apart := *info
			apart.Root = materialize(t, info.Root, inst.store, workers, &pre, shapes)
			want, wm, err := parallel.RunKBA(&apart, inst.store, workers)
			if err != nil {
				t.Fatalf("%s p=%d: %q materialized: %v", label, workers, src, err)
			}
			if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s p=%d: %q\nfused plan answers %v\nmaterialized      %v\nplan %s",
					label, workers, src, got.Rows, want.Rows, info.Root)
			}
			ws := wm.ExecStats
			ws.Add(pre)
			if gm.ExecStats != ws {
				t.Fatalf("%s p=%d: %q\nfused        %+v\nmaterialized %+v", label, workers, src, gm.ExecStats, ws)
			}
		}
	})
	for _, shape := range []string{"π∘σ over ∝", "π∘σ over ⋈", "π∘σ over scan", "γ∘σ over ∝", "γ∘σ over ⋈", "γ∘σ over scan", "γ over scan", "π over scan"} {
		if shapes[shape] == 0 {
			t.Errorf("no plan had a %s: the two arms never compared it (shapes seen: %v)", shape, shapes)
		}
	}
	t.Logf("chains taken apart: %v", shapes)
}
