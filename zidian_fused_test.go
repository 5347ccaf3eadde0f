package zidian

import (
	"reflect"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/kba"
	"zidian/internal/parallel"
	"zidian/internal/ra"
)

// materialize returns p with every π(σ(∝)) and π(σ(⋈)) taken apart: the ∝
// or ⋈ is run alone, at the given worker count, and σ and π are left over
// its rows as a Lit — the operators one after another, as they ran before σ
// and π ran inside their producer. The producers' ExecStats are added to
// stats and their number to n. Every other node is copied with its layout.
func materialize(t *testing.T, p kba.Plan, store *baav.Store, workers int, stats *kba.ExecStats, n *int) kba.Plan {
	t.Helper()
	rec := func(c kba.Plan) kba.Plan { return materialize(t, c, store, workers, stats, n) }
	switch v := p.(type) {
	case *kba.Project:
		cp := *v
		if sel, ok := v.Input.(*kba.Select); ok {
			switch sel.Input.(type) {
			case *kba.Extend, *kba.Join:
				out, st, err := kba.Run(rec(sel.Input), store, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				stats.Add(st)
				*n++
				s := *sel
				s.Input = &kba.Lit{V: out}
				cp.Input = &s
				return &cp
			}
		}
		cp.Input = rec(v.Input)
		return &cp
	case *kba.Extend:
		cp := *v
		cp.Input = rec(v.Input)
		return &cp
	case *kba.Shift:
		cp := *v
		cp.Input = rec(v.Input)
		return &cp
	case *kba.Select:
		cp := *v
		cp.Input = rec(v.Input)
		return &cp
	case *kba.Distinct:
		cp := *v
		cp.Input = rec(v.Input)
		return &cp
	case *kba.GroupBy:
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

// TestDifferentialFusedVsMaterialized runs every plan of the differential
// suites twice on the same store: as the executor runs it, σ and π inside
// the ∝ or ⋈ that feeds them, and materialized, that ∝ or ⋈ run alone and σ
// and π over its rows. On three engines × {1, 4} nodes × {1, 2, 4} workers:
// the same rows in the same order, and the same ExecStats.
func TestDifferentialFusedVsMaterialized(t *testing.T) {
	fused := 0
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
			apart.Root = materialize(t, info.Root, inst.store, workers, &pre, &fused)
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
	if fused == 0 {
		t.Fatal("no plan had σ and π over a ∝ or ⋈: the two arms ran the same thing")
	}
}
