package zidian

import (
	"testing"

	"zidian/internal/kba"
)

// The grid and the fixtures of the in-package tests, for the external test
// package (zidian_test), which may import the serving layer where this
// package's own tests cannot.
var (
	EachCell     = eachCell
	GridEngines  = gridEngines
	RenderResult = renderResult
)

// UnresolvedCopy rebuilds a plan tree from its nodes' exported fields
// alone, which leaves behind the layouts Resolve stored on the original:
// the copy is the same plan as no Resolve has seen it.
func UnresolvedCopy(t *testing.T, p kba.Plan) kba.Plan {
	t.Helper()
	var out kba.Plan
	switch n := p.(type) {
	case *kba.Const:
		out = &kba.Const{KeyAttrs: n.KeyAttrs, Keys: n.Keys, Args: n.Args}
	case *kba.ScanKV:
		out = &kba.ScanKV{KV: n.KV, Alias: n.Alias}
	case *kba.StatsAgg:
		out = &kba.StatsAgg{KV: n.KV, Alias: n.Alias, Keys: n.Keys, Aggs: n.Aggs}
	case *kba.IndexRange:
		out = &kba.IndexRange{Index: n.Index, Alias: n.Alias, ValAttr: n.ValAttr, KeyAttrs: n.KeyAttrs,
			Lo: n.Lo, Hi: n.Hi, LoIncl: n.LoIncl, HiIncl: n.HiIncl, Limit: n.Limit}
	case *kba.Extend:
		out = &kba.Extend{Input: UnresolvedCopy(t, n.Input), KV: n.KV, Alias: n.Alias, KeyFrom: n.KeyFrom}
	case *kba.Shift:
		out = &kba.Shift{Input: UnresolvedCopy(t, n.Input), NewKey: n.NewKey}
	case *kba.Join:
		out = &kba.Join{L: UnresolvedCopy(t, n.L), R: UnresolvedCopy(t, n.R), LOn: n.LOn, ROn: n.ROn}
	case *kba.Select:
		out = &kba.Select{Input: UnresolvedCopy(t, n.Input), Preds: n.Preds}
	case *kba.Project:
		out = &kba.Project{Input: UnresolvedCopy(t, n.Input), Attrs: n.Attrs}
	case *kba.Distinct:
		out = &kba.Distinct{Input: UnresolvedCopy(t, n.Input)}
	case *kba.Union:
		out = &kba.Union{L: UnresolvedCopy(t, n.L), R: UnresolvedCopy(t, n.R)}
	case *kba.Diff:
		out = &kba.Diff{L: UnresolvedCopy(t, n.L), R: UnresolvedCopy(t, n.R)}
	case *kba.GroupBy:
		out = &kba.GroupBy{Input: UnresolvedCopy(t, n.Input), Keys: n.Keys, Aggs: n.Aggs}
	default:
		t.Fatalf("UnresolvedCopy: unknown plan node %T", p)
	}
	if out.String() != p.String() {
		t.Fatalf("UnresolvedCopy changed the plan:\n%s\n%s", p, out)
	}
	return out
}
