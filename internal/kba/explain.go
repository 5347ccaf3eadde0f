package kba

import (
	"fmt"
	"strings"

	"zidian/internal/obs"
)

// OpName returns the operator name of a plan node — the stable identifier
// EXPLAIN, EXPLAIN ANALYZE, and trace spans all share, so the static and
// the executed rendering of a plan can never drift apart.
func OpName(p Plan) string {
	switch p.(type) {
	case *Const:
		return "Const"
	case *ScanKV:
		return "ScanKV"
	case *IndexRange:
		return "IndexRange"
	case *Extend:
		return "Extend"
	case *Shift:
		return "Shift"
	case *Join:
		return "Join"
	case *Select:
		return "Select"
	case *Project:
		return "Project"
	case *Union:
		return "Union"
	case *Diff:
		return "Diff"
	case *GroupBy:
		return "GroupBy"
	case *StatsAgg:
		return "StatsAgg"
	case *Distinct:
		return "Distinct"
	default:
		return fmt.Sprintf("%T", p)
	}
}

// NodeLabel returns the node's own parameters without recursing into its
// inputs — the per-line annotation of the rendered plan tree (children get
// their own lines).
func NodeLabel(p Plan) string {
	switch n := p.(type) {
	case *Const:
		return strings.TrimPrefix(strings.TrimSuffix(n.String(), "]"), "const[")
	case *ScanKV:
		return fmt.Sprintf("%s as %s", n.KV, n.Alias)
	case *IndexRange:
		return strings.TrimPrefix(strings.TrimSuffix(n.String(), "]"), "IndexRange[")
	case *Extend:
		return fmt.Sprintf("∝ %s on %s as %s", n.KV, strings.Join(n.KeyFrom, ","), n.Alias)
	case *Shift:
		return "↑ " + strings.Join(n.NewKey, ",")
	case *Join:
		// Labels render before the executor validates, so tolerate a
		// malformed node (mismatched LOn/ROn) instead of panicking.
		pairs := make([]string, 0, len(n.LOn))
		for i := range n.LOn {
			if i >= len(n.ROn) {
				break
			}
			pairs = append(pairs, n.LOn[i]+"="+n.ROn[i])
		}
		return strings.Join(pairs, ",")
	case *Select:
		parts := make([]string, len(n.Preds))
		for i, pr := range n.Preds {
			parts[i] = pr.String()
		}
		return strings.Join(parts, "∧")
	case *Project:
		return strings.Join(n.Attrs, ",")
	case *Union, *Diff, *Distinct:
		return ""
	case *GroupBy:
		parts := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			parts[i] = a.Name
		}
		return fmt.Sprintf("%s; %s", strings.Join(n.Keys, ","), strings.Join(parts, ","))
	case *StatsAgg:
		return fmt.Sprintf("%s from %s as %s", statsLabel(n), n.KV, n.Alias)
	default:
		return ""
	}
}

// PlanTree renders a plan's static shape as an operator tree — the same
// node identities execution spans carry, with zero measurements. EXPLAIN
// renders this tree; EXPLAIN ANALYZE renders the executed one.
func PlanTree(p Plan) *obs.OpNode {
	n := &obs.OpNode{Name: OpName(p), Label: NodeLabel(p)}
	for _, c := range p.Children() {
		n.Children = append(n.Children, PlanTree(c))
	}
	return n
}
