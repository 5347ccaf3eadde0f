package core

import (
	"zidian/internal/kba"
	"zidian/internal/ra"
	"zidian/internal/relation"
)

// Bind injects bound parameter values into a compiled plan template,
// returning an executable PlanInfo. It validates arity (exactly NumParams
// values) and per-slot types (numeric kinds coerce losslessly, anything
// else is a mismatch), then rewrites only the plan nodes that carry
// parameter slots — constant seeds, range bounds and residual selections —
// sharing every other node with the template. No parsing, checking or plan
// generation happens: this is the whole point of plan templates, the
// compile cost is paid once per template rather than once per literal.
//
// A literal-only plan (NumParams == 0) binds to itself with an empty
// parameter list, so callers can bind unconditionally. The receiver is
// never modified and stays valid for concurrent Binds.
func (p *PlanInfo) Bind(params []relation.Value) (*PlanInfo, error) {
	vals, err := ra.CheckParams(params, p.NumParams, p.ParamKinds)
	if err != nil {
		return nil, err
	}
	if p.NumParams == 0 {
		return p, nil
	}
	root, err := kba.Bind(p.Root, vals)
	if err != nil {
		return nil, err
	}
	out := *p
	out.Root = root
	// A LIMIT ? slot binds into the result shaping (ToResult reads
	// Query.Limit), not the plan tree: clone the query with the literal
	// limit so the shared template stays parameterized.
	if p.Query != nil && p.Query.LimitParam != nil {
		n, err := p.Query.LimitOf(vals)
		if err != nil {
			return nil, err
		}
		bq := *p.Query
		bq.Limit = n
		bq.LimitParam = nil
		out.Query = &bq
	}
	out.NumParams = 0
	out.ParamKinds = nil
	return &out, nil
}
