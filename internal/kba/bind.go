package kba

import (
	"fmt"

	"zidian/internal/relation"
)

// Bind resolves every parameter slot in a plan template against the bound
// values, returning an executable literal-only plan. Subtrees without slots
// are shared, not copied, so binding a cached template is cheap: the cost is
// proportional to the number of parameterized nodes, not the plan size, and
// no parsing, checking or plan generation happens. Copied nodes keep the
// layout Resolve stored on the template: binding changes values, never an
// attribute layout. Callers validate arity and types before Bind (see
// core.PlanInfo.Bind); Bind itself only fails on out-of-range slots, which
// indicates a template/binding mismatch.
func Bind(p Plan, params []relation.Value) (Plan, error) {
	if p == nil {
		return nil, nil
	}
	switch n := p.(type) {
	case *Const:
		if len(n.Args) == 0 {
			return n, nil
		}
		keys := make([]relation.Tuple, 0, len(n.Keys)+len(n.Args))
		keys = append(keys, n.Keys...)
		for _, row := range n.Args {
			t := make(relation.Tuple, len(row))
			for i, a := range row {
				v, err := a.Resolve(params)
				if err != nil {
					return nil, err
				}
				t[i] = v
			}
			keys = append(keys, t)
		}
		return &Const{KeyAttrs: n.KeyAttrs, Keys: dedupeTuples(keys), resolved: n.resolved}, nil
	case *IndexRange:
		if !n.hasSlots() {
			return n, nil
		}
		out := *n
		resolveBound := func(a *Arg) (*Arg, error) {
			if a == nil || !a.IsSlot {
				return a, nil
			}
			v, err := a.Resolve(params)
			if err != nil {
				return nil, err
			}
			lit := LitArg(v)
			return &lit, nil
		}
		var err error
		if out.Lo, err = resolveBound(n.Lo); err != nil {
			return nil, err
		}
		if out.Hi, err = resolveBound(n.Hi); err != nil {
			return nil, err
		}
		if out.Limit, err = resolveBound(n.Limit); err != nil {
			return nil, err
		}
		return &out, nil
	case *Select:
		in, err := Bind(n.Input, params)
		if err != nil {
			return nil, err
		}
		changed := in != n.Input
		preds := n.Preds
		for i := range n.Preds {
			if n.Preds[i].hasSlots() {
				changed = true
				preds = make([]Pred, len(n.Preds))
				copy(preds, n.Preds)
				for j := range preds {
					bp, err := bindPred(preds[j], params)
					if err != nil {
						return nil, err
					}
					preds[j] = bp
				}
				break
			}
		}
		if !changed {
			return n, nil
		}
		return &Select{Input: in, Preds: preds, resolved: n.resolved}, nil
	case *Extend:
		return bind1(n, &n.Input, params, func(in Plan) Plan {
			c := *n
			c.Input = in
			return &c
		})
	case *Shift:
		return bind1(n, &n.Input, params, func(in Plan) Plan {
			c := *n
			c.Input = in
			return &c
		})
	case *Project:
		return bind1(n, &n.Input, params, func(in Plan) Plan {
			c := *n
			c.Input = in
			return &c
		})
	case *Distinct:
		return bind1(n, &n.Input, params, func(in Plan) Plan {
			c := *n
			c.Input = in
			return &c
		})
	case *GroupBy:
		return bind1(n, &n.Input, params, func(in Plan) Plan {
			c := *n
			c.Input = in
			return &c
		})
	case *Join:
		return bind2(n, &n.L, &n.R, params, func(l, r Plan) Plan {
			c := *n
			c.L, c.R = l, r
			return &c
		})
	case *Union:
		return bind2(n, &n.L, &n.R, params, func(l, r Plan) Plan {
			c := *n
			c.L, c.R = l, r
			return &c
		})
	case *Diff:
		return bind2(n, &n.L, &n.R, params, func(l, r Plan) Plan {
			c := *n
			c.L, c.R = l, r
			return &c
		})
	case *ScanKV, *StatsAgg:
		return p, nil
	default:
		// Unknown leaves (e.g. executor-internal wrappers) carry no slots.
		if len(p.Children()) == 0 {
			return p, nil
		}
		return nil, fmt.Errorf("kba: cannot bind unknown plan node %T", p)
	}
}

// bind1 rebuilds a single-input node only when its input changed.
func bind1(n Plan, input *Plan, params []relation.Value, rebuild func(Plan) Plan) (Plan, error) {
	in, err := Bind(*input, params)
	if err != nil {
		return nil, err
	}
	if in == *input {
		return n, nil
	}
	return rebuild(in), nil
}

// bind2 rebuilds a two-input node only when an input changed.
func bind2(n Plan, l, r *Plan, params []relation.Value, rebuild func(Plan, Plan) Plan) (Plan, error) {
	bl, err := Bind(*l, params)
	if err != nil {
		return nil, err
	}
	br, err := Bind(*r, params)
	if err != nil {
		return nil, err
	}
	if bl == *l && br == *r {
		return n, nil
	}
	return rebuild(bl, br), nil
}

// bindPred resolves a predicate's parameter slots.
func bindPred(p Pred, params []relation.Value) (Pred, error) {
	if p.Param != nil {
		slot := *p.Param
		if slot < 0 || slot >= len(params) {
			return Pred{}, fmt.Errorf("kba: parameter slot %d out of range (have %d)", slot, len(params))
		}
		v := params[slot]
		p.Param = nil
		p.Lit = &v
	}
	if len(p.InSlots) > 0 {
		vals := append([]relation.Value{}, p.In...)
		for _, slot := range p.InSlots {
			if slot < 0 || slot >= len(params) {
				return Pred{}, fmt.Errorf("kba: parameter slot %d out of range (have %d)", slot, len(params))
			}
			vals = append(vals, params[slot])
		}
		p.InSlots = nil
		p.In = vals
	}
	return p, nil
}

// HasParams reports whether the plan still contains unresolved parameter
// slots (i.e. it is a template, not an executable plan).
func HasParams(p Plan) bool {
	if p == nil {
		return false
	}
	switch n := p.(type) {
	case *Const:
		if len(n.Args) > 0 {
			return true
		}
	case *IndexRange:
		if n.hasSlots() {
			return true
		}
	case *Select:
		for _, pr := range n.Preds {
			if pr.hasSlots() {
				return true
			}
		}
	}
	for _, c := range p.Children() {
		if HasParams(c) {
			return true
		}
	}
	return false
}

// dedupeTuples removes duplicate key tuples, preserving first-seen order.
// Binding may collapse template rows onto one value (two slots bound to the
// same literal), and a seed must contribute each distinct key once.
func dedupeTuples(ts []relation.Tuple) []relation.Tuple {
	seen := make(map[string]bool, len(ts))
	out := ts[:0:0]
	for _, t := range ts {
		k := relation.KeyString(t)
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}
