package kba

import (
	"fmt"
	"slices"

	"zidian/internal/baav"
)

// Hooks for the external test package (kba_test), which may import the
// planner where this package's own tests cannot.

// ReadColumns reports, for a resolved ∝ or scan node, the output attributes
// that are its instance's values, the instance value positions they come
// from (nil: all of them) and the instance's width.
func ReadColumns(p Plan) (attrs []string, cols []int, width int) {
	lay := layoutIn(p)
	return lay.attrs[len(lay.attrs)-lay.kept():], lay.cols, lay.width
}

func layoutIn(p Plan) *layout {
	if l, ok := p.(*Lit); ok {
		return &layout{attrs: l.V.Attrs}
	}
	return p.(interface{ layout() *layout }).layout()
}

// allColumns is the output of p with nothing pruned anywhere under it.
func allColumns(p Plan, kvs func(string) *baav.KVSchema) ([]string, error) {
	if l, ok := p.(*Lit); ok {
		return l.V.Attrs, nil
	}
	var ins [2][]string
	for i, c := range p.Children() {
		var err error
		if ins[i], err = allColumns(c, kvs); err != nil {
			return nil, err
		}
	}
	lay, err := deriveLayout(p, kvs, ins[0], ins[1])
	if err != nil {
		return nil, err
	}
	return lay.attrs, nil
}

// CheckRequired verifies what the required-attribute pass of Resolve
// promises of a resolved plan: every node has a layout; every attribute an
// operator reads by name is in its input's layout, at the position the
// operator's layout holds for it; what a ∝ or scan keeps of its instance is
// an ascending selection of the instance's value attributes; and the inputs
// of δ, ∪ and − — which compare whole rows — are not pruned at all.
func CheckRequired(p Plan, kvs func(string) *baav.KVSchema) error {
	for _, c := range p.Children() {
		if err := CheckRequired(c, kvs); err != nil {
			return err
		}
	}
	if _, ok := p.(*Lit); ok {
		return nil
	}
	lay := layoutIn(p)
	if lay == nil {
		return fmt.Errorf("%s: no layout", OpName(p))
	}
	var ins [2][]string
	for i, c := range p.Children() {
		ins[i] = layoutIn(c).attrs
	}
	// reads checks that names sit in the input at the recorded positions.
	reads := func(in []string, names []string, at []int) error {
		if len(at) != len(names) {
			return fmt.Errorf("%s: %d positions for %v", OpName(p), len(at), names)
		}
		for i, n := range names {
			if at[i] < 0 || at[i] >= len(in) || in[at[i]] != n {
				return fmt.Errorf("%s reads %q at %d of its input %v", OpName(p), n, at[i], in)
			}
		}
		return nil
	}
	unpruned := func() error {
		for i, c := range p.Children() {
			all, err := allColumns(c, kvs)
			if err != nil {
				return err
			}
			if !slices.Equal(all, ins[i]) {
				return fmt.Errorf("%s compares whole rows but input %d carries %v of %v", OpName(p), i, ins[i], all)
			}
		}
		return nil
	}
	values := func(kv, alias string) error {
		val := qualify(alias, kvs(kv).Val)
		attrs, cols, width := ReadColumns(p)
		if width != len(val) {
			return fmt.Errorf("%s %s: width %d, instance has %d values", OpName(p), kv, width, len(val))
		}
		if cols == nil {
			cols = identity(width)
		} else if len(cols) == width {
			return fmt.Errorf("%s %s: every column listed; all columns is nil", OpName(p), kv)
		}
		if !slices.IsSorted(cols) || len(slices.Compact(slices.Clone(cols))) != len(cols) {
			return fmt.Errorf("%s %s: columns %v not ascending", OpName(p), kv, cols)
		}
		for i, c := range cols {
			if c < 0 || c >= width || attrs[i] != val[c] {
				return fmt.Errorf("%s %s: output %v is not values %v of %v", OpName(p), kv, attrs, cols, val)
			}
		}
		return nil
	}
	switch n := p.(type) {
	case *ScanKV:
		return values(n.KV, n.Alias)
	case *Extend:
		if err := reads(ins[0], n.KeyFrom, lay.key); err != nil {
			return err
		}
		return values(n.KV, n.Alias)
	case *Shift:
		return reads(ins[0], n.NewKey, lay.key)
	case *Join:
		if err := reads(ins[0], n.LOn, lay.key); err != nil {
			return err
		}
		return reads(ins[1], n.ROn, lay.rkey)
	case *Select:
		for i, pr := range n.Preds {
			if err := reads(ins[0], []string{pr.Attr}, []int{lay.preds[i].i}); err != nil {
				return err
			}
			if pr.RAttr != "" && len(pr.In) == 0 {
				if err := reads(ins[0], []string{pr.RAttr}, []int{lay.preds[i].j}); err != nil {
					return err
				}
			}
		}
	case *Project:
		return reads(ins[0], n.Attrs, lay.key)
	case *GroupBy:
		if err := reads(ins[0], n.Keys, lay.key); err != nil {
			return err
		}
		for i, a := range n.Aggs {
			if !a.Star {
				if err := reads(ins[0], []string{a.Attr}, []int{lay.aggs[i]}); err != nil {
					return err
				}
			}
		}
	case *Distinct, *Union, *Diff:
		return unpruned()
	}
	return nil
}
