package kba

import (
	"fmt"
	"slices"

	"zidian/internal/baav"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/sql"
)

// layout is what an operator derives from its node, its inputs' attribute
// layouts and the BaaV schema — nothing in it depends on a bound value or
// on data, so one layout serves every execution of a compiled plan, from
// any number of goroutines. It is never written after it is built.
type layout struct {
	// attrs is the operator's output attribute layout.
	attrs []string
	// key holds positions in the (left) input: ∝ KeyFrom, ↑ NewKey, ⋈ LOn,
	// π Attrs, γ Keys. Where the operator hashes whole rows — constant and
	// range leaves, δ, − — it is the identity over attrs.
	key []int
	// rkey holds positions in the right input: ⋈ ROn, and for ∪ and − the
	// left side's attributes. For γ it is the identity over the group keys,
	// which lead the shuffled partial states.
	rkey []int
	// width is the number of value attributes per block row (∝, scan): the
	// instance's, whatever the plan reads of them — it is what the fetch is
	// accounted at.
	width int
	// cols lists, ascending, the instance value positions anything above
	// the operator reads (∝, scan); attrs carries those values only. nil
	// reads them all: an instance no pass has narrowed, or one whose every
	// value is read.
	cols []int
	// preds are σ's predicates with their columns resolved; check is their
	// executable form when none of them waits for a parameter.
	preds, check predChecks
	// aggs is, per γ aggregate, its input column (-1 for COUNT(*)); partial
	// is the attribute layout of the partial states γ shuffles.
	aggs    []int
	partial []string
}

// resolved is the per-plan layout slot embedded in every operator node.
// Bind's node copies carry it along.
type resolved struct{ lay *layout }

func (r *resolved) setLayout(l *layout) { r.lay = l }

func (r *resolved) layout() *layout { return r.lay }

// Resolve derives every operator's layout once and stores it on the nodes,
// so executions read index vectors, qualified names and parameter-free
// predicates instead of rebuilding them. It returns the root's output
// attributes. The planner calls it on a finished plan, before the plan is
// shared.
//
// The layouts carry only what the plan reads. Going down from the root,
// whose output is all wanted, each operator adds the attributes it reads
// itself — σ its predicates' columns, ⋈, ∝ and ↑ their keys, γ its keys and
// aggregate inputs, π exactly its list — and asks its inputs for the sum;
// δ, ∪ and − compare whole rows and ask for everything. Coming back up,
// every ∝ and scan keeps of its instance's value attributes the ones that
// were asked for (a fetch always brings the whole block; the others are
// stepped over when it is decoded), and every operator above resolves its
// positions against the narrower rows.
//
// kvs finds the KV schema a ∝ or scan names: a BaaV schema's ByName, or a
// store's KVSchema, which finds its secondary indexes too.
//
// A plan that does not resolve as a whole (an unknown KV schema, an
// attribute its input lacks) is left untouched, returns nil, and reports
// its error when executed, reading every column, as an unresolved plan
// always has.
func Resolve(p Plan, kvs func(name string) *baav.KVSchema) []string {
	var r resolver
	attrs := r.resolve(p, kvs, nil)
	if attrs == nil {
		return nil
	}
	for _, s := range r.done {
		s.node.setLayout(s.lay)
	}
	return attrs
}

// resolver collects the layouts of one Resolve, so that a plan is either
// resolved throughout or not at all.
type resolver struct{ done []nodeLayout }

type nodeLayout struct {
	node interface{ setLayout(*layout) }
	lay  *layout
}

// attrSet is the set of attribute names an operator's consumers read; nil
// stands for all of its output.
type attrSet map[string]bool

// with returns s and names; all of the output plus anything is still all.
func (s attrSet) with(names ...string) attrSet {
	if s == nil {
		return nil
	}
	out := make(attrSet, len(s)+len(names))
	for n := range s {
		out[n] = true
	}
	for _, n := range names {
		out[n] = true
	}
	return out
}

// asks returns what p asks of its inputs when need is asked of p: its own
// reads on top of its consumers', or — for π and γ, whose output is their
// own list — its own reads alone. δ, ∪ and − compare whole rows and ask for
// everything.
func asks(p Plan, need attrSet) (l, r attrSet) {
	switch n := p.(type) {
	case *Extend:
		return need.with(n.KeyFrom...), nil
	case *Shift:
		return need.with(n.NewKey...), nil
	case *Join:
		return need.with(n.LOn...), need.with(n.ROn...)
	case *Select:
		var reads []string
		for _, pr := range n.Preds {
			reads = append(reads, pr.Attr, pr.RAttr)
		}
		return need.with(reads...), nil
	case *Project:
		return attrSet{}.with(n.Attrs...), nil
	case *GroupBy:
		reads := append([]string{}, n.Keys...)
		for _, a := range n.Aggs {
			reads = append(reads, a.Attr)
		}
		return attrSet{}.with(reads...), nil
	default:
		return nil, nil
	}
}

// resolve derives the layouts under p given that p's consumers read need of
// its output, and returns p's output attributes.
func (r *resolver) resolve(p Plan, kvs func(string) *baav.KVSchema, need attrSet) []string {
	if l, ok := p.(*Lit); ok {
		return l.V.Attrs
	}
	var ask [2]attrSet
	ask[0], ask[1] = asks(p, need)
	var ins [2][]string
	for i, c := range p.Children() {
		if ins[i] = r.resolve(c, kvs, ask[i]); ins[i] == nil {
			return nil
		}
	}
	lay, err := deriveLayout(p, kvs, ins[0], ins[1])
	if err != nil {
		return nil
	}
	switch p.(type) {
	case *Extend, *ScanKV:
		lay.keepValues(need)
	}
	r.done = append(r.done, nodeLayout{p.(interface{ setLayout(*layout) }), lay})
	return lay.attrs
}

// kept is how many of the instance's width values a ∝ or scan layout keeps.
func (l *layout) kept() int {
	if l.cols != nil {
		return len(l.cols)
	}
	return l.width
}

// keepValues narrows a ∝ or scan layout, as derived with every value
// attribute of the instance as its last width outputs, to the values named
// in need, less those its input already carries: a ∝ that refines an atom
// through a primary-key instance fetches again attributes of the tuple its
// input row projects.
func (l *layout) keepValues(need attrSet) {
	lead := len(l.attrs) - l.width
	attrs := append([]string{}, l.attrs[:lead]...)
	cols := []int{}
	for i, a := range l.attrs[lead:] {
		if (need == nil || need[a]) && !slices.Contains(attrs[:lead], a) {
			attrs = append(attrs, a)
			cols = append(cols, i)
		}
	}
	if len(cols) < l.width {
		l.attrs, l.cols = attrs, cols
	}
}

// deriveLayout computes one operator's layout from its inputs' attributes
// (l for a single input, l and r for two, neither for a leaf). Checks run
// in the order the operators have always reported them.
func deriveLayout(p Plan, kvs func(string) *baav.KVSchema, l, r []string) (*layout, error) {
	switch n := p.(type) {
	case *Const:
		return &layout{attrs: append([]string{}, n.KeyAttrs...), key: identity(len(n.KeyAttrs))}, nil
	case *IndexRange:
		attrs := append([]string{n.ValAttr}, n.KeyAttrs...)
		return &layout{attrs: attrs, key: identity(len(attrs))}, nil
	case *ScanKV:
		kv := kvs(n.KV)
		if kv == nil {
			return nil, errUnknownKV(n.KV)
		}
		return &layout{attrs: append(qualify(n.Alias, kv.Key), qualify(n.Alias, kv.Val)...), width: len(kv.Val)}, nil
	case *StatsAgg:
		return statsAggLayout(n, kvs)
	case *Extend:
		kv := kvs(n.KV)
		if kv == nil {
			return nil, errUnknownKV(n.KV)
		}
		if len(n.KeyFrom) != len(kv.Key) {
			return nil, fmt.Errorf("kba: extend on %s needs %d key attributes, got %v",
				n.KV, len(kv.Key), n.KeyFrom)
		}
		key, err := positions(l, n.KeyFrom)
		if err != nil {
			return nil, err
		}
		attrs := append(append([]string{}, l...), qualify(n.Alias, kv.Val)...)
		return &layout{attrs: attrs, key: key, width: len(kv.Val)}, nil
	case *Shift:
		key, err := positions(l, n.NewKey)
		if err != nil {
			return nil, err
		}
		return &layout{attrs: l, key: key}, nil
	case *Join:
		if len(n.LOn) != len(n.ROn) {
			return nil, fmt.Errorf("kba: join attribute lists differ in length")
		}
		key, err := positions(l, n.LOn)
		if err != nil {
			return nil, err
		}
		rkey, err := positions(r, n.ROn)
		if err != nil {
			return nil, err
		}
		return &layout{attrs: append(append([]string{}, l...), r...), key: key, rkey: rkey}, nil
	case *Select:
		preds, err := resolvePreds(l, n.Preds)
		if err != nil {
			return nil, err
		}
		lay := &layout{attrs: l, preds: preds}
		for _, p := range n.Preds {
			if p.hasSlots() {
				return lay, nil
			}
		}
		if lay.check, err = bindPreds(n.Preds, preds); err != nil {
			return nil, err
		}
		return lay, nil
	case *Project:
		key, err := positions(l, n.Attrs)
		if err != nil {
			return nil, err
		}
		return &layout{attrs: append([]string{}, n.Attrs...), key: key}, nil
	case *Distinct:
		return &layout{attrs: l, key: identity(len(l))}, nil
	case *Union, *Diff:
		rkey, err := positions(r, l)
		if err != nil {
			return nil, fmt.Errorf("kba: set operation over mismatched attributes: %v", err)
		}
		return &layout{attrs: l, key: identity(len(l)), rkey: rkey}, nil
	case *GroupBy:
		return groupByLayout(n, l)
	default:
		return nil, fmt.Errorf("kba: unknown plan node %T", p)
	}
}

func groupByLayout(n *GroupBy, in []string) (*layout, error) {
	key, err := positions(in, n.Keys)
	if err != nil {
		return nil, err
	}
	lay := &layout{key: key, rkey: identity(len(n.Keys)), aggs: make([]int, len(n.Aggs))}
	for i, a := range n.Aggs {
		if a.Star {
			lay.aggs[i] = -1
			continue
		}
		idx, err := positions(in, []string{a.Attr})
		if err != nil {
			return nil, err
		}
		lay.aggs[i] = idx[0]
	}
	// Partial states travel as flat tuples key ++ state_1 ++ ... ++ state_m.
	lay.partial = append([]string{}, n.Keys...)
	for i := range n.Aggs {
		for j := 0; j < ra.AggStateWidth(); j++ {
			lay.partial = append(lay.partial, fmt.Sprintf("$agg%d.%d", i, j))
		}
	}
	lay.attrs = append(append([]string{}, n.Keys...), AggNames(n.Aggs)...)
	return lay, nil
}

// statsAggLayout is a StatsAgg's layout: key holds the group keys' positions
// in the instance key, ascending, and aggs each aggregate's value position
// (-1 for COUNT(*)); width is the instance's value width.
func statsAggLayout(n *StatsAgg, kvs func(string) *baav.KVSchema) (*layout, error) {
	kv := kvs(n.KV)
	if kv == nil {
		return nil, errUnknownKV(n.KV)
	}
	key, err := positions(qualify(n.Alias, kv.Key), n.Keys)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(key); i++ {
		if key[i] <= key[i-1] {
			return nil, fmt.Errorf("kba: stats aggregate keys %v are not in the key order of %s", n.Keys, n.KV)
		}
	}
	lay := &layout{attrs: append(append([]string{}, n.Keys...), AggNames(n.Aggs)...), key: key,
		aggs: make([]int, len(n.Aggs)), width: len(kv.Val)}
	vals := qualify(n.Alias, kv.Val)
	for i, a := range n.Aggs {
		lay.aggs[i] = -1
		if a.Star {
			continue
		}
		if lay.aggs[i] = slices.Index(vals, a.Attr); lay.aggs[i] < 0 {
			return nil, fmt.Errorf("kba: stats aggregate attribute %q not a value attribute", a.Attr)
		}
	}
	return lay, nil
}

// AggNames lists the output attribute names of the aggregates.
func AggNames(aggs []AggSpec) []string {
	out := make([]string, len(aggs))
	for i, a := range aggs {
		out[i] = a.Name
	}
	return out
}

// positions resolves attribute names to column positions in attrs.
func positions(attrs, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = -1
		for j, a := range attrs {
			if a == n {
				out[i] = j // the last of equal names, as a name → position map resolves them
			}
		}
		if out[i] < 0 {
			return nil, fmt.Errorf("kba: attribute %q not in %v", n, attrs)
		}
	}
	return out, nil
}

// identity returns the positions 0..n-1: "partition by the whole row".
func identity(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// qualify prefixes attribute names with a query alias.
func qualify(alias string, attrs []string) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = alias + "." + a
	}
	return out
}

// predCheck is one predicate over resolved columns: column i against an IN
// set, against column j (j >= 0), or against a literal.
type predCheck struct {
	i, j int
	op   sql.CmpOp
	lit  relation.Value
	set  map[string]bool
}

// predChecks is a conjunction of predicates: resolved (columns only) as
// resolvePreds returns it, executable once bindPreds has added the values.
type predChecks []predCheck

func (cs predChecks) ok(t relation.Tuple) bool {
	for i := range cs {
		c := &cs[i]
		pass := false
		switch {
		case c.set != nil:
			var buf [64]byte
			pass = c.set[string(relation.AppendValue(buf[:0], t[c.i]))]
		case c.j >= 0:
			pass = cmpOK(t[c.i], c.op, t[c.j])
		default:
			pass = cmpOK(t[c.i], c.op, c.lit)
		}
		if !pass {
			return false
		}
	}
	return true
}

// resolvePreds resolves the predicates' attribute names against attrs.
func resolvePreds(attrs []string, preds []Pred) (predChecks, error) {
	col := func(name string) (int, error) {
		idx, err := positions(attrs, []string{name})
		if err != nil {
			return 0, fmt.Errorf("kba: predicate attribute %q not in %v", name, attrs)
		}
		return idx[0], nil
	}
	out := make(predChecks, len(preds))
	for k, p := range preds {
		i, err := col(p.Attr)
		if err != nil {
			return nil, err
		}
		out[k] = predCheck{i: i, j: -1, op: p.Op}
		if p.RAttr != "" && len(p.In) == 0 {
			if out[k].j, err = col(p.RAttr); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// bindPreds returns the resolved predicates with their values in place,
// ready to run. It refuses predicates still waiting for a parameter.
func bindPreds(preds []Pred, resolved predChecks) (predChecks, error) {
	out := append(predChecks{}, resolved...)
	for k, p := range preds {
		switch {
		case p.hasSlots():
			return nil, fmt.Errorf("kba: predicate %s has unbound parameters (call Bind before executing)", p)
		case len(p.In) > 0:
			out[k].set = make(map[string]bool, len(p.In))
			for _, v := range p.In {
				out[k].set[relation.KeyString(relation.Tuple{v})] = true
			}
		case p.RAttr != "":
		case p.Lit != nil:
			out[k].lit = *p.Lit
		default:
			return nil, fmt.Errorf("kba: malformed predicate %v", p)
		}
	}
	return out, nil
}
