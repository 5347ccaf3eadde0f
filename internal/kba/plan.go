// Package kba implements KBA, the paper's extension of relational algebra to
// keyed blocks (Section 4.2): plan nodes for the new operators extension (∝)
// and shift (↑), BaaV versions of the classical operators, and the one
// executor of those plans over BaaV stores — partitioned over p workers with
// the interleaved strategy of Section 7.2, sequential at p = 1 — with
// first-class data-access accounting.
package kba

import (
	"fmt"
	"strings"

	"zidian/internal/relation"
	"zidian/internal/sql"
)

// Plan is a KBA plan node. As in the paper, leaves are either constants
// (constant keyed blocks) or KV instances (ScanKV); Extend's KV schema is a
// parameter of the operator, not a leaf, so plans whose only leaves are
// constants never scan a table.
type Plan interface {
	// Children returns the input plans (parameters like Extend's KV schema
	// are not children).
	Children() []Plan
	String() string
}

// Arg is a bind-time value in a plan template: either a literal known at
// plan time or a slot into the parameter array supplied at Bind time. The
// zero value is a literal NULL; construct with LitArg / SlotArg.
type Arg struct {
	Lit    relation.Value
	Slot   int // 0-based parameter slot, meaningful when IsSlot
	IsSlot bool
}

// LitArg wraps a literal as an Arg.
func LitArg(v relation.Value) Arg { return Arg{Lit: v} }

// SlotArg refers to parameter slot i.
func SlotArg(i int) Arg { return Arg{Slot: i, IsSlot: true} }

// Resolve returns the literal the Arg stands for under the given bindings.
func (a Arg) Resolve(params []relation.Value) (relation.Value, error) {
	if !a.IsSlot {
		return a.Lit, nil
	}
	if a.Slot < 0 || a.Slot >= len(params) {
		return relation.Value{}, fmt.Errorf("kba: parameter slot %d out of range (have %d)", a.Slot, len(params))
	}
	return params[a.Slot], nil
}

// String renders the Arg: the literal, or "?i" for a slot.
func (a Arg) String() string {
	if a.IsSlot {
		return fmt.Sprintf("?%d", a.Slot)
	}
	return a.Lit.String()
}

// Const is a constant keyed-block leaf, e.g. the "GERMANY" seed of the
// paper's Example 3. Val-less constants hold bare key tuples. In a plan
// template, Args carries the seed rows with parameter slots in place of
// bind-time values; Bind materializes them into Keys, and a Const with
// non-empty Args is not executable.
type Const struct {
	KeyAttrs []string
	Keys     []relation.Tuple
	Args     [][]Arg
	resolved
}

// Children implements Plan.
func (c *Const) Children() []Plan { return nil }

// String renders the node.
func (c *Const) String() string {
	parts := make([]string, 0, len(c.Keys)+len(c.Args))
	for _, k := range c.Keys {
		parts = append(parts, k.String())
	}
	for _, row := range c.Args {
		elems := make([]string, len(row))
		for i, a := range row {
			elems[i] = a.String()
		}
		parts = append(parts, "("+strings.Join(elems, ", ")+")")
	}
	return fmt.Sprintf("const[%s=%s]", strings.Join(c.KeyAttrs, ","), strings.Join(parts, "|"))
}

// ScanKV is a KV-instance leaf: a full scan of the named KV instance. Plans
// containing ScanKV are not scan-free.
type ScanKV struct {
	KV    string
	Alias string // query alias that qualifies the fetched attributes
	resolved
}

// Children implements Plan.
func (s *ScanKV) Children() []Plan { return nil }

// String renders the node.
func (s *ScanKV) String() string { return fmt.Sprintf("scan[%s as %s]", s.KV, s.Alias) }

// Extend is the extension operator ∝: it fetches, for every input row, the
// block of the parameter KV instance keyed by the row's KeyFrom attributes,
// and extends the row with the block's value attributes (qualified by
// Alias). It never scans the KV instance.
type Extend struct {
	Input Plan
	// KV names the parameter KV schema ~R⟨X,Y⟩: one of the BaaV schema's,
	// or a secondary index on R.A as R⟨A, K⟩, whose block under a value is
	// the posted block keys K.
	KV string
	// Alias qualifies the fetched Y attributes in the output.
	Alias string
	// KeyFrom lists the input attributes supplying the KV key X, in X's
	// declared order.
	KeyFrom []string
	resolved
}

// Children implements Plan.
func (e *Extend) Children() []Plan { return []Plan{e.Input} }

// String renders the node.
func (e *Extend) String() string {
	return fmt.Sprintf("(%s ∝ %s on %s as %s)", e.Input, e.KV, strings.Join(e.KeyFrom, ","), e.Alias)
}

// IndexRange is the access path for range predicates: it reads the posting
// lists of the index's values between the Lo and Hi bounds — the store's
// directory lists their fragments, and one batched round of gets fetches
// them — and emits one row (value, block key) per posting in the range, in
// (value, key) order. Its output feeds ∝ on a KV schema keyed by the posted
// block keys, so a selective range fetches exactly the blocks it matches
// instead of scanning the instance. An equality lookup needs no leaf of its
// own: it is a ∝ over the index's KV schema R⟨A, K⟩. A range leaf is a seed
// read from the index's data — which values lie in the window is known only
// from what the index holds, not from a constant of the query — so plans
// containing it are not scan-free in the paper's strict sense.
type IndexRange struct {
	// Index names the secondary index.
	Index string
	// Alias is the query alias whose tuples the index locates.
	Alias string
	// ValAttr is the output column carrying the matched value; it uses a
	// synthetic "$idx." name so the later ∝ can re-fetch the real attribute
	// without a column collision.
	ValAttr string
	// KeyAttrs are the alias-qualified output columns of the posted block
	// keys, in the index's declared key order.
	KeyAttrs []string
	// Lo and Hi bound the walk; a nil side is unbounded. In a plan template
	// a bound may be a parameter slot, resolved by Bind; a node whose bound
	// still holds a slot is not executable.
	Lo, Hi *Arg
	// LoIncl and HiIncl select closed (<=) or open (<) ends.
	LoIncl, HiIncl bool
	// Limit, when non-nil, bounds the walk to the first Limit postings in
	// (value, block key) order — the planner pushes a query's LIMIT down
	// here when every walked posting is guaranteed to survive to the
	// output, so the ordered merge stops O(limit) steps in instead of
	// paying for the whole range. Like the bounds it is a bind-time Arg,
	// so a `LIMIT ?` template fixes the plan once and binds per execution.
	Limit *Arg
	resolved
}

// Children implements Plan.
func (r *IndexRange) Children() []Plan { return nil }

// hasSlots reports whether a bound still references a parameter slot.
func (r *IndexRange) hasSlots() bool {
	return (r.Lo != nil && r.Lo.IsSlot) || (r.Hi != nil && r.Hi.IsSlot) ||
		(r.Limit != nil && r.Limit.IsSlot)
}

// String renders the node with interval notation: closed/open brackets for
// inclusive/exclusive bounds, -∞/+∞ for unbounded sides.
func (r *IndexRange) String() string {
	lo, lob := "-∞", "("
	if r.Lo != nil {
		lo = r.Lo.String()
		if r.LoIncl {
			lob = "["
		}
	}
	hi, hib := "+∞", ")"
	if r.Hi != nil {
		hi = r.Hi.String()
		if r.HiIncl {
			hib = "]"
		}
	}
	limit := ""
	if r.Limit != nil {
		limit = " limit " + r.Limit.String()
	}
	return fmt.Sprintf("IndexRange[%s∈%s%s, %s%s%s as %s]", r.Index, lob, lo, hi, hib, limit, r.Alias)
}

// Shift is the shift operator ↑: it re-keys the input instance on NewKey.
type Shift struct {
	Input  Plan
	NewKey []string
	resolved
}

// Children implements Plan.
func (s *Shift) Children() []Plan { return []Plan{s.Input} }

// String renders the node.
func (s *Shift) String() string {
	return fmt.Sprintf("(%s ↑ %s)", s.Input, strings.Join(s.NewKey, ","))
}

// Join is the BaaV equi-join: it joins the flattened inputs on the paired
// attribute lists (LOn[i] = ROn[i]) and keys the output by the left join
// attributes.
type Join struct {
	L, R Plan
	LOn  []string
	ROn  []string
	resolved
}

// Children implements Plan.
func (j *Join) Children() []Plan { return []Plan{j.L, j.R} }

// String renders the node.
func (j *Join) String() string {
	pairs := make([]string, len(j.LOn))
	for i := range j.LOn {
		pairs[i] = j.LOn[i] + "=" + j.ROn[i]
	}
	return fmt.Sprintf("(%s ⋈[%s] %s)", j.L, strings.Join(pairs, ","), j.R)
}

// Pred is a selection predicate over qualified attribute names. In a plan
// template the comparison value may be a parameter slot (Param) and an IN
// list may carry unresolved slots (InSlots); Bind resolves both, and
// CompilePreds refuses predicates still holding slots.
type Pred struct {
	Attr    string
	Op      sql.CmpOp
	Lit     *relation.Value
	Param   *int   // parameter slot for the RHS
	RAttr   string // attribute-attribute comparison when non-empty
	In      []relation.Value
	InSlots []int // parameter slots appended to In at bind time
}

// hasSlots reports whether the predicate still references parameter slots.
func (p Pred) hasSlots() bool { return p.Param != nil || len(p.InSlots) > 0 }

// String renders the predicate.
func (p Pred) String() string {
	switch {
	case len(p.In)+len(p.InSlots) > 0:
		return fmt.Sprintf("%s IN(%d)", p.Attr, len(p.In)+len(p.InSlots))
	case p.RAttr != "":
		return fmt.Sprintf("%s%s%s", p.Attr, p.Op, p.RAttr)
	case p.Param != nil:
		return fmt.Sprintf("%s%s?%d", p.Attr, p.Op, *p.Param)
	default:
		return fmt.Sprintf("%s%s%s", p.Attr, p.Op, p.Lit)
	}
}

// Select filters rows by a conjunction of predicates.
type Select struct {
	Input Plan
	Preds []Pred
	resolved
}

// Children implements Plan.
func (s *Select) Children() []Plan { return []Plan{s.Input} }

// String renders the node.
func (s *Select) String() string {
	parts := make([]string, len(s.Preds))
	for i, p := range s.Preds {
		parts[i] = p.String()
	}
	return fmt.Sprintf("σ[%s](%s)", strings.Join(parts, "∧"), s.Input)
}

// Project keeps only the named attributes (duplicates collapse to one
// column). The output is keyed by the kept input-key attributes.
type Project struct {
	Input Plan
	Attrs []string
	resolved
}

// Children implements Plan.
func (p *Project) Children() []Plan { return []Plan{p.Input} }

// String renders the node.
func (p *Project) String() string {
	return fmt.Sprintf("π[%s](%s)", strings.Join(p.Attrs, ","), p.Input)
}

// Union is set union of two instances over identical attribute sets (↑ is
// applied implicitly to align keys).
type Union struct {
	L, R Plan
	resolved
}

// Children implements Plan.
func (u *Union) Children() []Plan { return []Plan{u.L, u.R} }

// String renders the node.
func (u *Union) String() string { return fmt.Sprintf("(%s ∪ %s)", u.L, u.R) }

// Diff is set difference L − R over identical attribute sets.
type Diff struct {
	L, R Plan
	resolved
}

// Children implements Plan.
func (d *Diff) Children() []Plan { return []Plan{d.L, d.R} }

// String renders the node.
func (d *Diff) String() string { return fmt.Sprintf("(%s − %s)", d.L, d.R) }

// AggSpec is one aggregate output of GroupBy.
type AggSpec struct {
	Func sql.AggFunc
	Attr string // input attribute; empty for COUNT(*)
	Star bool
	Name string // output attribute name
}

// GroupBy groups the flattened input by Keys and computes the aggregates;
// the output is keyed by Keys with one row per group.
type GroupBy struct {
	Input Plan
	Keys  []string
	Aggs  []AggSpec
	resolved
}

// Children implements Plan.
func (g *GroupBy) Children() []Plan { return []Plan{g.Input} }

// String renders the node.
func (g *GroupBy) String() string {
	parts := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		parts[i] = a.Name
	}
	return fmt.Sprintf("γ[%s; %s](%s)", strings.Join(g.Keys, ","), strings.Join(parts, ","), g.Input)
}

// StatsAgg computes a GroupBy directly from per-block statistics of a whole
// KV instance, reading only block headers (the Section 8.2 statistics
// feature). It groups by some of the instance's key attributes — every block
// falls in one group — and aggregates the instance's value attributes with
// COUNT/SUM/MIN/MAX/AVG.
type StatsAgg struct {
	KV    string
	Alias string
	// Keys are the group keys: alias-qualified key attributes of KV, in the
	// key's own order.
	Keys []string
	Aggs []AggSpec
	resolved
}

// Children implements Plan.
func (s *StatsAgg) Children() []Plan { return nil }

// String renders the node.
func (s *StatsAgg) String() string {
	return fmt.Sprintf("γstats[%s](%s as %s)", statsLabel(s), s.KV, s.Alias)
}

// statsLabel renders a StatsAgg's group keys and aggregates as γ's label.
func statsLabel(s *StatsAgg) string {
	return fmt.Sprintf("%s; %s", strings.Join(s.Keys, ","), strings.Join(AggNames(s.Aggs), ","))
}

// Distinct removes duplicate flattened rows.
type Distinct struct {
	Input Plan
	resolved
}

// Children implements Plan.
func (d *Distinct) Children() []Plan { return []Plan{d.Input} }

// String renders the node.
func (d *Distinct) String() string { return fmt.Sprintf("δ(%s)", d.Input) }

// IsScanFree reports whether the plan is scan-free over its BaaV schema:
// every leaf is a constant (Section 4.2). Extend parameters do not count as
// leaves. An IndexRange leaf reads by key, but its seed — the values in
// its window — comes from the index's data, not from a constant of the
// query, so plans containing one are not scan-free.
func IsScanFree(p Plan) bool {
	switch p.(type) {
	case *ScanKV, *StatsAgg, *IndexRange:
		return false
	}
	for _, c := range p.Children() {
		if !IsScanFree(c) {
			return false
		}
	}
	return true
}

// CollectScans returns the KV instance names scanned by the plan.
func CollectScans(p Plan) []string {
	var out []string
	switch n := p.(type) {
	case *ScanKV:
		out = append(out, n.KV)
	case *StatsAgg:
		out = append(out, n.KV)
	}
	for _, c := range p.Children() {
		out = append(out, CollectScans(c)...)
	}
	return out
}
