package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"zidian/internal/baav"
	"zidian/internal/kba"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/sql"
)

// ErrNotAnswerable reports that the BaaV schema cannot answer the query
// (Condition (II) fails, or no single KV schema covers a fallback scan).
// Module M1 then routes the query to the underlying SQL-over-NoSQL system.
var ErrNotAnswerable = errors.New("core: query cannot be answered over the BaaV schema")

// PlanInfo is a generated KBA plan plus the metadata the executor and the
// experiment harness need.
type PlanInfo struct {
	Query *ra.Query
	// Root is the KBA plan; nil when Empty.
	Root kba.Plan
	// Empty marks statically unsatisfiable queries (conflicting constants).
	Empty bool
	// ScanFree reports whether Root scans no KV instance.
	ScanFree bool
	// Extends and Scans list the KV instances accessed by ∝ — secondary
	// indexes among them, for equality lookups — and by scans; Ranges lists
	// the indexes read by IndexRange leaves (the posting fragments of a
	// value window, serving range predicates).
	Extends []string
	Scans   []string
	Ranges  []string
	// Relations lists the base relations the query reads, sorted and
	// deduplicated. Every KV instance, index posting, and statistic the
	// plan touches belongs to one of them, so a serving layer that holds
	// these relations' read locks (and a writer that holds its target
	// relation's write lock) schedules statements without inspecting the
	// plan tree.
	Relations []string
	// OutCols names, per output column of the query, the plan column that
	// carries it (parallel to Query.OutNames).
	OutCols []string
	// UsedStats marks plans answered from per-block statistics headers
	// without decoding tuples (the Section 8.2 aggregate pushdown).
	UsedStats bool
	// NumParams counts the `?` placeholders of the source query. When
	// non-zero, Root is a plan template: compiled once, then executed many
	// times by calling Bind with a fresh parameter list — no re-parse,
	// re-check or re-plan per execution.
	NumParams int
	// ParamKinds records the expected relation.Kind per parameter slot
	// (from the column each placeholder compares with); Bind validates and
	// coerces supplied values against it.
	ParamKinds []relation.Kind
	// shape is the result shape over Root's output, derived once by Plan;
	// nil for a PlanInfo assembled by hand, which ToResult resolves per call.
	shape *resultShape
}

// Bounded reports whether the plan is bounded on the store (Section 6.1's
// corollary): scan-free with every extended instance's degree at most
// maxDeg. An index's degree is its longest posting list.
func (p *PlanInfo) Bounded(store *baav.Store, maxDeg int) bool {
	if p.Empty {
		return true
	}
	if !p.ScanFree {
		return false
	}
	for _, name := range p.Extends {
		if store.Degree(name) > maxDeg {
			return false
		}
	}
	return true
}

// frag is a partial plan during generation: the plan so far, its attribute
// layout, and the column materializing each equality class.
type frag struct {
	plan  kba.Plan
	attrs []string
	cols  map[ra.ColRef]string // class root -> column name
	// scanBased marks fragments containing a KV-instance scan; probing
	// another instance from such a fragment costs one get per distinct
	// key, which the planner trades off against scanning it.
	scanBased bool
	// rowEst is a rough upper bound on the fragment's row count, used for
	// the scan-vs-probe decision. Zero means unknown/small.
	rowEst int
}

func (f *frag) has(name string) bool {
	for _, a := range f.attrs {
		if a == name {
			return true
		}
	}
	return false
}

// Plan generates a KBA plan for the query over the checker's BaaV schema,
// following the chase-based algorithm of Section 6.2: constant seeds grow
// into chains of ∝ steps (scan-free atoms), uncovered atoms fall back to
// KV-instance scans, fragments join on shared equality classes, and residual
// predicates, projection and aggregation finish the plan.
func (c *Checker) Plan(q *ra.Query) (*PlanInfo, error) {
	info, err := c.plan(q)
	if info != nil {
		info.Relations = queryRelations(q)
		if info.Root != nil {
			// Everything an execution would derive from the plan and the
			// schema alone is derived here, once. A plan that does not
			// resolve keeps reporting its error when it runs.
			info.shape, _ = info.shapeOver(kba.Resolve(info.Root, c.KVSchema))
		}
	}
	return info, err
}

// queryRelations lists the base relations a query's atoms reference, sorted
// and deduplicated — the lock set a serving layer schedules the plan with.
func queryRelations(q *ra.Query) []string {
	seen := make(map[string]bool, len(q.Atoms))
	var out []string
	for _, atom := range q.Atoms {
		if !seen[atom.Rel] {
			seen[atom.Rel] = true
			out = append(out, atom.Rel)
		}
	}
	sort.Strings(out)
	return out
}

func (c *Checker) plan(q *ra.Query) (*PlanInfo, error) {
	eq := ra.BuildEqClasses(q)
	if eq.Unsat {
		return &PlanInfo{Query: q, Empty: true, ScanFree: true,
			NumParams: q.NumParams, ParamKinds: q.ParamKinds}, nil
	}
	p := &planner{
		c: c, q: q, eq: eq,
		atomFrag: make(map[string]*frag),
		applied:  make(map[string]bool),
		indexed:  make(map[string]bool),
	}
	return p.run()
}

type planner struct {
	c  *Checker
	q  *ra.Query
	eq *ra.EqClasses

	frags   []*frag
	extends []string
	scans   []string
	ranges  []string

	// sfAtom marks atoms that the GET/VC chase proves reachable scan-free;
	// only those may be assembled from several partial ∝ steps.
	sfAtom map[string]bool
	// atomFrag tracks which fragment an atom has been fetched into.
	atomFrag map[string]*frag
	// applied guards against re-applying the same (atom, schema) extend.
	applied map[string]bool
	// indexed marks atoms already reached through an index, so the access
	// path is tried at most once per atom.
	indexed map[string]bool

	// rangeNode is the IndexRange leaf applyIndex seeded (at most one per
	// plan: only single-atom plans push limits), with the alias/attribute
	// it ranges over; rangeExact reports that the walk's fences enforce
	// exactly the query's recognized range conjuncts, so the residual
	// selection cannot drop a walked posting. The LIMIT pushdown needs all
	// three.
	rangeNode  *kba.IndexRange
	rangeAlias string
	rangeAttr  string
	rangeExact bool
}

// recordRange captures the IndexRange leaf for the LIMIT pushdown and
// decides exactness: the walk is exact when no written fence was dropped by
// kind alignment (a dropped fence widens the walk and leaves the residual
// selection doing real filtering) and no side mixes a parameter slot into
// multiple conjuncts. Literal-only sides always tighten to the strictest
// bound, so every conjunct is implied by the walk; but the merge cannot
// compare a slot, so with more than one conjunct on a slot-carrying side an
// unenforced — possibly stricter — bound stays residual, and stopping the
// walk at the limit could discard rows the stricter bound admits later.
func (p *planner) recordRange(node *kba.IndexRange, alias, attr string, rawLo, rawHi, lo, hi *rangeBound) {
	exact := !(rawLo != nil && lo == nil) && !(rawHi != nil && hi == nil)
	if exact {
		nLo, nHi := 0, 0
		slotLo, slotHi := false, false
		for i := range p.q.Filters {
			f := &p.q.Filters[i]
			if f.Col.Alias != alias || f.Col.Attr != attr || f.RCol != nil {
				continue
			}
			if f.Param == nil && f.Lit == nil {
				continue
			}
			switch f.Op {
			case sql.OpGt, sql.OpGe:
				nLo++
				slotLo = slotLo || f.Param != nil
			case sql.OpLt, sql.OpLe:
				nHi++
				slotHi = slotHi || f.Param != nil
			}
		}
		exact = !(slotLo && nLo > 1) && !(slotHi && nHi > 1)
	}
	p.rangeNode, p.rangeAlias, p.rangeAttr, p.rangeExact = node, alias, attr, exact
}

// pushRangeLimit pushes the query's LIMIT into the IndexRange leaf when
// every walked posting is guaranteed to reach the output row-for-row: a
// single-atom plan whose only access is the range walk plus its pk-keyed ∝
// (each posting fetches exactly its own block), no aggregation, DISTINCT,
// or ORDER BY to reshape the row set, and no predicate beyond the range
// conjuncts the walk's fences already enforce. The walk then stops O(k)
// posting lists in instead of merging the whole range; ToResult's trim
// stays as the final authority on the row count.
func (p *planner) pushRangeLimit() {
	q := p.q
	if p.rangeNode == nil || !p.rangeExact {
		return
	}
	if q.Limit < 0 && q.LimitParam == nil {
		return
	}
	if len(q.Atoms) != 1 || q.IsAggregate() || q.Distinct || len(q.OrderBy) > 0 {
		return
	}
	if len(p.scans) > 0 || len(p.extends) != 1 {
		return
	}
	if len(q.EqConsts)+len(q.EqParams)+len(q.Ins)+len(q.EqAttrs) > 0 {
		return
	}
	for i := range q.Filters {
		f := &q.Filters[i]
		if f.Col.Alias != p.rangeAlias || f.Col.Attr != p.rangeAttr || f.RCol != nil {
			return
		}
		switch f.Op {
		case sql.OpGt, sql.OpGe, sql.OpLt, sql.OpLe:
		default:
			return
		}
	}
	var a kba.Arg
	if q.LimitParam != nil {
		a = kba.SlotArg(*q.LimitParam)
	} else {
		a = kba.LitArg(relation.Int(int64(q.Limit)))
	}
	p.rangeNode.Limit = &a
}

func (p *planner) run() (*PlanInfo, error) {
	if info, ok := p.tryStatsAgg(); ok {
		return info, nil
	}
	// The GET/VC chase only serves the ∝ plans below: a statistics
	// aggregate reads neither.
	get := p.c.GetSet(p.q, p.eq)
	p.sfAtom = make(map[string]bool, len(p.q.Atoms))
	for _, atom := range p.q.Atoms {
		p.sfAtom[atom.Alias] = p.c.atomScanFree(p.q, p.eq, get, atom)
	}
	if seed, err := p.buildSeed(); err != nil {
		return nil, err
	} else if seed != nil {
		p.frags = append(p.frags, seed)
	} else if p.seedEmpty() {
		return &PlanInfo{Query: p.q, Empty: true, ScanFree: true,
			NumParams: p.q.NumParams, ParamKinds: p.q.ParamKinds}, nil
	}

	if err := p.coverAtoms(); err != nil {
		return nil, err
	}
	f, err := p.mergeFrags()
	if err != nil {
		return nil, err
	}
	if err := p.residualSelect(f); err != nil {
		return nil, err
	}
	outCols, err := p.tail(f)
	if err != nil {
		return nil, err
	}
	p.pushRangeLimit()
	info := &PlanInfo{
		Query:      p.q,
		Root:       f.plan,
		ScanFree:   kba.IsScanFree(f.plan),
		Extends:    p.extends,
		Scans:      p.scans,
		Ranges:     p.ranges,
		OutCols:    outCols,
		NumParams:  p.q.NumParams,
		ParamKinds: p.q.ParamKinds,
	}
	return info, nil
}

// tryStatsAgg recognizes grouped aggregates that per-block statistics can
// answer without decoding a tuple (Section 8.2): a single atom, no
// predicates, group keys among a KV schema's key attributes — all of them or
// a subset, so every block falls in one group — and COUNT/SUM/MIN/MAX/AVG
// over its numeric value attributes. Of the schemas that qualify it walks
// the one with the fewest blocks.
func (p *planner) tryStatsAgg() (*PlanInfo, bool) {
	q := p.q
	if p.c.Stats == nil || !p.c.Stats.HasBlockStats() {
		return nil, false
	}
	if len(q.Atoms) != 1 || !q.IsAggregate() || len(q.Proj) == 0 {
		return nil, false
	}
	if len(q.EqAttrs)+len(q.EqConsts)+len(q.EqParams)+len(q.Ins)+len(q.Filters) > 0 {
		return nil, false
	}
	atom := q.Atoms[0]
	var best *baav.KVSchema
	for _, s := range p.c.Schema.ForRelation(atom.Rel) {
		if p.statsAnswer(s) && (best == nil || p.c.Stats.InstanceBlocks(s.Name) < p.c.Stats.InstanceBlocks(best.Name)) {
			best = &s
		}
	}
	if best == nil {
		return nil, false
	}
	grouped := make(map[string]bool, len(q.Proj))
	outCols := make([]string, 0, len(q.Proj)+len(q.Aggs))
	for _, ref := range q.Proj {
		grouped[ref.Attr] = true
		outCols = append(outCols, ref.String())
	}
	var keys []string
	for _, k := range best.Key {
		if grouped[k] {
			keys = append(keys, atom.Alias+"."+k)
		}
	}
	specs := make([]kba.AggSpec, len(q.Aggs))
	for i, a := range q.Aggs {
		specs[i] = kba.AggSpec{Func: a.Func, Star: a.Star, Name: a.Name}
		if !a.Star {
			specs[i].Attr = atom.Alias + "." + a.Col.Attr
		}
		outCols = append(outCols, a.Name)
	}
	return &PlanInfo{
		Query:      q,
		Root:       &kba.StatsAgg{KV: best.Name, Alias: atom.Alias, Keys: keys, Aggs: specs},
		ScanFree:   false, // header scans are still scans
		Scans:      []string{best.Name},
		OutCols:    outCols,
		UsedStats:  true,
		NumParams:  q.NumParams,
		ParamKinds: q.ParamKinds,
	}, true
}

// statsAnswer reports whether schema s's statistics answer the single-atom
// aggregate query: every group key is a key attribute of s and every
// aggregate is COUNT(*) or over a numeric value attribute of s.
func (p *planner) statsAnswer(s baav.KVSchema) bool {
	for _, ref := range p.q.Proj {
		if !slices.Contains(s.Key, ref.Attr) {
			return false
		}
	}
	rel := p.c.Rels[p.q.Atoms[0].Rel]
	for _, a := range p.q.Aggs {
		if a.Star {
			continue
		}
		kind := relation.KindNull
		if j := rel.Index(a.Col.Attr); j >= 0 {
			kind = rel.Attrs[j].Kind
		}
		if !slices.Contains(s.Val, a.Col.Attr) || (kind != relation.KindInt && kind != relation.KindFloat) {
			return false
		}
	}
	return true
}

// seedValues collects, per pinned equality class, the candidate bind-time
// args: literal constants (intersected with literal-only IN lists, as
// before) and parameter slots whose values arrive at Bind time. The
// template's shape — how many candidates pin each class — is all the
// planner needs for its access-path decisions; the concrete values are
// irrelevant until execution. The bool result is false when some class has
// a statically empty candidate set (unsatisfiable); classes pinned only
// through parameters are never statically empty. IN lists containing
// parameter slots cannot be intersected at plan time, so they seed only
// classes nothing else pins and are re-checked by the residual select.
func (p *planner) seedValues() (map[ra.ColRef][]kba.Arg, bool) {
	lits := make(map[ra.ColRef][]relation.Value)
	for _, ce := range p.eq.ConstCols() {
		root := p.eq.Find(ce.Col)
		if _, ok := lits[root]; !ok {
			lits[root] = []relation.Value{ce.Val}
		}
	}
	for _, in := range p.q.Ins {
		if len(in.Slots) > 0 {
			continue
		}
		root := p.eq.Find(in.Col)
		if prev, ok := lits[root]; ok {
			var kept []relation.Value
			for _, v := range prev {
				for _, w := range in.Vals {
					if relation.Equal(v, w) {
						kept = append(kept, v)
						break
					}
				}
			}
			lits[root] = kept
		} else {
			lits[root] = dedupeVals(in.Vals)
		}
	}
	for _, vs := range lits {
		if len(vs) == 0 {
			return nil, false
		}
	}
	vals := make(map[ra.ColRef][]kba.Arg, len(lits))
	for root, vs := range lits {
		args := make([]kba.Arg, len(vs))
		for i, v := range vs {
			args[i] = kba.LitArg(v)
		}
		vals[root] = args
	}
	// Parameter pins seed classes not already pinned by literals; when a
	// class has both, the literal seeds and the residual select enforces the
	// parameter equality at execution time.
	for _, pe := range p.q.EqParams {
		root := p.eq.Find(pe.Col)
		if _, ok := vals[root]; !ok {
			vals[root] = []kba.Arg{kba.SlotArg(pe.Slot)}
		}
	}
	for _, in := range p.q.Ins {
		if len(in.Slots) == 0 {
			continue
		}
		root := p.eq.Find(in.Col)
		if _, ok := vals[root]; ok {
			continue
		}
		var args []kba.Arg
		for _, v := range dedupeVals(in.Vals) {
			args = append(args, kba.LitArg(v))
		}
		for _, slot := range in.Slots {
			args = append(args, kba.SlotArg(slot))
		}
		vals[root] = args
	}
	return vals, true
}

// dedupeVals removes duplicate values, preserving first-seen order: an IN
// list with repeated elements must seed each candidate once.
func dedupeVals(vs []relation.Value) []relation.Value {
	seen := make(map[string]bool, len(vs))
	out := make([]relation.Value, 0, len(vs))
	for _, v := range vs {
		k := relation.KeyString(relation.Tuple{v})
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

func (p *planner) seedEmpty() bool {
	_, ok := p.seedValues()
	return !ok
}

// buildSeed materializes all pinned classes as one Const fragment, taking
// the cross product of the per-class candidate args. Seed columns use
// synthetic "$const." names so they never collide with fetched "alias.attr"
// columns. A seed with only literal args materializes its key tuples at
// plan time, exactly as before; a seed touched by a parameter slot becomes
// a template leaf (Const.Args) whose keys Bind materializes per execution —
// the cross-product structure, and hence the plan shape, is fixed at plan
// time either way.
func (p *planner) buildSeed() (*frag, error) {
	vals, ok := p.seedValues()
	if !ok {
		return nil, nil
	}
	if len(vals) == 0 {
		return nil, nil
	}
	roots := make([]ra.ColRef, 0, len(vals))
	for r := range vals {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].String() < roots[j].String() })

	f := &frag{cols: make(map[ra.ColRef]string)}
	rows := [][]kba.Arg{{}}
	hasSlot := false
	for _, r := range roots {
		name := "$const." + r.String()
		f.attrs = append(f.attrs, name)
		f.cols[r] = name
		var next [][]kba.Arg
		for _, base := range rows {
			for _, a := range vals[r] {
				if a.IsSlot {
					hasSlot = true
				}
				row := make([]kba.Arg, len(base)+1)
				copy(row, base)
				row[len(base)] = a
				next = append(next, row)
			}
		}
		rows = next
		if len(rows) > 10000 {
			return nil, fmt.Errorf("core: constant seed cross product too large")
		}
	}
	c := &kba.Const{KeyAttrs: append([]string{}, f.attrs...)}
	if hasSlot {
		c.Args = rows
	} else {
		keys := make([]relation.Tuple, len(rows))
		for i, row := range rows {
			t := make(relation.Tuple, len(row))
			for j, a := range row {
				t[j] = a.Lit
			}
			keys[i] = t
		}
		c.Keys = keys
	}
	f.plan = c
	return f, nil
}

// coverAtoms covers every atom, preferring scan-free anchor extends and
// falling back to instance scans. An atom is covered once it has been
// fetched at least once and all its used attributes are materialized.
func (p *planner) coverAtoms() error {
	covered := func(alias string) bool {
		f := p.atomFrag[alias]
		if f == nil {
			return false
		}
		for _, attr := range p.q.AttrsUsed(alias) {
			ref := ra.ColRef{Alias: alias, Attr: attr}
			if !f.has(ref.String()) {
				if _, ok := f.cols[p.eq.Find(ref)]; !ok {
					return false
				}
			}
		}
		return true
	}
	allCovered := func() bool {
		for _, atom := range p.q.Atoms {
			if !covered(atom.Alias) {
				return false
			}
		}
		return true
	}
	for !allCovered() {
		// Full-cover anchors first (the single-step chase of Example 7),
		// then partial pk-refining anchors, then merges, then index
		// steps, then scans.
		if p.applyAnchor(covered, true) || p.applyAnchor(covered, false) {
			continue
		}
		if p.mergeOnce(true) {
			continue
		}
		if p.applyIndex(covered) {
			continue
		}
		if err := p.applyScan(covered); err != nil {
			return err
		}
	}
	return nil
}

// applyIndex is the secondary-index access path: when a not-yet-fetched
// atom has a used attribute covered by a secondary index on R.A and pinned
// by the query, reach the block keys of exactly the matching tuples — for
// an equality pin, a ∝ over the index's KV schema R⟨A, K⟩ from the fragment
// holding the pinned class (the constant seed); for range conjuncts, an
// IndexRange read of the posting lists in the value window, seeding a
// fragment of its own — so the ordinary anchor step then fetches those
// blocks through the primary-key KV schema instead of scanning the
// instance. The equality pass runs over every atom before the range pass,
// and an equality-pinned attribute belongs to the lookup. A step is taken
// only when a full-covering pk-keyed schema exists for the subsequent ∝ and
// indexBeatsScan favours it. Values and bounds may be parameter slots, so
// an `= ?` or `BETWEEN ? AND ?` template fixes the access path once and
// binds per execution.
func (p *planner) applyIndex(covered func(string) bool) bool {
	if p.c.Indexes == nil {
		return false
	}
	vals, ok := p.seedValues()
	if !ok {
		return false // statically empty seed; run() bails out earlier
	}
	for _, ranged := range [2]bool{false, true} {
		if !ranged && len(vals) == 0 {
			continue // nothing pinned to look up
		}
		for _, atom := range p.q.Atoms {
			if covered(atom.Alias) || p.atomFrag[atom.Alias] != nil || p.indexed[atom.Alias] {
				continue
			}
			ixs := p.c.Indexes.OnRelation(atom.Rel)
			used := p.q.AttrsUsed(atom.Alias)
			for _, attr := range used {
				root := p.eq.Find(ra.ColRef{Alias: atom.Alias, Attr: attr})
				vs := vals[root]
				var rawLo, rawHi, lo, hi *rangeBound
				if ranged {
					if len(vs) > 0 {
						continue
					}
					rawLo, rawHi = p.rangeConjuncts(atom.Alias, attr)
					kind := relation.KindNull
					if rel, ok := p.c.Rels[atom.Rel]; ok {
						if i := rel.Index(attr); i >= 0 {
							kind = rel.Attrs[i].Kind
						}
					}
					lo, hi = alignRangeBound(rawLo, kind, true), alignRangeBound(rawHi, kind, false)
					if lo == nil && hi == nil {
						continue
					}
				} else if len(vs) == 0 {
					continue
				}
				at := slices.IndexFunc(ixs, func(s baav.KVSchema) bool { return s.Key[0] == attr })
				// The index only pays off if a KV schema keyed exactly by
				// the posted block keys covers the atom, so one ∝ completes
				// it.
				if at < 0 || !p.hasIndexAnchor(atom, ixs[at].Val, used) {
					continue
				}
				name, key := ixs[at].Name, ixs[at].Val
				entries, postings := p.c.Indexes.Shape(name)
				avg := 1
				if entries > 0 {
					avg = max(postings/entries, 1)
				}
				lists := len(vs)
				if ranged {
					lists = p.rangeLists(name, entries, lo, hi)
				}
				if !p.indexBeatsScan(atom, used, lists, avg) {
					continue
				}
				keyAttrs := make([]string, len(key))
				for i, k := range key {
					keyAttrs[i] = atom.Alias + "." + k
				}
				var f *frag
				if ranged {
					node := &kba.IndexRange{Index: name, Alias: atom.Alias,
						ValAttr: "$idx." + atom.Alias + "." + attr, KeyAttrs: keyAttrs}
					if lo != nil {
						a := lo.arg
						node.Lo, node.LoIncl = &a, lo.incl
					}
					if hi != nil {
						a := hi.arg
						node.Hi, node.HiIncl = &a, hi.incl
					}
					f = &frag{plan: node, attrs: append([]string{node.ValAttr}, keyAttrs...),
						cols: map[ra.ColRef]string{root: node.ValAttr}}
					p.frags = append(p.frags, f)
					p.ranges = append(p.ranges, name)
					p.recordRange(node, atom.Alias, attr, rawLo, rawHi, lo, hi)
				} else {
					var keyFrom []string
					if f, keyFrom = p.findKeyFragment(atom.Alias, []string{attr}); f == nil {
						continue
					}
					f.plan = &kba.Extend{Input: f.plan, KV: name, Alias: atom.Alias, KeyFrom: keyFrom}
					f.attrs = append(f.attrs, keyAttrs...)
					p.extends = append(p.extends, name)
				}
				f.rowEst = max(f.rowEst, lists*avg)
				for i, k := range key {
					kroot := p.eq.Find(ra.ColRef{Alias: atom.Alias, Attr: k})
					if _, ok := f.cols[kroot]; !ok {
						f.cols[kroot] = keyAttrs[i]
					}
				}
				p.indexed[atom.Alias] = true
				return true
			}
		}
	}
	return false
}

// hasIndexAnchor reports whether a KV schema of the atom's relation is
// keyed exactly by the posted block-key attributes and covers the atom's
// used attributes — the ∝ target that turns index postings into the atom's
// tuples.
func (p *planner) hasIndexAnchor(atom ra.Atom, key []string, used []string) bool {
	keySet := make(map[string]bool, len(key))
	for _, k := range key {
		keySet[k] = true
	}
	for _, s := range p.c.Schema.ForRelation(atom.Rel) {
		if len(s.Key) != len(keySet) {
			continue
		}
		exact := true
		for _, k := range s.Key {
			if !keySet[k] {
				exact = false
				break
			}
		}
		if exact && covers(s, used) {
			return true
		}
	}
	return false
}

// indexBeatsScan compares an index path over lists posting lists of avg
// block keys each — one posting read per list plus one block get per
// posted key — against scanning the smallest KV instance covering the
// atom's used attributes, with the same 4× ratio as extendBeatsScan.
// Without statistics, or with nothing to scan, the index wins, matching the
// chase's default preference for gets.
func (p *planner) indexBeatsScan(atom ra.Atom, used []string, lists, avg int) bool {
	if p.c.Stats == nil {
		return true
	}
	blocks := 0
	for _, s := range p.c.Schema.ForRelation(atom.Rel) {
		if !covers(s, used) {
			continue
		}
		if b := p.c.Stats.InstanceBlocks(s.Name); blocks == 0 || b < blocks {
			blocks = b
		}
	}
	return blocks <= 0 || blocks > 4*lists*(1+avg)
}

// rangeBound is one side of a recognized range predicate, as a bind-time
// Arg: a literal bound known at plan time, or a parameter slot resolved at
// Bind time (so `attr BETWEEN ? AND ?` and `attr > ?` share one template).
type rangeBound struct {
	arg  kba.Arg
	incl bool
}

// tightenLo keeps the stricter of two lower bounds when both are literals;
// with a parameter slot on either side the first recognized bound wins and
// the residual selection enforces the rest.
func tightenLo(prev, next *rangeBound) *rangeBound {
	if prev == nil {
		return next
	}
	if !prev.arg.IsSlot && !next.arg.IsSlot {
		c := relation.Compare(next.arg.Lit, prev.arg.Lit)
		if c > 0 || (c == 0 && !next.incl) {
			return next
		}
	}
	return prev
}

// tightenHi is tightenLo for upper bounds.
func tightenHi(prev, next *rangeBound) *rangeBound {
	if prev == nil {
		return next
	}
	if !prev.arg.IsSlot && !next.arg.IsSlot {
		c := relation.Compare(next.arg.Lit, prev.arg.Lit)
		if c < 0 || (c == 0 && !next.incl) {
			return next
		}
	}
	return prev
}

// rangeConjuncts collects the query's one-sided range filters on the atom
// attribute — col > v, col >= v, col < v, col <= v with a literal or `?`
// RHS (BETWEEN desugars into the >=/<= pair at parse time) — merged into at
// most one lower and one upper bound.
func (p *planner) rangeConjuncts(alias, attr string) (lo, hi *rangeBound) {
	for i := range p.q.Filters {
		f := &p.q.Filters[i]
		if f.Col.Alias != alias || f.Col.Attr != attr || f.RCol != nil {
			continue
		}
		var arg kba.Arg
		switch {
		case f.Param != nil:
			arg = kba.SlotArg(*f.Param)
		case f.Lit != nil:
			arg = kba.LitArg(*f.Lit)
		default:
			continue
		}
		switch f.Op {
		case sql.OpGt, sql.OpGe:
			lo = tightenLo(lo, &rangeBound{arg: arg, incl: f.Op == sql.OpGe})
		case sql.OpLt, sql.OpLe:
			hi = tightenHi(hi, &rangeBound{arg: arg, incl: f.Op == sql.OpLe})
		}
	}
	return lo, hi
}

// alignRangeBound aligns a literal fence with the indexed column's declared
// kind, so the encoded posting-key fence sorts among the stored postings
// the way Compare orders the values (the key codec partitions by kind tag;
// a float fence would sort past every int posting). After ra.Bind's
// lossless literal coercion the only remaining numeric mismatch is a
// non-integral float over an int column; its fence rounds inward to the
// nearest enclosed integer — exactly the integers the float bound admits —
// and the residual selection keeps enforcing the written bound. A fence
// beyond the int range is dropped (nil): the walk widens to unbounded on
// that side and the residual filter still applies. Non-numeric mixes
// encode consistently with Compare's kind ordering and pass through.
func alignRangeBound(b *rangeBound, kind relation.Kind, lower bool) *rangeBound {
	if b == nil || b.arg.IsSlot {
		return b // slots are coerced to the column kind by CheckParams at bind time
	}
	v := b.arg.Lit
	if kind != relation.KindInt || v.Kind != relation.KindFloat {
		return b
	}
	f := v.Flt
	if f < -(1<<62) || f > 1<<62 {
		return nil
	}
	fence := math.Ceil(f)
	if !lower {
		fence = math.Floor(f)
	}
	incl := true
	if fence == f {
		incl = b.incl
	}
	return &rangeBound{arg: kba.LitArg(relation.Int(int64(fence))), incl: incl}
}

// Assumed matched fractions of the distinct-value space when the bounds'
// positions within the domain are unknown — the fallback for parameter
// slots (a `?` bound must plan identically to any literal: the template
// discipline), for non-numeric values, and for indexes without min/max
// statistics: a two-sided range is assumed to match 1/8 of the entries, a
// one-sided range 1/3.
const (
	rangeFracTwoSidedDiv = 8
	rangeFracOneSidedDiv = 3
)

// numericVal converts a value to its numeric magnitude for interpolation.
func numericVal(v relation.Value) (float64, bool) {
	switch v.Kind {
	case relation.KindInt:
		return float64(v.Int), true
	case relation.KindFloat:
		return v.Flt, true
	}
	return 0, false
}

// rangeFrac estimates the fraction of the index's distinct values a range
// matches. Literal numeric bounds interpolate against the index's
// maintained min/max — this is what lets a highly selective one-sided
// `attr > lit` beat the scan instead of being charged the 1/3 shape guess —
// while slot bounds, non-numeric values, and stat-less indexes keep the
// shape-only fractions. Zero means the window provably clears the domain.
func (p *planner) rangeFrac(name string, lo, hi *rangeBound) float64 {
	shape := 1.0 / float64(rangeFracOneSidedDiv)
	if lo != nil && hi != nil {
		shape = 1.0 / float64(rangeFracTwoSidedDiv)
	}
	if (lo != nil && lo.arg.IsSlot) || (hi != nil && hi.arg.IsSlot) {
		return shape
	}
	min, max, ok := p.c.Indexes.ValueBounds(name)
	if !ok {
		return shape
	}
	minF, okMin := numericVal(min)
	maxF, okMax := numericVal(max)
	if !okMin || !okMax {
		return shape
	}
	loF, hiF := minF, maxF
	if lo != nil {
		v, ok := numericVal(lo.arg.Lit)
		if !ok {
			return shape
		}
		loF = v
	}
	if hi != nil {
		v, ok := numericVal(hi.arg.Lit)
		if !ok {
			return shape
		}
		hiF = v
	}
	if hiF < loF || hiF < minF || loF > maxF {
		return 0
	}
	if loF < minF {
		loF = minF
	}
	if hiF > maxF {
		hiF = maxF
	}
	if maxF <= minF {
		return 1 // a single distinct value, inside the window
	}
	return (hiF - loF) / (maxF - minF)
}

// rangeLists estimates how many of the index's entries — its posting
// lists — a range matches.
func (p *planner) rangeLists(name string, entries int, lo, hi *rangeBound) int {
	if entries <= 0 {
		return 0
	}
	return min(int(math.Ceil(p.rangeFrac(name, lo, hi)*float64(entries))), entries)
}

// applyAnchor extends a fragment with one KV instance for an uncovered atom
// (a chase step, Example 7's T_i). With fullOnly, only schemas covering all
// of the atom's used attributes qualify; otherwise partial steps are allowed
// when sound: the first access to an atom joins along query equalities, and
// any further access must be keyed by a superset of the relation's primary
// key (so the fetched combination is the unique base tuple — the pk-based
// closure of Condition (III)).
func (p *planner) applyAnchor(covered func(string) bool, fullOnly bool) bool {
	for _, atom := range p.q.Atoms {
		if covered(atom.Alias) {
			continue
		}
		used := p.q.AttrsUsed(atom.Alias)
		for _, s := range p.c.Schema.ForRelation(atom.Rel) {
			full := covers(s, used)
			if fullOnly && !full {
				continue
			}
			if !full {
				if !p.sfAtom[atom.Alias] {
					continue // partial assembly only when provably scan-free
				}
				// A partial step must carry the relation's primary key so its
				// rows are verified tuple projections: without it, derived
				// keys could inflate multiplicities or pair attributes from
				// different base tuples.
				if p.c.pkOf(s) == nil {
					continue
				}
			}
			if p.applied[atom.Alias+"|"+s.Name] {
				continue
			}
			f, keyFrom := p.findKeyFragment(atom.Alias, s.Key)
			if f == nil {
				continue
			}
			prev := p.atomFrag[atom.Alias]
			if prev != nil {
				if prev != f {
					continue // wait for a merge to unify fragments
				}
				// Refinement of an already fetched atom: sound only through
				// a primary-key superset.
				if !pkWithinKey(p.c.pkOf(s), s.Key) {
					continue
				}
			}
			if prev == nil && f.scanBased && !p.extendBeatsScan(f, s.Name) {
				continue
			}
			// A refinement fetches the one base tuple each row projects, so
			// the values the fragment already holds are that tuple's own:
			// the ∝ keeps only the new ones (kba's keepValues).
			out := &kba.Extend{Input: f.plan, KV: s.Name, Alias: atom.Alias, KeyFrom: keyFrom}
			f.plan = out
			for _, v := range s.Val {
				ref := ra.ColRef{Alias: atom.Alias, Attr: v}
				name := ref.String()
				if f.has(name) {
					continue
				}
				f.attrs = append(f.attrs, name)
				root := p.eq.Find(ref)
				if _, ok := f.cols[root]; !ok {
					f.cols[root] = name
				}
			}
			p.extends = append(p.extends, s.Name)
			p.applied[atom.Alias+"|"+s.Name] = true
			p.atomFrag[atom.Alias] = f
			return true
		}
	}
	return false
}

// pkWithinKey reports whether the relation's primary key is contained in
// the schema's key attributes (pk must be non-nil).
func pkWithinKey(pk, key []string) bool {
	if pk == nil {
		return false
	}
	set := make(map[string]bool, len(key))
	for _, k := range key {
		set[k] = true
	}
	for _, a := range pk {
		if !set[a] {
			return false
		}
	}
	return true
}

// findKeyFragment locates a fragment materializing all key classes of the
// schema at the atom, returning it with the column names in key order.
func (p *planner) findKeyFragment(alias string, key []string) (*frag, []string) {
	for _, f := range p.frags {
		cols := make([]string, 0, len(key))
		ok := true
		for _, k := range key {
			root := p.eq.Find(ra.ColRef{Alias: alias, Attr: k})
			col, found := f.cols[root]
			if !found {
				ok = false
				break
			}
			cols = append(cols, col)
		}
		if ok {
			return f, cols
		}
	}
	return nil, nil
}

// applyScan falls back to scanning a KV instance for the first uncovered,
// not-yet-fetched atom. The chosen schema must cover the atom's used
// attributes.
func (p *planner) applyScan(covered func(string) bool) error {
	for _, atom := range p.q.Atoms {
		if covered(atom.Alias) || p.atomFrag[atom.Alias] != nil {
			continue
		}
		used := p.q.AttrsUsed(atom.Alias)
		var best *baav.KVSchema
		for i, s := range p.c.Schema.ForRelation(atom.Rel) {
			if !covers(s, used) {
				continue
			}
			if best == nil || len(s.Attrs()) < len(best.Attrs()) {
				cand := p.c.Schema.ForRelation(atom.Rel)[i]
				best = &cand
			}
		}
		if best == nil {
			return fmt.Errorf("%w: no KV schema covers attributes %v of %s (as %s)",
				ErrNotAnswerable, used, atom.Rel, atom.Alias)
		}
		f := &frag{
			plan:      &kba.ScanKV{KV: best.Name, Alias: atom.Alias},
			cols:      make(map[ra.ColRef]string),
			scanBased: true,
		}
		if p.c.Stats != nil {
			f.rowEst = p.c.Stats.RelationRows(atom.Rel)
		}
		for _, a := range best.Attrs() {
			ref := ra.ColRef{Alias: atom.Alias, Attr: a}
			name := ref.String()
			f.attrs = append(f.attrs, name)
			root := p.eq.Find(ref)
			if _, ok := f.cols[root]; !ok {
				f.cols[root] = name
			}
		}
		p.scans = append(p.scans, best.Name)
		p.frags = append(p.frags, f)
		p.atomFrag[atom.Alias] = f
		return nil
	}
	// Every remaining atom is partially fetched but stuck; as a last resort
	// this indicates a schema/planner mismatch.
	return fmt.Errorf("%w: no fetch path completes the remaining atoms", ErrNotAnswerable)
}

// mergeOnce joins the fragment pair sharing the most equality classes. With
// requireShared it refuses cross products. It reports whether a merge
// happened.
func (p *planner) mergeOnce(requireShared bool) bool {
	if len(p.frags) < 2 {
		return false
	}
	bi, bj, bestShared := -1, -1, []ra.ColRef(nil)
	for i := 0; i < len(p.frags); i++ {
		for j := i + 1; j < len(p.frags); j++ {
			var shared []ra.ColRef
			for r := range p.frags[i].cols {
				if _, ok := p.frags[j].cols[r]; ok {
					shared = append(shared, r)
				}
			}
			if bi < 0 || len(shared) > len(bestShared) {
				bi, bj, bestShared = i, j, shared
			}
		}
	}
	if requireShared && len(bestShared) == 0 {
		return false
	}
	l, r := p.frags[bi], p.frags[bj]
	sort.Slice(bestShared, func(i, j int) bool {
		return bestShared[i].String() < bestShared[j].String()
	})
	lOn := make([]string, len(bestShared))
	rOn := make([]string, len(bestShared))
	for i, root := range bestShared {
		lOn[i] = l.cols[root]
		rOn[i] = r.cols[root]
	}
	merged := &frag{
		plan:      &kba.Join{L: l.plan, R: r.plan, LOn: lOn, ROn: rOn},
		attrs:     append(append([]string{}, l.attrs...), r.attrs...),
		cols:      make(map[ra.ColRef]string, len(l.cols)+len(r.cols)),
		scanBased: l.scanBased || r.scanBased,
		rowEst:    maxInt(l.rowEst, r.rowEst),
	}
	for root, col := range l.cols {
		merged.cols[root] = col
	}
	for root, col := range r.cols {
		if _, ok := merged.cols[root]; !ok {
			merged.cols[root] = col
		}
	}
	var rest []*frag
	for i, f := range p.frags {
		if i != bi && i != bj {
			rest = append(rest, f)
		}
	}
	p.frags = append(rest, merged)
	for alias, f := range p.atomFrag {
		if f == l || f == r {
			p.atomFrag[alias] = merged
		}
	}
	return true
}

// mergeFrags joins all fragments into one, preferring joins on shared
// equality classes and resorting to cross products for disconnected parts.
func (p *planner) mergeFrags() (*frag, error) {
	if len(p.frags) == 0 {
		return nil, fmt.Errorf("core: query produced no plan fragments")
	}
	for len(p.frags) > 1 {
		p.mergeOnce(false)
	}
	return p.frags[0], nil
}

// residualSelect appends a Select verifying every predicate whose columns
// are materialized: constant selections on scanned atoms, filters, IN
// lists, and equality predicates both of whose sides were fetched
// independently. Predicates enforced structurally (by ∝ keys or join keys)
// have at most one side materialized and are skipped.
func (p *planner) residualSelect(f *frag) error {
	var preds []kba.Pred
	colFor := func(ref ra.ColRef) (string, bool) {
		if f.has(ref.String()) {
			return ref.String(), true
		}
		col, ok := f.cols[p.eq.Find(ref)]
		return col, ok
	}
	for _, ce := range p.q.EqConsts {
		col, ok := colFor(ce.Col)
		if !ok {
			return fmt.Errorf("core: predicate column %s not materialized", ce.Col)
		}
		v := ce.Val
		preds = append(preds, kba.Pred{Attr: col, Op: "=", Lit: &v})
	}
	// Parameter equalities are verified like constant ones; the slot is
	// resolved at bind time. Even when the parameter seeded the class, the
	// recheck is cheap and keeps the template uniform with the literal path.
	for _, pe := range p.q.EqParams {
		col, ok := colFor(pe.Col)
		if !ok {
			return fmt.Errorf("core: predicate column %s not materialized", pe.Col)
		}
		slot := pe.Slot
		preds = append(preds, kba.Pred{Attr: col, Op: "=", Param: &slot})
	}
	for _, in := range p.q.Ins {
		col, ok := colFor(in.Col)
		if !ok {
			return fmt.Errorf("core: predicate column %s not materialized", in.Col)
		}
		preds = append(preds, kba.Pred{Attr: col, In: in.Vals, InSlots: in.Slots})
	}
	for _, fl := range p.q.Filters {
		col, ok := colFor(fl.Col)
		if !ok {
			return fmt.Errorf("core: filter column %s not materialized", fl.Col)
		}
		pred := kba.Pred{Attr: col, Op: fl.Op}
		switch {
		case fl.RCol != nil:
			rcol, ok := colFor(*fl.RCol)
			if !ok {
				return fmt.Errorf("core: filter column %s not materialized", *fl.RCol)
			}
			pred.RAttr = rcol
		case fl.Param != nil:
			slot := *fl.Param
			pred.Param = &slot
		default:
			lit := *fl.Lit
			pred.Lit = &lit
		}
		preds = append(preds, pred)
	}
	for _, eqp := range p.q.EqAttrs {
		// Verify only when both sides are materialized as distinct columns.
		if f.has(eqp.L.String()) && f.has(eqp.R.String()) && eqp.L != eqp.R {
			preds = append(preds, kba.Pred{Attr: eqp.L.String(), Op: "=", RAttr: eqp.R.String()})
		}
	}
	if len(preds) > 0 {
		f.plan = &kba.Select{Input: f.plan, Preds: preds}
	}
	return nil
}

// tail adds the aggregate or projection (and DISTINCT) tail, returning the
// output column names parallel to the query's OutNames.
func (p *planner) tail(f *frag) ([]string, error) {
	colFor := func(ref ra.ColRef) (string, error) {
		if f.has(ref.String()) {
			return ref.String(), nil
		}
		if col, ok := f.cols[p.eq.Find(ref)]; ok {
			return col, nil
		}
		return "", fmt.Errorf("core: output column %s not materialized", ref)
	}
	var outCols []string
	var keyCols []string
	seen := make(map[string]bool)
	for _, ref := range p.q.Proj {
		col, err := colFor(ref)
		if err != nil {
			return nil, err
		}
		outCols = append(outCols, col)
		if !seen[col] {
			seen[col] = true
			keyCols = append(keyCols, col)
		}
	}
	if p.q.IsAggregate() {
		specs := make([]kba.AggSpec, len(p.q.Aggs))
		for i, a := range p.q.Aggs {
			spec := kba.AggSpec{Func: a.Func, Star: a.Star, Name: a.Name}
			if !a.Star {
				col, err := colFor(a.Col)
				if err != nil {
					return nil, err
				}
				spec.Attr = col
			}
			specs[i] = spec
			outCols = append(outCols, a.Name)
		}
		f.plan = &kba.GroupBy{Input: f.plan, Keys: keyCols, Aggs: specs}
		f.attrs = append(append([]string{}, keyCols...), kba.AggNames(specs)...)
		return outCols, nil
	}
	f.plan = &kba.Project{Input: f.plan, Attrs: keyCols}
	f.attrs = keyCols
	if p.q.Distinct {
		f.plan = &kba.Distinct{Input: f.plan}
	}
	return outCols, nil
}

// extendBeatsScan decides whether probing the instance with one get per
// distinct fragment key beats scanning it, using the store statistics. A
// get costs roughly an order of magnitude more than a scan step in the
// storage profiles, so probing from an unbounded fragment only pays off
// when the target instance is much larger than the probe set.
func (p *planner) extendBeatsScan(f *frag, kvName string) bool {
	if p.c.Stats == nil {
		return true // no statistics: keep the chase behaviour
	}
	blocks := p.c.Stats.InstanceBlocks(kvName)
	if f.rowEst <= 0 || blocks <= 0 {
		return true
	}
	return blocks > 4*f.rowEst
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// covers reports whether the schema holds every attribute in want.
func covers(s baav.KVSchema, want []string) bool {
	for _, w := range want {
		if !s.Has(w) {
			return false
		}
	}
	return true
}
