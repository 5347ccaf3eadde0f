package ra

import (
	"fmt"
	"sort"

	"zidian/internal/relation"
	"zidian/internal/sql"
)

// Result is a materialized query answer.
type Result struct {
	Cols []string
	Rows []relation.Tuple
}

// Sort orders rows lexicographically in place; canonical form for tests.
func (r *Result) Sort() {
	sort.Slice(r.Rows, func(i, j int) bool { return r.Rows[i].Compare(r.Rows[j]) < 0 })
}

// Equal reports whether two results have identical columns and identical
// row multisets (rows compared after sorting copies). Floating-point values
// compare with a small relative tolerance: parallel and block-wise
// execution sum in different orders, and float addition is not associative.
func (r *Result) Equal(o *Result) bool {
	if len(r.Cols) != len(o.Cols) || len(r.Rows) != len(o.Rows) {
		return false
	}
	for i := range r.Cols {
		if r.Cols[i] != o.Cols[i] {
			return false
		}
	}
	a := &Result{Rows: append([]relation.Tuple(nil), r.Rows...)}
	b := &Result{Rows: append([]relation.Tuple(nil), o.Rows...)}
	a.Sort()
	b.Sort()
	for i := range a.Rows {
		if !tupleApproxEqual(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return true
}

func tupleApproxEqual(a, b relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !valueApproxEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func valueApproxEqual(a, b relation.Value) bool {
	if relation.Equal(a, b) {
		return true
	}
	aNum := a.Kind == relation.KindInt || a.Kind == relation.KindFloat
	bNum := b.Kind == relation.KindInt || b.Kind == relation.KindFloat
	if !aNum || !bNum {
		return false
	}
	af, bf := a.AsFloat(), b.AsFloat()
	diff := af - bf
	if diff < 0 {
		diff = -diff
	}
	scale := 1.0
	if m := af; m < 0 {
		m = -m
		if m > scale {
			scale = m
		}
	} else if af > scale {
		scale = af
	}
	return diff <= 1e-9*scale
}

// binding tracks the columns of an intermediate join result.
type binding struct {
	cols []ColRef
	idx  map[ColRef]int
}

func newBinding(cols []ColRef) *binding {
	b := &binding{cols: cols, idx: make(map[ColRef]int, len(cols))}
	for i, c := range cols {
		b.idx[c] = i
	}
	return b
}

func (b *binding) has(c ColRef) bool { _, ok := b.idx[c]; return ok }

// Evaluate runs the query over an in-memory database. It is the reference
// ("ground truth") evaluator: single-node, no storage accounting. It works
// on literals only: a template is refused.
func Evaluate(q *Query, db *relation.Database) (*Result, error) {
	if q.NumParams > 0 {
		return nil, fmt.Errorf("ra: cannot evaluate a template with %d unbound parameters", q.NumParams)
	}
	rows, bind, err := evaluateSPC(q, db)
	if err != nil {
		return nil, err
	}
	return finishQuery(q, rows, bind)
}

// evaluateSPC computes the join of all atoms with all predicates applied,
// returning intermediate rows and their column binding.
func evaluateSPC(q *Query, db *relation.Database) ([]relation.Tuple, *binding, error) {
	if len(q.Atoms) == 0 {
		return nil, nil, fmt.Errorf("ra: query has no atoms")
	}
	type applied struct {
		eq     map[int]bool
		filter map[int]bool
	}
	done := applied{eq: map[int]bool{}, filter: map[int]bool{}}

	var cur []relation.Tuple
	var bind *binding
	for ai, atom := range q.Atoms {
		base, cols, err := scanAtom(q, db, atom)
		if err != nil {
			return nil, nil, err
		}
		if ai == 0 {
			cur = base
			bind = newBinding(cols)
		} else {
			newBind := newBinding(append(append([]ColRef{}, bind.cols...), cols...))
			// Join keys: equalities with one side bound and one side new.
			var lk, rk []int
			for ei, eq := range q.EqAttrs {
				if done.eq[ei] {
					continue
				}
				l, r := eq.L, eq.R
				if bind.has(r) && l.Alias == atom.Alias {
					l, r = r, l
				}
				if bind.has(l) && r.Alias == atom.Alias {
					ri := -1
					for ci, c := range cols {
						if c == r {
							ri = ci
						}
					}
					if ri < 0 {
						continue
					}
					lk = append(lk, bind.idx[l])
					rk = append(rk, ri)
					done.eq[ei] = true
				}
			}
			cur = hashJoin(cur, base, lk, rk)
			bind = newBind
		}
		// Post-join predicates now fully bound: remaining equalities and
		// column-column filters.
		cur = applyBoundPreds(q, cur, bind, &done.eq, &done.filter)
	}
	return cur, bind, nil
}

// scanAtom returns the filtered base rows of one atom and their columns.
func scanAtom(q *Query, db *relation.Database, atom Atom) ([]relation.Tuple, []ColRef, error) {
	rel := db.Relation(atom.Rel)
	if rel == nil {
		return nil, nil, fmt.Errorf("ra: relation %q not in database", atom.Rel)
	}
	cols := make([]ColRef, len(atom.Schema.Attrs))
	for i, a := range atom.Schema.Attrs {
		cols[i] = ColRef{Alias: atom.Alias, Attr: a.Name}
	}
	pos := func(c ColRef) int { return atom.Schema.Index(c.Attr) }

	var out []relation.Tuple
	for _, t := range rel.Tuples {
		ok := true
		for _, ce := range q.EqConsts {
			if ce.Col.Alias == atom.Alias && !relation.Equal(t[pos(ce.Col)], ce.Val) {
				ok = false
				break
			}
		}
		if ok {
			for _, in := range q.Ins {
				if in.Col.Alias != atom.Alias {
					continue
				}
				hit := false
				for _, v := range in.Vals {
					if relation.Equal(t[pos(in.Col)], v) {
						hit = true
						break
					}
				}
				if !hit {
					ok = false
					break
				}
			}
		}
		if ok {
			for _, f := range q.Filters {
				if f.Col.Alias != atom.Alias || f.Lit == nil {
					continue
				}
				if !cmpOK(t[pos(f.Col)], f.Op, *f.Lit) {
					ok = false
					break
				}
			}
		}
		if ok {
			// Intra-atom equalities (r.a = r.b).
			for _, eq := range q.EqAttrs {
				if eq.L.Alias == atom.Alias && eq.R.Alias == atom.Alias &&
					!relation.Equal(t[pos(eq.L)], t[pos(eq.R)]) {
					ok = false
					break
				}
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out, cols, nil
}

// applyBoundPreds filters rows by predicates whose references are now all
// bound and not yet applied.
func applyBoundPreds(q *Query, rows []relation.Tuple, bind *binding, eqDone, fDone *map[int]bool) []relation.Tuple {
	var checks []func(relation.Tuple) bool
	for ei, eq := range q.EqAttrs {
		if (*eqDone)[ei] || eq.L.Alias == eq.R.Alias {
			continue
		}
		if bind.has(eq.L) && bind.has(eq.R) {
			li, ri := bind.idx[eq.L], bind.idx[eq.R]
			checks = append(checks, func(t relation.Tuple) bool {
				return relation.Equal(t[li], t[ri])
			})
			(*eqDone)[ei] = true
		}
	}
	for fi, f := range q.Filters {
		if (*fDone)[fi] || f.RCol == nil {
			continue
		}
		if bind.has(f.Col) && bind.has(*f.RCol) {
			li, ri := bind.idx[f.Col], bind.idx[*f.RCol]
			op := f.Op
			checks = append(checks, func(t relation.Tuple) bool {
				return cmpOK(t[li], op, t[ri])
			})
			(*fDone)[fi] = true
		}
	}
	if len(checks) == 0 {
		return rows
	}
	out := rows[:0:0]
	for _, t := range rows {
		ok := true
		for _, c := range checks {
			if !c(t) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out
}

// hashJoin joins left and right rows on the given key positions; empty keys
// degrade to a cross product.
func hashJoin(left, right []relation.Tuple, lk, rk []int) []relation.Tuple {
	var out []relation.Tuple
	if len(lk) == 0 {
		for _, l := range left {
			for _, r := range right {
				out = append(out, l.Concat(r))
			}
		}
		return out
	}
	index := make(map[string][]relation.Tuple)
	for _, r := range right {
		k := relation.KeyString(r.Project(rk))
		index[k] = append(index[k], r)
	}
	for _, l := range left {
		k := relation.KeyString(l.Project(lk))
		for _, r := range index[k] {
			out = append(out, l.Concat(r))
		}
	}
	return out
}

func cmpOK(a relation.Value, op sql.CmpOp, b relation.Value) bool {
	c := relation.Compare(a, b)
	switch op {
	case sql.OpEq:
		return c == 0
	case sql.OpNe:
		return c != 0
	case sql.OpLt:
		return c < 0
	case sql.OpLe:
		return c <= 0
	case sql.OpGt:
		return c > 0
	case sql.OpGe:
		return c >= 0
	default:
		return false
	}
}

// finishQuery applies projection, aggregation, DISTINCT, ORDER BY and LIMIT
// to the joined rows. It is shared by every execution backend (reference,
// TaaV baseline, and the flattened tail of KBA plans).
func finishQuery(q *Query, rows []relation.Tuple, bind *binding) (*Result, error) {
	projIdx := make([]int, len(q.Proj))
	for i, c := range q.Proj {
		j, ok := bind.idx[c]
		if !ok {
			return nil, fmt.Errorf("ra: projection column %s not bound", c)
		}
		projIdx[i] = j
	}
	res := &Result{Cols: q.OutNames}
	if len(q.Aggs) == 0 {
		for _, t := range rows {
			res.Rows = append(res.Rows, t.Project(projIdx))
		}
	} else {
		aggIdx := make([]int, len(q.Aggs))
		for i, a := range q.Aggs {
			if a.Star {
				aggIdx[i] = -1
				continue
			}
			j, ok := bind.idx[a.Col]
			if !ok {
				return nil, fmt.Errorf("ra: aggregate column %s not bound", a.Col)
			}
			aggIdx[i] = j
		}
		res.Rows = aggregate(rows, projIdx, q.Aggs, aggIdx)
	}
	if q.Distinct {
		res.Rows = distinct(res.Rows)
	}
	if err := OrderAndLimit(res, q.OrderBy, q.Limit); err != nil {
		return nil, err
	}
	return res, nil
}

// OrderAndLimit applies ORDER BY keys (referring to result columns by name)
// and a LIMIT (negative = none) to a result in place. It is shared by every
// execution backend.
func OrderAndLimit(res *Result, keys []OrderKey, limit int) error {
	if len(keys) > 0 {
		if err := orderBy(res, keys); err != nil {
			return err
		}
	}
	if limit >= 0 && len(res.Rows) > limit {
		res.Rows = res.Rows[:limit]
	}
	return nil
}

// AggState accumulates one aggregate; exported for reuse by the parallel
// executor's partial aggregation.
type AggState struct {
	Count int64
	Sum   float64
	// SumInt tracks integer sums so SUM over int columns stays int.
	SumInt  int64
	AllInt  bool
	Min     relation.Value
	Max     relation.Value
	started bool
}

// NewAggState returns an empty accumulator.
func NewAggState() *AggState { return &AggState{AllInt: true} }

// Add folds one value into the accumulator.
func (s *AggState) Add(v relation.Value) {
	s.Count++
	if v.Kind == relation.KindInt {
		s.SumInt += v.Int
	} else {
		s.AllInt = false
	}
	s.Sum += v.AsFloat()
	if !s.started || relation.Compare(v, s.Min) < 0 {
		s.Min = v
	}
	if !s.started || relation.Compare(v, s.Max) > 0 {
		s.Max = v
	}
	s.started = true
}

// AddCount folds a bare row count (for COUNT(*)).
func (s *AggState) AddCount() { s.Count++ }

// AddRun folds in n > 0 values known only by their sum, smallest and largest
// — what a block's statistics header keeps of a column — as if each had gone
// through Add. ints reports that every one is an int, sumInt being then
// their sum.
func (s *AggState) AddRun(n int64, sum float64, sumInt int64, ints bool, min, max relation.Value) {
	s.Count += n
	s.Sum += sum
	s.SumInt += sumInt
	s.AllInt = s.AllInt && ints
	if !s.started || relation.Compare(min, s.Min) < 0 {
		s.Min = min
	}
	if !s.started || relation.Compare(max, s.Max) > 0 {
		s.Max = max
	}
	s.started = true
}

// Merge folds another accumulator into s (for partial aggregation).
func (s *AggState) Merge(o *AggState) {
	s.Count += o.Count
	s.Sum += o.Sum
	s.SumInt += o.SumInt
	s.AllInt = s.AllInt && o.AllInt
	if o.started {
		if !s.started || relation.Compare(o.Min, s.Min) < 0 {
			s.Min = o.Min
		}
		if !s.started || relation.Compare(o.Max, s.Max) > 0 {
			s.Max = o.Max
		}
		s.started = true
	}
}

// stateWidth is the number of values PutState writes.
const stateWidth = 7

// PutState serializes the accumulator into dst[:AggStateWidth()], so partial
// aggregates can be shuffled between workers as ordinary tuples.
func (s *AggState) PutState(dst relation.Tuple) {
	allInt := int64(0)
	if s.AllInt {
		allInt = 1
	}
	started := int64(0)
	if s.started {
		started = 1
	}
	dst[0], dst[1], dst[2] = relation.Int(s.Count), relation.Float(s.Sum), relation.Int(s.SumInt)
	dst[3], dst[4], dst[5], dst[6] = relation.Int(allInt), relation.Int(started), s.Min, s.Max
}

// DecodeAggState rebuilds an accumulator from PutState's layout starting at
// offset off of the tuple.
func DecodeAggState(t relation.Tuple, off int) (AggState, error) {
	if off+stateWidth > len(t) {
		return AggState{}, fmt.Errorf("ra: truncated aggregate state")
	}
	return AggState{
		Count:   t[off].Int,
		Sum:     t[off+1].Flt,
		SumInt:  t[off+2].Int,
		AllInt:  t[off+3].Int == 1,
		started: t[off+4].Int == 1,
		Min:     t[off+5],
		Max:     t[off+6],
	}, nil
}

// AggStateWidth returns the number of tuple values one encoded state uses.
func AggStateWidth() int { return stateWidth }

// Final produces the aggregate value for the given function.
func (s *AggState) Final(f sql.AggFunc) relation.Value {
	switch f {
	case sql.AggCount:
		return relation.Int(s.Count)
	case sql.AggSum:
		if s.AllInt {
			return relation.Int(s.SumInt)
		}
		return relation.Float(s.Sum)
	case sql.AggMin:
		if !s.started {
			return relation.Null()
		}
		return s.Min
	case sql.AggMax:
		if !s.started {
			return relation.Null()
		}
		return s.Max
	case sql.AggAvg:
		if s.Count == 0 {
			return relation.Null()
		}
		return relation.Float(s.Sum / float64(s.Count))
	default:
		return relation.Null()
	}
}

func aggregate(rows []relation.Tuple, keyIdx []int, aggs []Agg, aggIdx []int) []relation.Tuple {
	type group struct {
		key    relation.Tuple
		states []*AggState
	}
	groups := make(map[string]*group)
	var order []string
	for _, t := range rows {
		key := t.Project(keyIdx)
		ks := relation.KeyString(key)
		g, ok := groups[ks]
		if !ok {
			g = &group{key: key, states: make([]*AggState, len(aggs))}
			for i := range g.states {
				g.states[i] = NewAggState()
			}
			groups[ks] = g
			order = append(order, ks)
		}
		for i := range aggs {
			if aggIdx[i] < 0 {
				g.states[i].AddCount()
			} else {
				g.states[i].Add(t[aggIdx[i]])
			}
		}
	}
	out := make([]relation.Tuple, 0, len(groups))
	for _, ks := range order {
		g := groups[ks]
		row := g.key.Clone()
		for i, a := range aggs {
			row = append(row, g.states[i].Final(a.Func))
		}
		out = append(out, row)
	}
	return out
}

func distinct(rows []relation.Tuple) []relation.Tuple {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, t := range rows {
		k := relation.KeyString(t)
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

func orderBy(res *Result, keys []OrderKey) error {
	idx := make([]int, len(keys))
	for i, k := range keys {
		idx[i] = -1
		for j, c := range res.Cols {
			if c == k.Name {
				idx[i] = j
				break
			}
		}
		if idx[i] < 0 {
			return fmt.Errorf("ra: ORDER BY column %q missing from result", k.Name)
		}
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for i, k := range keys {
			c := relation.Compare(res.Rows[a][idx[i]], res.Rows[b][idx[i]])
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return nil
}
