package kba

import (
	"math"
	"slices"

	"zidian/internal/baav"
	"zidian/internal/ra"
	"zidian/internal/relation"
)

// groupTable is one worker's groups of one γ phase: a map from a group key's
// encoding to its number, the keys of all groups in one slice and their
// aggregate states in another, in first-seen order.
type groupTable struct {
	index        map[string]int32
	keys         []relation.Value // nkeys per group
	states       []ra.AggState    // naggs per group
	nkeys, naggs int
	buf          []byte
}

func newGroupTable(nkeys, naggs int) *groupTable {
	return &groupTable{index: make(map[string]int32), nkeys: nkeys, naggs: naggs}
}

// group returns the aggregate states of the group of row's values at idx,
// creating the group on first sight. The slice is valid until the next
// call.
func (g *groupTable) group(row relation.Tuple, idx []int) []ra.AggState {
	g.buf = appendKey(g.buf[:0], row, idx)
	st, fresh := g.lookup(g.buf)
	if fresh {
		for _, i := range idx {
			g.keys = append(g.keys, row[i])
		}
	}
	return st
}

// groupEncoded is group for a key given as its values' encodings, enc;
// they are decoded on the group's first sight only.
func (g *groupTable) groupEncoded(enc []byte) ([]ra.AggState, error) {
	st, fresh := g.lookup(enc)
	if fresh {
		at := len(g.keys)
		g.keys = slices.Grow(g.keys, g.nkeys)[:at+g.nkeys]
		if _, _, err := relation.DecodeColumns(g.keys[at:], enc, g.nkeys, nil); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// lookup returns the aggregate states of the group whose key encodes as
// enc, and whether it made the group (its key values still to be added).
func (g *groupTable) lookup(enc []byte) (st []ra.AggState, fresh bool) {
	at, ok := g.index[string(enc)]
	if !ok {
		at = int32(len(g.index))
		g.index[string(enc)] = at
		for range g.naggs {
			g.states = append(g.states, *ra.NewAggState())
		}
	}
	return g.states[int(at)*g.naggs : int(at+1)*g.naggs], !ok
}

// fold folds mult copies of row into a group's aggregate states (phase 1):
// aggIdx holds, per aggregate, the input column (-1 for COUNT(*)).
func fold(st []ra.AggState, row relation.Tuple, aggIdx []int, mult int64) {
	for i, c := range aggIdx {
		if c < 0 {
			st[i].Count += mult
			continue
		}
		for range mult {
			st[i].Add(row[c])
		}
	}
}

// rows returns one row per group, key ++ cell(state) for each aggregate
// state in turn (cell writes width values), carved from one slab.
func (g *groupTable) rows(width int, cell func(dst relation.Tuple, i int, st *ra.AggState)) []relation.Tuple {
	n := len(g.index)
	slab := newRowSlab(n, g.nkeys+g.naggs*width)
	out := make([]relation.Tuple, n)
	for k := range out {
		row := slab.next()
		copy(row, g.keys[k*g.nkeys:(k+1)*g.nkeys])
		for i := range g.naggs {
			off := g.nkeys + i*width
			cell(row[off:off+width], i, &g.states[k*g.naggs+i])
		}
		out[k] = row
	}
	return out
}

// partials returns the groups' partial states as flat tuples
// key ++ state_1 ++ ... ++ state_m, the rows phase 1 shuffles.
func (g *groupTable) partials() []relation.Tuple {
	return g.rows(ra.AggStateWidth(), func(dst relation.Tuple, _ int, st *ra.AggState) { st.PutState(dst) })
}

// mergeGroups is γ's phase 2. Phase 1 aggregated into local partial states
// per worker inside whatever fed γ (see rowSink); phase 2 shuffles the
// encoded partials by group key and finalizes per worker — the standard
// two-phase parallel aggregation that keeps communication proportional to
// the number of groups, not rows.
func (e *executor) mergeGroups(n *GroupBy, lay *layout, partial *PartRel) (*PartRel, error) {
	stateW := ra.AggStateWidth()
	shuffled := repartition(partial, lay.rkey, &e.shuffle)
	out := NewPartRel(lay.attrs, e.workers)
	err := ForWorkers(e.workers, shuffled.Len(), func(w int) error {
		g := newGroupTable(len(n.Keys), len(n.Aggs))
		for _, row := range shuffled.Parts[w] {
			st := g.group(row, lay.rkey)
			for i := range st {
				part, err := ra.DecodeAggState(row, len(n.Keys)+i*stateW)
				if err != nil {
					return err
				}
				st[i].Merge(&part)
			}
		}
		out.Parts[w] = g.rows(1, func(dst relation.Tuple, i int, st *ra.AggState) { dst[0] = st.Final(n.Aggs[i].Func) })
		return nil
	})
	return out, err
}

// runStatsAgg answers a group-by over a whole KV instance from its blocks'
// statistics headers. Every block falls in one group — the group keys are
// key attributes — so the walk takes of each block only the encodings of
// the key attributes it groups by, decoding them once per group, and folds
// the header straight into its group's states. A header stands in for its
// block only where it is exact: SUM, MIN and MAX of an int attribute answer
// ints, as over the rows, and the header's float64s hold those only within
// 2⁵³. A block whose header cannot stand in (none kept, a column with a
// value that is not a number, an int column beyond 2⁵³) has its tuples
// decoded and folded instead. The walk runs once on the driving goroutine
// and its (tiny) output is dealt round-robin to the workers.
func (e *executor) runStatsAgg(n *StatsAgg) (*PartRel, error) {
	lay, err := e.layoutOf(n, n.lay, nil, nil)
	if err != nil {
		return nil, err
	}
	kvSchema := e.store.Schema.ByName(n.KV)
	rel := e.store.Rels[kvSchema.Rel]
	ints := make([]bool, len(lay.aggs))
	for i, c := range lay.aggs {
		ints[i] = c >= 0 && rel.Attrs[rel.Index(kvSchema.Val[c])].Kind == relation.KindInt
	}
	w := statsWalk{g: newGroupTable(len(lay.key), len(lay.aggs)), lay: lay, ints: ints, keyWidth: len(kvSchema.Key)}
	var scanned int64
	var walkErr error
	err = e.store.ScanStatsT(e.kv(), n.KV, func(h *baav.HeaderBlock) bool {
		scanned++
		walkErr = w.block(h)
		return walkErr == nil
	})
	e.scanned.Add(scanned)
	e.data.Add(w.decoded)
	if err == nil {
		err = walkErr
	}
	if err != nil {
		return nil, err
	}
	out := NewPartRel(lay.attrs, e.workers)
	rows := w.g.rows(1, func(dst relation.Tuple, i int, st *ra.AggState) { dst[0] = st.Final(n.Aggs[i].Func) })
	for i, row := range rows {
		out.Parts[i%e.workers] = append(out.Parts[i%e.workers], row)
	}
	return out, nil
}

// statsWalk is the state of one StatsAgg header walk.
type statsWalk struct {
	g        *groupTable
	lay      *layout
	ints     []bool // per aggregate: over an int attribute
	keyWidth int
	decoded  int64 // values of the blocks decoded in place of their headers
}

// block folds one block into its group: by its header when that is exact,
// by its decoded tuples otherwise. An empty block makes no group.
func (w *statsWalk) block(h *baav.HeaderBlock) error {
	exact := headerExact(h.Stats, w.lay.aggs, w.ints)
	var blk *baav.Block
	var err error
	switch {
	case exact && h.Stats.Rows == 0:
		return nil
	case !exact:
		if blk, err = h.Decode(); err != nil || len(blk.Tuples) == 0 {
			return err
		}
		w.decoded += blk.Rows() * int64(w.lay.width)
	}
	if w.g.buf, err = relation.AppendColumns(w.g.buf[:0], h.Key, w.keyWidth, w.lay.key); err != nil {
		return err
	}
	st, err := w.g.groupEncoded(w.g.buf)
	if err != nil {
		return err
	}
	if exact {
		foldHeader(st, h.Stats, w.lay.aggs, w.ints)
		return nil
	}
	for j, t := range blk.Tuples {
		fold(st, t, w.lay.aggs, multiplicity(blk, j))
	}
	return nil
}

// headerExact reports whether a block's statistics header stands in exactly
// for its tuples under the aggregates aggs (value positions, -1 for
// COUNT(*)): it exists, every aggregated column is all numbers, and an int
// column's extremes and sum are integral and its extremes times the block's
// rows — a bound on every partial sum the header's float64 sum took — stay
// within 2⁵³.
func headerExact(s *baav.BlockStats, aggs []int, ints []bool) bool {
	if s == nil {
		return false
	}
	for i, c := range aggs {
		if c < 0 {
			continue
		}
		if c >= len(s.Attrs) || !s.Attrs[c].Valid {
			return false
		}
		a := s.Attrs[c]
		integral := a.Min == math.Trunc(a.Min) && a.Max == math.Trunc(a.Max) && a.Sum == math.Trunc(a.Sum)
		if ints[i] && (!integral || max(math.Abs(a.Min), math.Abs(a.Max))*float64(s.Rows) > 1<<53) {
			return false
		}
	}
	return true
}

// foldHeader folds an exact header (headerExact) into a group's states.
func foldHeader(st []ra.AggState, s *baav.BlockStats, aggs []int, ints []bool) {
	for i, c := range aggs {
		if c < 0 {
			st[i].Count += s.Rows
			continue
		}
		a := s.Attrs[c]
		if ints[i] {
			st[i].AddRun(s.Rows, a.Sum, int64(a.Sum), true, relation.Int(int64(a.Min)), relation.Int(int64(a.Max)))
		} else {
			st[i].AddRun(s.Rows, a.Sum, 0, false, relation.Float(a.Min), relation.Float(a.Max))
		}
	}
}
