package kba

import (
	"fmt"

	"zidian/internal/baav"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/sql"
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
	at, ok := g.index[string(g.buf)]
	if !ok {
		at = int32(len(g.index))
		g.index[string(g.buf)] = at
		for _, i := range idx {
			g.keys = append(g.keys, row[i])
		}
		for range g.naggs {
			g.states = append(g.states, *ra.NewAggState())
		}
	}
	return g.states[int(at)*g.naggs : int(at+1)*g.naggs]
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

// runGroupBy aggregates with local partial states, shuffles the encoded
// partials by group key, and finalizes per worker — the standard two-phase
// parallel aggregation that keeps communication proportional to the number
// of groups, not rows. Over a scan, phase 1 runs inside it (groupScan).
func (e *executor) runGroupBy(n *GroupBy) (*PartRel, error) {
	var lay *layout
	var partial *PartRel
	var err error
	if scan, ok := n.Input.(*ScanKV); ok {
		lay, partial, err = e.groupScan(n, scan)
	} else {
		lay, partial, err = e.groupRows(n)
	}
	if err != nil {
		return nil, err
	}

	// Phase 2: shuffle partials by key and merge.
	stateW := ra.AggStateWidth()
	shuffled := repartition(partial, lay.rkey, &e.shuffle)
	out := NewPartRel(lay.attrs, e.workers)
	err = ForWorkers(e.workers, shuffled.Len(), func(w int) error {
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

// groupRows is phase 1 over a materialized input: local partial
// aggregation per worker.
func (e *executor) groupRows(n *GroupBy) (*layout, *PartRel, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, nil, err
	}
	lay, err := e.layoutOf(n, n.lay, in.Attrs, nil)
	if err != nil {
		return nil, nil, err
	}
	partial := NewPartRel(lay.partial, e.workers)
	err = ForWorkers(e.workers, in.Len(), func(w int) error {
		g := newGroupTable(len(n.Keys), len(n.Aggs))
		for _, row := range in.Parts[w] {
			fold(g.group(row, lay.key), row, lay.aggs, 1)
		}
		partial.Parts[w] = g.partials()
		return nil
	})
	return lay, partial, err
}

// groupScan is phase 1 over a KV instance scan, run inside the scan's walk:
// each worker folds the rows of the blocks it is handed into its groups
// through one scratch row, key ++ values, so the scan's output is never
// built. The scan keeps its operator span, with the rows, worker and node
// fan-out and columns it would have reported producing them, and its
// accounting is the walk's own, so traced and untraced runs, and the
// statement's ExecStats, are those of γ over a materialized scan.
func (e *executor) groupScan(n *GroupBy, scan *ScanKV) (*layout, *PartRel, error) {
	span := e.startSpan(scan)
	scanLay, err := e.layoutOf(scan, scan.lay, nil, nil)
	var lay *layout
	if err == nil {
		lay, err = e.layoutOf(n, n.lay, scanLay.attrs, nil)
	}
	if err != nil {
		e.finishSpan(span, nil)
		return nil, nil, err
	}
	tables := make([]*groupTable, e.workers)
	scratch := make([]relation.Tuple, e.workers)
	for w := range tables {
		tables[w] = newGroupTable(len(n.Keys), len(n.Aggs))
		scratch[w] = make(relation.Tuple, len(scanLay.attrs))
	}
	// When every group key is a block key attribute, a block's rows all
	// fall in one group: it is looked up once per block.
	perBlock := true
	for _, c := range lay.key {
		perBlock = perBlock && c < len(scanLay.attrs)-scanLay.kept()
	}
	perWorker, err := e.walkScan(scan.KV, scanLay, func(w int, key relation.Tuple, blk *baav.Block) {
		g, row := tables[w], scratch[w]
		copy(row, key)
		var st []ra.AggState
		if perBlock && len(blk.Tuples) > 0 {
			st = g.group(row, lay.key)
		}
		for j, t := range blk.Tuples {
			copy(row[len(key):], t)
			mult := int64(1)
			if blk.Counts != nil {
				mult = blk.Counts[j]
			}
			if !perBlock {
				st = g.group(row, lay.key)
			}
			fold(st, row, lay.aggs, mult)
		}
	})
	e.finishSpan(span, perWorker)
	if err != nil {
		return nil, nil, err
	}
	partial := NewPartRel(lay.partial, e.workers)
	for w, g := range tables {
		partial.Parts[w] = g.partials()
	}
	return lay, partial, nil
}

// runStatsAgg answers a group-by over a whole KV instance from per-block
// statistics, reading only block headers. Supported when group keys are the
// instance key and every aggregate is COUNT(*)/SUM/MIN/MAX/AVG over a
// numeric value attribute. The header walk runs once on the driving
// goroutine and its (tiny) output is dealt round-robin to the workers.
func (e *executor) runStatsAgg(n *StatsAgg) (*PartRel, error) {
	lay, err := e.layoutOf(n, n.lay, nil, nil)
	if err != nil {
		return nil, err
	}
	kvSchema := e.store.Schema.ByName(n.KV)
	if kvSchema == nil {
		return nil, errUnknownKV(n.KV)
	}
	valPos := make(map[string]int, len(kvSchema.Val))
	for i, a := range kvSchema.Val {
		valPos[n.Alias+"."+a] = i
	}
	// ScanStats yields segmented blocks of one key as separate records;
	// merge them here by key.
	merged := make(map[string]*statsAcc)
	var order []*statsAcc
	var scanned int64
	var buf []byte
	err = e.store.ScanStatsT(e.kv(), n.KV, func(key relation.Tuple, stats *baav.BlockStats) bool {
		scanned++
		if stats == nil {
			return true // block without stats: handled by validation below
		}
		buf = relation.AppendTuple(buf[:0], key)
		m, ok := merged[string(buf)]
		if !ok {
			m = &statsAcc{key: key}
			merged[string(buf)] = m
			order = append(order, m)
		}
		m.stats.Merge(stats)
		return true
	})
	e.scanned.Add(scanned)
	if err != nil {
		return nil, err
	}
	out := NewPartRel(lay.attrs, e.workers)
	for i, m := range order {
		row := m.key.Clone()
		for _, a := range n.Aggs {
			v, err := statsFinal(m, a, valPos)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out.Parts[i%e.workers] = append(out.Parts[i%e.workers], row)
	}
	return out, nil
}

type statsAcc struct {
	key   relation.Tuple
	stats baav.BlockStats
}

func statsFinal(m *statsAcc, a AggSpec, valPos map[string]int) (relation.Value, error) {
	if a.Star || a.Func == sql.AggCount {
		return relation.Int(m.stats.Rows), nil
	}
	i, ok := valPos[a.Attr]
	if !ok {
		return relation.Value{}, fmt.Errorf("kba: stats aggregate attribute %q not a value attribute", a.Attr)
	}
	if i >= len(m.stats.Attrs) || !m.stats.Attrs[i].Valid {
		return relation.Value{}, fmt.Errorf("kba: no statistics for attribute %q", a.Attr)
	}
	st := m.stats.Attrs[i]
	switch a.Func {
	case sql.AggSum:
		return relation.Float(st.Sum), nil
	case sql.AggMin:
		return relation.Float(st.Min), nil
	case sql.AggMax:
		return relation.Float(st.Max), nil
	case sql.AggAvg:
		if m.stats.Rows == 0 {
			return relation.Null(), nil
		}
		return relation.Float(st.Sum / float64(m.stats.Rows)), nil
	default:
		return relation.Value{}, fmt.Errorf("kba: aggregate %s not supported from statistics", a.Func)
	}
}
