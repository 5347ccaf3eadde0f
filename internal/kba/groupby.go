package kba

import (
	"fmt"

	"zidian/internal/baav"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/sql"
)

// aggGroup is one group's key and its aggregate states.
type aggGroup struct {
	key    relation.Tuple
	states []*ra.AggState
}

// groupOf returns key's group in groups, creating it with naggs empty
// states on first sight. (The map stays a plain local of the calling
// worker: small group sets then cost no heap map.)
func groupOf(groups map[string]*aggGroup, key relation.Tuple, naggs int) (g *aggGroup, created bool) {
	ks := relation.KeyString(key)
	if g, ok := groups[ks]; ok {
		return g, false
	}
	g = &aggGroup{key: key, states: make([]*ra.AggState, naggs)}
	for i := range g.states {
		g.states[i] = ra.NewAggState()
	}
	groups[ks] = g
	return g, true
}

// runGroupBy aggregates with local partial states, shuffles the encoded
// partials by group key, and finalizes per worker — the standard two-phase
// parallel aggregation that keeps communication proportional to the number
// of groups, not rows.
func (e *executor) runGroupBy(n *GroupBy) (*PartRel, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	lay, err := e.layoutOf(n, n.lay, in.Attrs, nil)
	if err != nil {
		return nil, err
	}
	keyIdx, aggIdx := lay.key, lay.aggs

	// Phase 1: local partial aggregation, encoded as flat tuples
	// key ++ state_1 ++ ... ++ state_m.
	stateW := ra.AggStateWidth()
	partial := NewPartRel(lay.partial, e.workers)
	err = ForWorkers(e.workers, in.Len(), func(w int) error {
		groups := make(map[string]*aggGroup)
		var order []*aggGroup
		for _, row := range in.Parts[w] {
			g, created := groupOf(groups, row.Project(keyIdx), len(n.Aggs))
			if created {
				order = append(order, g)
			}
			for i := range n.Aggs {
				if aggIdx[i] < 0 {
					g.states[i].AddCount()
				} else {
					g.states[i].Add(row[aggIdx[i]])
				}
			}
		}
		local := make([]relation.Tuple, 0, len(order))
		for _, g := range order {
			row := g.key.Clone()
			for _, st := range g.states {
				row = append(row, st.EncodeState()...)
			}
			local = append(local, row)
		}
		partial.Parts[w] = local
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: shuffle partials by key and merge.
	shuffled := repartition(partial, lay.rkey, &e.shuffle)
	out := NewPartRel(lay.attrs, e.workers)
	err = ForWorkers(e.workers, shuffled.Len(), func(w int) error {
		groups := make(map[string]*aggGroup)
		var order []*aggGroup
		for _, row := range shuffled.Parts[w] {
			g, created := groupOf(groups, row[:len(n.Keys)], len(n.Aggs))
			if created {
				order = append(order, g)
			}
			for i := range n.Aggs {
				st, err := ra.DecodeAggState(row, len(n.Keys)+i*stateW)
				if err != nil {
					return err
				}
				g.states[i].Merge(st)
			}
		}
		local := make([]relation.Tuple, 0, len(order))
		for _, g := range order {
			row := g.key.Clone()
			for i, a := range n.Aggs {
				row = append(row, g.states[i].Final(a.Func))
			}
			local = append(local, row)
		}
		out.Parts[w] = local
		return nil
	})
	return out, err
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
	err = e.store.ScanStatsT(e.kv(), n.KV, func(key relation.Tuple, stats *baav.BlockStats) bool {
		scanned++
		if stats == nil {
			return true // block without stats: handled by validation below
		}
		ks := relation.KeyString(key)
		m, ok := merged[ks]
		if !ok {
			m = &statsAcc{key: key}
			merged[ks] = m
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
