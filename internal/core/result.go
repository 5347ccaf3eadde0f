package core

import (
	"fmt"
	"sort"

	"zidian/internal/baav"
	"zidian/internal/kba"
	"zidian/internal/ra"
	"zidian/internal/relation"
)

// ToResult converts an executed plan output into the query's relational
// answer: output columns are selected by name, then ORDER BY and LIMIT are
// applied. Identical output rows are delivered adjacently, at the position
// of their first occurrence. An Empty plan has no output to convert.
func (p *PlanInfo) ToResult(out *kba.PartRel) (*ra.Result, error) {
	res := &ra.Result{Cols: p.Query.OutNames}
	if p.Empty {
		return res, nil
	}
	rel, err := kba.FromRows(out.Attrs, out.Rows(), out.Attrs)
	if err != nil {
		return nil, err
	}
	attrs := rel.Attrs()
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	idx := make([]int, len(p.OutCols))
	for i, c := range p.OutCols {
		j, ok := pos[c]
		if !ok {
			return nil, fmt.Errorf("core: plan output missing column %q (have %v)", c, attrs)
		}
		idx[i] = j
	}
	for _, row := range rel.Flatten() {
		res.Rows = append(res.Rows, row.Project(idx))
	}
	if len(p.Query.OrderBy) > 0 {
		keyIdx := make([]int, len(p.Query.OrderBy))
		for i, k := range p.Query.OrderBy {
			keyIdx[i] = -1
			for j, n := range p.Query.OutNames {
				if n == k.Name {
					keyIdx[i] = j
					break
				}
			}
			if keyIdx[i] < 0 {
				return nil, fmt.Errorf("core: ORDER BY column %q missing", k.Name)
			}
		}
		keys := p.Query.OrderBy
		sort.SliceStable(res.Rows, func(a, b int) bool {
			for i, k := range keys {
				c := relation.Compare(res.Rows[a][keyIdx[i]], res.Rows[b][keyIdx[i]])
				if c != 0 {
					if k.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
	}
	if p.Query.Limit >= 0 && len(res.Rows) > p.Query.Limit {
		res.Rows = res.Rows[:p.Query.Limit]
	}
	return res, nil
}

// Answer plans nothing: it executes an already generated plan sequentially
// — the KBA executor at one worker — on the store and shapes the relational
// answer, returning the data-access statistics of the run.
func Answer(info *PlanInfo, store *baav.Store) (*ra.Result, *kba.ExecStats, error) {
	var out *kba.PartRel
	var stats kba.ExecStats
	if !info.Empty {
		var err error
		if out, stats, err = kba.Run(info.Root, store, 1, nil); err != nil {
			return nil, nil, err
		}
	}
	res, err := info.ToResult(out)
	if err != nil {
		return nil, nil, err
	}
	return res, &stats, nil
}
