package core

import (
	"fmt"
	"sort"

	"zidian/internal/baav"
	"zidian/internal/kba"
	"zidian/internal/ra"
	"zidian/internal/relation"
)

// resultShape is how a plan's output rows become the query's answer: the
// plan column behind each output column, and the output column behind each
// ORDER BY key. It depends on the plan and the query alone, so Plan derives
// it once and every execution of the plan reads it.
type resultShape struct {
	// attrs is the attribute layout the shape was resolved against.
	attrs []string
	cols  []int
	order []int
}

// fits reports whether attrs is the very layout the shape was resolved
// against — the slice Resolve stored on the plan's root, which a run of
// that plan hands back — and not merely one of the same length.
func (s *resultShape) fits(attrs []string) bool {
	return len(attrs) == len(s.attrs) && (len(attrs) == 0 || &attrs[0] == &s.attrs[0])
}

// shapeOver resolves the result shape against the plan's output attributes.
func (p *PlanInfo) shapeOver(attrs []string) (*resultShape, error) {
	s := &resultShape{attrs: attrs, cols: make([]int, len(p.OutCols))}
	for i, c := range p.OutCols {
		s.cols[i] = -1
		for j, a := range attrs {
			if a == c {
				s.cols[i] = j
			}
		}
		if s.cols[i] < 0 {
			return nil, fmt.Errorf("core: plan output missing column %q (have %v)", c, attrs)
		}
	}
	for _, k := range p.Query.OrderBy {
		at := -1
		for j, n := range p.Query.OutNames {
			if n == k.Name {
				at = j
				break
			}
		}
		if at < 0 {
			return nil, fmt.Errorf("core: ORDER BY column %q missing", k.Name)
		}
		s.order = append(s.order, at)
	}
	return s, nil
}

// ToResult converts an executed plan output into the query's relational
// answer: output columns are selected by name, then ORDER BY and LIMIT are
// applied. Identical output rows are delivered adjacently, at the position
// of their first occurrence. An Empty plan has no output to convert.
func (p *PlanInfo) ToResult(out *kba.PartRel) (*ra.Result, error) {
	res := &ra.Result{Cols: p.Query.OutNames}
	if p.Empty {
		return res, nil
	}
	shape := p.shape
	if shape == nil || !shape.fits(out.Attrs) {
		// A PlanInfo assembled by hand, or an output some other plan
		// produced: resolve the columns against this output.
		var err error
		if shape, err = p.shapeOver(out.Attrs); err != nil {
			return nil, err
		}
	}
	rows := out.Rows()
	if len(rows) > 0 {
		res.Rows = make([]relation.Tuple, len(rows))
		order := firstOccurrenceOrder(rows)
		for i := range rows {
			at := i
			if order != nil {
				at = order[i]
			}
			res.Rows[i] = rows[at].Project(shape.cols)
		}
	}
	if len(shape.order) > 0 {
		keys := p.Query.OrderBy
		sort.SliceStable(res.Rows, func(a, b int) bool {
			for i, k := range keys {
				c := relation.Compare(res.Rows[a][shape.order[i]], res.Rows[b][shape.order[i]])
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

// firstOccurrenceOrder returns the order in which rows are delivered when it
// is not the order they arrived in: identical rows adjacent, at the position
// of the first of them. It returns nil when no row repeats — every answer of
// fewer than two rows, and most others.
func firstOccurrenceOrder(rows []relation.Tuple) []int {
	if len(rows) < 2 {
		return nil
	}
	// Rows are identical when their encodings are: encode them all into one
	// string and key the map by its substrings, so that no row costs an
	// allocation of its own.
	enc := make([]byte, 0, 16*len(rows[0])*len(rows))
	ends := make([]int, len(rows))
	for i, row := range rows {
		enc = relation.AppendTuple(enc, row)
		ends[i] = len(enc)
	}
	keys := string(enc)
	// first[i] is the index of the first row identical to row i; copies[f]
	// counts the rows identical to row f.
	first := make([]int, len(rows))
	copies := make([]int, len(rows))
	seen := make(map[string]int, len(rows))
	start := 0
	for i, end := range ends {
		k := keys[start:end]
		start = end
		f, ok := seen[k]
		if !ok {
			f = i
			seen[k] = i
		}
		first[i] = f
		copies[f]++
	}
	if len(seen) == len(rows) {
		return nil
	}
	// Turn the counts into each group's start position, then deal the rows
	// out in arrival order.
	at := 0
	for f, n := range copies {
		copies[f] = at
		at += n
	}
	order := make([]int, len(rows))
	for i, f := range first {
		order[copies[f]] = i
		copies[f]++
	}
	return order
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
