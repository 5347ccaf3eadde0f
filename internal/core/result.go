package core

import (
	"fmt"
	"math"
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
	// identity marks cols as 0..len(attrs)-1: the output rows are the
	// answer's rows as they stand.
	identity bool
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
	s.identity = len(s.cols) == len(attrs)
	for i, c := range s.cols {
		s.identity = s.identity && c == i
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
// of their first occurrence. An Empty plan has no output to convert. When
// the plan's rows are the answer's as they stand — every column selected in
// order, no row repeated — they are handed back without a copy: the
// executor's rows are the run's own, capped windows the caller may modify.
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
		order := firstOccurrenceOrder(rows)
		if order == nil && shape.identity {
			res.Rows = rows
		} else {
			slab := make([]relation.Value, len(rows)*len(shape.cols))
			res.Rows = make([]relation.Tuple, len(rows))
			for i := range rows {
				at := i
				if order != nil {
					at = order[i]
				}
				t := relation.Tuple(slab[:len(shape.cols):len(shape.cols)])
				slab = slab[len(shape.cols):]
				for j, c := range shape.cols {
					t[j] = rows[at][c]
				}
				res.Rows[i] = t
			}
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
	// Rows meet by a 64-bit hash of their values and are compared only when
	// the hashes agree. seen maps a hash to the first row carrying it; rows
	// whose hashes collide without being equal chain on through other, which
	// is made only if that ever happens. first[i], made at the first repeat,
	// is the index of the first row identical to row i.
	seen := make(map[uint64]int, len(rows))
	var other map[int]int
	var first []int
	for i, row := range rows {
		h := hashRow(row)
		f, ok := seen[h]
		if !ok {
			seen[h] = i
			if first != nil {
				first[i] = i
			}
			continue
		}
		for !rows[f].Equal(row) {
			next, ok := other[f]
			if !ok {
				if other == nil {
					other = make(map[int]int)
				}
				other[f], next = i, i
			}
			f = next
		}
		if f != i && first == nil {
			first = make([]int, len(rows))
			for j := range i {
				first[j] = j
			}
		}
		if first != nil {
			first[i] = f
		}
	}
	if first == nil {
		return nil
	}
	// copies[f] counts the rows identical to row f; turn the counts into each
	// group's start position, then deal the rows out in arrival order.
	copies := make([]int, len(rows))
	for _, f := range first {
		copies[f]++
	}
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

// hashRow is FNV-1a over a row's values: kind, then the integer, the float's
// bits or the string's bytes.
func hashRow(t relation.Tuple) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	word := func(x uint64) {
		for range 8 {
			h = (h ^ (x & 0xff)) * prime64
			x >>= 8
		}
	}
	for _, v := range t {
		h = (h ^ uint64(v.Kind)) * prime64
		switch v.Kind {
		case relation.KindInt:
			word(uint64(v.Int))
		case relation.KindFloat:
			word(math.Float64bits(v.Flt))
		case relation.KindString:
			for i := 0; i < len(v.Str); i++ {
				h = (h ^ uint64(v.Str[i])) * prime64
			}
			word(uint64(len(v.Str)))
		}
	}
	return h
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
