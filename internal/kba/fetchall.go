package kba

import (
	"zidian/internal/baav"
	"zidian/internal/relation"
)

// runExtendFetchAll replaces the interleaved ∝ with retrieve-then-join: the
// whole parameter instance is scanned into a per-worker hash index, the
// input is repartitioned by the join key, and the join runs locally,
// writing its rows through s.
func (e *executor) runExtendFetchAll(n *Extend, s *rowSink) (*PartRel, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	lay, err := e.layoutOf(n, n.lay, in.Attrs, nil)
	if err != nil {
		return nil, err
	}
	attrs, err := e.compile(s, lay.attrs)
	if err != nil {
		return nil, err
	}
	keyIdx := lay.key
	// Phase 1: fetch the entire instance, workers splitting storage nodes,
	// placing each block on its hash owner (the shuffle the strawman pays
	// for the whole relation) and indexing it there by key.
	wholeKey := identity(len(keyIdx))
	type placed struct {
		key  relation.Tuple
		blk  *baav.Block
		home int
	}
	scanned := make([][]placed, e.workers)
	err = e.walkScan(n.KV, lay, func(w int, key relation.Tuple, blk *baav.Block) {
		home := hashTuple(key, wholeKey, e.workers)
		if home != w {
			var moved int64
			for j, t := range blk.Tuples {
				moved += multiplicity(blk, j) * int64(t.SizeBytes())
			}
			e.shuffle.Add(moved)
		}
		scanned[w] = append(scanned[w], placed{key: key, blk: blk, home: home})
	})
	if err != nil {
		return nil, err
	}
	indexes := make([]map[string][]*baav.Block, e.workers)
	for w := range indexes {
		indexes[w] = make(map[string][]*baav.Block)
	}
	var buf []byte
	for _, ps := range scanned {
		for _, p := range ps {
			buf = relation.AppendTuple(buf[:0], p.key)
			index := indexes[p.home]
			index[string(buf)] = append(index[string(buf)], p.blk)
		}
	}

	// Phase 2: repartition the input by key and hash join locally.
	shuffled := repartition(in, keyIdx, &e.shuffle)
	out := NewPartRel(attrs, e.workers)
	err = ForWorkers(e.workers, shuffled.Len(), func(w int) error {
		part := shuffled.Parts[w]
		match := make([][]*baav.Block, len(part))
		var buf []byte
		count := 0
		for i, row := range part {
			buf = appendKey(buf[:0], row, keyIdx)
			match[i] = indexes[w][string(buf)]
			for _, blk := range match[i] {
				count += int(blk.Rows())
			}
		}
		if count == 0 {
			return nil
		}
		wr := s.writer(count, true)
		for i, row := range part {
			for _, blk := range match[i] {
				wr.block(row, blk)
			}
		}
		out.Parts[w] = wr.finish(w)
		return nil
	})
	return out, err
}
