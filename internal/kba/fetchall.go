package kba

import (
	"zidian/internal/baav"
	"zidian/internal/relation"
)

// runExtendFetchAll replaces the interleaved ∝ with retrieve-then-join: the
// whole parameter instance is scanned into a per-worker hash index, the
// input is repartitioned by the join key, and the join runs locally.
func (e *executor) runExtendFetchAll(n *Extend) (*PartRel, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	lay, err := e.layoutOf(n, n.lay, in.Attrs, nil)
	if err != nil {
		return nil, err
	}
	keyIdx := lay.key
	// Phase 1: fetch the entire instance, workers splitting storage nodes,
	// indexing blocks by key and placing each block on its hash owner (the
	// shuffle the strawman pays for the whole relation).
	nodes := e.store.Cluster.NodeCount()
	wholeKey := identity(len(keyIdx))
	type chunk struct {
		key  string
		home int
		rows []relation.Tuple
	}
	chunks := make([][]chunk, e.workers)
	err = ForWorkers(e.workers, Unsized, func(w int) error {
		var local []chunk
		var blocks, data, bytes, moved int64
		for node := w; node < nodes; node += e.workers {
			err := e.store.ScanInstanceNodeT(e.kv(), node, n.KV, lay.cols, func(key relation.Tuple, blk *baav.Block, size int64) bool {
				rows := blk.Expand()
				e.trace.CountBlocks(1)
				blocks++
				countBlock(key, len(rows), lay.width, size, &data, &bytes)
				home := hashTuple(key, wholeKey, e.workers)
				if home != w {
					for _, r := range rows {
						moved += int64(r.SizeBytes())
					}
				}
				local = append(local, chunk{key: relation.KeyString(key), home: home, rows: rows})
				return true
			})
			if err != nil {
				return err
			}
		}
		e.scanned.Add(blocks)
		e.data.Add(data)
		e.bytes.Add(bytes)
		e.shuffle.Add(moved)
		chunks[w] = local
		return nil
	})
	if err != nil {
		return nil, err
	}
	indexes := make([]map[string][]relation.Tuple, e.workers)
	for w := range indexes {
		indexes[w] = make(map[string][]relation.Tuple)
	}
	for _, cs := range chunks {
		for _, c := range cs {
			indexes[c.home][c.key] = append(indexes[c.home][c.key], c.rows...)
		}
	}

	// Phase 2: repartition the input by key and hash join locally.
	shuffled := repartition(in, keyIdx, &e.shuffle)
	out := NewPartRel(lay.attrs, e.workers)
	err = ForWorkers(e.workers, shuffled.Len(), func(w int) error {
		var local []relation.Tuple
		for _, row := range shuffled.Parts[w] {
			k := relation.KeyString(row.Project(keyIdx))
			for _, r := range indexes[w][k] {
				local = append(local, row.Concat(r))
			}
		}
		out.Parts[w] = local
		return nil
	})
	return out, err
}
