package baav

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"zidian/internal/kv"
	"zidian/internal/relation"
)

// wideBlock builds a block of rows tuples over 14 value attributes — eight
// ints, two floats, four strings, the shape of MOT's obs_full — every
// fourth row a repeat, so that compression produces multiplicities.
func wideBlock(rows int, compress bool) (*Block, int) {
	const width = 14
	b := &Block{}
	for i := 0; i < rows; i++ {
		j := int64(i - i%4/3) // rows 3, 7, 11, … repeat their predecessor
		t := make(relation.Tuple, width)
		for c := 0; c < 8; c++ {
			t[c] = relation.Int(j*31 + int64(c))
		}
		t[8], t[9] = relation.Float(float64(j)/7), relation.Float(-float64(j))
		for c := 10; c < width; c++ {
			t[c] = relation.String(fmt.Sprintf("value-%d-of-row-%d", c, j))
		}
		b.Add(t, compress)
	}
	return b, width
}

// checkPruned holds a pruned decode to the full one: the same error or
// none, no stats built, the same multiplicities, every tuple the projection
// of the full tuple, and the same accounting size — which is that of the
// full-width rows, multiplicities applied.
func checkPruned(t *testing.T, data []byte, width int, cols []int) {
	t.Helper()
	full, _, fullSize, fullErr := decodeBlock(data, width, nil, true)
	pruned, stats, size, err := decodeBlock(data, width, cols, false)
	if (fullErr == nil) != (err == nil) {
		t.Fatalf("full decode: %v, decode of columns %v: %v", fullErr, cols, err)
	}
	if err != nil {
		return
	}
	if stats != nil {
		t.Fatalf("stats built for a caller that takes none: %+v", stats)
	}
	if len(pruned.Tuples) != len(full.Tuples) || (pruned.Counts == nil) != (full.Counts == nil) {
		t.Fatalf("columns %v: %d tuples (counts %v), all columns: %d (counts %v)",
			cols, len(pruned.Tuples), pruned.Counts != nil, len(full.Tuples), full.Counts != nil)
	}
	var want int64
	for i, ft := range full.Tuples {
		mult := int64(1)
		if full.Counts != nil {
			if mult = full.Counts[i]; pruned.Counts[i] != mult {
				t.Fatalf("tuple %d: multiplicity %d, all columns: %d", i, pruned.Counts[i], mult)
			}
		}
		want += mult * int64(ft.SizeBytes())
		if !pruned.Tuples[i].Equal(ft.Project(cols)) {
			t.Fatalf("tuple %d columns %v = %v, all columns: %v", i, cols, pruned.Tuples[i], ft)
		}
	}
	if size != fullSize || size != want {
		t.Fatalf("columns %v: size %d, all columns: %d, summed from the tuples: %d", cols, size, fullSize, want)
	}
}

func TestDecodeBlockColumns(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, withStats := range []bool{false, true} {
			b, width := wideBlock(23, compress)
			var stats *BlockStats
			if withStats {
				stats = b.ComputeStats(width)
			}
			enc := EncodeBlock(b, stats, width)
			for _, cols := range [][]int{{}, {0}, {13}, {2, 9, 11}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}} {
				checkPruned(t, enc, width, cols)
			}
			// An append to a decoded tuple must not reach its neighbour.
			blk, _, _, err := decodeBlock(enc, width, []int{2, 9}, false)
			if err != nil {
				t.Fatal(err)
			}
			next := blk.Tuples[1].Clone()
			_ = append(blk.Tuples[0], relation.Int(-1))
			if !blk.Tuples[1].Equal(next) {
				t.Fatalf("append to tuple 0 overwrote tuple 1: %v", blk.Tuples[1])
			}
		}
	}
}

// TestDecodeBlockBoundsCounts: a tuple count, multiplicity or stats width
// the payload cannot hold is corruption, reported before it sizes anything.
func TestDecodeBlockBoundsCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	over := binary.AppendUvarint(nil, 1<<63)
	row := relation.EncodeTuple(relation.Tuple{relation.Int(1)})
	for name, data := range map[string][]byte{
		"tuple count":  append([]byte{0}, huge...),
		"with counts":  append(append([]byte{flagCounts}, huge...), 1, 2),
		"stats width":  append(append(append([]byte{flagStats, 0}, 1), huge...), 0, 0, 0),
		"multiplicity": append(append([]byte{flagCounts, 1}, over...), row...),
	} {
		if _, _, err := DecodeBlock(data, 1); !errors.Is(err, errCorruptBlock) {
			t.Errorf("%s: err = %v, want %v", name, err, errCorruptBlock)
		}
	}
	if _, err := readStats(append(append([]byte{flagStats, 0}, 1), huge...), &BlockStats{}); !errors.Is(err, errCorruptBlock) {
		t.Errorf("readStats: err = %v, want %v", err, errCorruptBlock)
	}
}

// FuzzDecodeBlock: no payload makes the decoder panic, and on every payload
// a pruned decode is the projection of the full one with the same
// accounting size (see checkPruned). mask picks the columns.
func FuzzDecodeBlock(f *testing.F) {
	for _, compress := range []bool{false, true} {
		b, width := wideBlock(9, compress)
		f.Add(EncodeBlock(b, nil, width), uint8(width), uint16(0b0000_1010_0000_0100))
		f.Add(EncodeBlock(b, b.ComputeStats(width), width), uint8(width), uint16(0))
	}
	esc := &Block{Tuples: []relation.Tuple{{relation.String("a\x00b"), relation.Null(), relation.String("")}}}
	f.Add(EncodeBlock(esc, nil, 3), uint8(3), uint16(0b101))
	f.Add([]byte{flagCounts | flagStats, 0xff, 0xff, 0xff, 0xff, 0x0f}, uint8(1), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, width uint8, mask uint16) {
		w := int(width % 17)
		cols := []int{}
		for c := 0; c < w; c++ {
			if mask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		checkPruned(t, data, w, cols)
		if blk, stats, err := DecodeBlock(data, w); err == nil && stats != nil && stats.Rows != blk.Rows() {
			t.Fatalf("stats say %d rows, block has %d", stats.Rows, blk.Rows())
		}
	})
}

// TestReadsAccountWholeBlocks: through the store, a read of some columns
// returns the projection of the read of all of them and reports the same
// size — the full-width rows' — keyed or scanned, segmented or not.
func TestReadsAccountWholeBlocks(t *testing.T) {
	db := relation.NewDatabase()
	part := relation.NewRelation(relation.MustSchema("PART",
		[]relation.Attr{{Name: "id", Kind: relation.KindInt}, {Name: "bin", Kind: relation.KindInt},
			{Name: "name", Kind: relation.KindString}, {Name: "cost", Kind: relation.KindFloat}},
		[]string{"id"}))
	for i := 0; i < 60; i++ {
		part.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 7)),
			relation.String(fmt.Sprintf("part-%d", i%5)), relation.Float(float64(i%3) / 2)})
	}
	db.Add(part)
	const name = "PART_by_bin"
	schema := MustSchema(RelSchemas(db), KVSchema{Name: name, Rel: "PART", Key: []string{"bin"}, Val: []string{"id", "name", "cost"}})
	st, err := Map(db, schema, kv.NewCluster(kv.EngineHash, 3), Options{SegmentThreshold: 4, Compress: true, Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	// scan visits the instance node by node, as the executor does.
	scan := func(cols []int, fn func(key relation.Tuple, blk *Block, size int64)) {
		t.Helper()
		for node := 0; node < st.Cluster.NodeCount(); node++ {
			err := st.ScanInstanceNodeT(nil, node, name, cols, func(key relation.Tuple, blk *Block, size int64) bool {
				fn(key, blk, size)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	var keys []relation.Tuple
	var fullRows [][]relation.Tuple
	var fullSizes []int64
	scan(nil, func(key relation.Tuple, blk *Block, size int64) {
		keys = append(keys, key)
		fullRows = append(fullRows, blk.Expand())
		fullSizes = append(fullSizes, size)
		var want int64
		for _, r := range blk.Expand() {
			want += int64(r.SizeBytes())
		}
		if size != want {
			t.Fatalf("block %v: size %d, its rows sum to %d", key, size, want)
		}
	})
	if len(keys) != 7 {
		t.Fatalf("scanned %d blocks, want 7", len(keys))
	}
	keys = append(keys, relation.Tuple{relation.Int(-1)}) // no such block
	for _, cols := range [][]int{{}, {2}, {0, 2}} {
		blks, sizes, _, err := st.FetchBlocksT(nil, name, keys, cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		if blks[7] != nil || sizes[7] != 0 {
			t.Fatalf("absent block: %v, size %d", blks[7], sizes[7])
		}
		i := 0
		scan(cols, func(key relation.Tuple, blk *Block, size int64) {
			for _, got := range [][]relation.Tuple{blk.Expand(), blks[i].Expand()} {
				if len(got) != len(fullRows[i]) {
					t.Fatalf("block %v columns %v: %d rows, want %d", key, cols, len(got), len(fullRows[i]))
				}
				for r := range got {
					if !got[r].Equal(fullRows[i][r].Project(cols)) {
						t.Fatalf("block %v columns %v row %d = %v, all columns: %v", key, cols, r, got[r], fullRows[i][r])
					}
				}
			}
			if size != fullSizes[i] || sizes[i] != fullSizes[i] {
				t.Fatalf("block %v columns %v: scanned size %d, fetched size %d, all columns: %d", key, cols, size, sizes[i], fullSizes[i])
			}
			i++
		})
	}
}

// BenchmarkDecodeBlock is the decode kernel alone on a 64-row, 14-wide
// block: every column against the three a typical index_scan plan reads,
// with and without a stats header in the payload.
func BenchmarkDecodeBlock(b *testing.B) {
	blk, width := wideBlock(64, true)
	for _, withStats := range []bool{false, true} {
		var stats *BlockStats
		if withStats {
			stats = blk.ComputeStats(width)
		}
		enc := EncodeBlock(blk, stats, width)
		for _, c := range []struct {
			name string
			cols []int
		}{{"all", nil}, {"3of14", []int{2, 9, 11}}} {
			b.Run(fmt.Sprintf("cols=%s/stats=%v", c.name, withStats), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(enc)))
				for i := 0; i < b.N; i++ {
					if _, _, _, err := decodeBlock(enc, width, c.cols, c.cols == nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
