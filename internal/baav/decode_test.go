package baav

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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

// checkPruned holds a pruned decode of a block's segment payloads to the
// full one: the same error or none, no stats built, the same
// multiplicities, every tuple the projection of the full tuple, and the
// same accounting size — which is that of the full-width rows,
// multiplicities applied.
func checkPruned(t *testing.T, segs [][]byte, width int, cols []int) {
	t.Helper()
	full, _, fullSize, fullErr := decodeSegs(segs, width, nil, true)
	pruned, stats, size, err := decodeSegs(segs, width, cols, false)
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
				checkPruned(t, [][]byte{enc}, width, cols)
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
	row := relation.AppendCompactTuple(nil, relation.Tuple{relation.Int(1)})
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
	if _, err := readStats(append(append([]byte{flagStats, 0}, 1), huge...), 1, &BlockStats{}); !errors.Is(err, errCorruptBlock) {
		t.Errorf("readStats: err = %v, want %v", err, errCorruptBlock)
	}
}

// corruptPayloads are block payloads of width 1 that a compact codec
// reader must refuse. Those flagged as one tuple whose stats are its own
// are refused by readStats too, which reads that tuple.
var corruptPayloads = map[string][]byte{
	"truncated int varint":         {flagTupleStats, 1, 0x02, 0x80},
	"truncated count varint":       {flagCounts | flagTupleStats, 1, 0x80},
	"string length past payload":   {flagTupleStats, 1, 0x04, 5, 'a', 'b'},
	"unknown value tag":            {flagTupleStats, 1, 0x09},
	"unknown tag beside a header":  {0, 2, 0x01, 0x07},
	"one-tuple flag on two tuples": {flagTupleStats, 2, 0x01, 0x01},
	"header beside one-tuple flag": {flagStats | flagTupleStats, 1, 1, 1, 0, 0x01},
	"unknown flag":                 {0x08, 1, 0x01},
	"truncated header float":       {flagStats, 2, 2, 1, 1, 1, 0x00, 0x00, 0x01, 0x01},
	"stats valid byte not 0 or 1":  {flagStats, 2, 2, 1, 2, 0x01, 0x01},
}

// TestDecodeBlockCorruptPayloads: every corrupt payload is errCorruptBlock
// to the decoder, full or pruned, and to readStats when it carries stats.
func TestDecodeBlockCorruptPayloads(t *testing.T) {
	for name, data := range corruptPayloads {
		for _, cols := range [][]int{nil, {}} {
			if _, _, _, err := decodeBlock(data, 1, cols, true); !errors.Is(err, errCorruptBlock) {
				t.Errorf("%s, columns %v: err = %v, want %v", name, cols, err, errCorruptBlock)
			}
		}
		if data[0]&(flagStats|flagTupleStats) == 0 {
			continue
		}
		if ok, err := readStats(data, 1, &BlockStats{}); !errors.Is(err, errCorruptBlock) {
			t.Errorf("%s: readStats = %v, %v, want %v", name, ok, err, errCorruptBlock)
		}
	}
}

// fuzzValues are the values fuzzBlock draws from by index: the edges of
// both codecs.
var fuzzValues = []relation.Value{
	relation.Null(),
	relation.Int(0), relation.Int(-1), relation.Int(1 << 53), relation.Int(1<<53 + 1), relation.Int(-(1<<53 + 1)),
	relation.Int(math.MinInt64), relation.Int(math.MaxInt64),
	relation.Float(math.Copysign(0, -1)), relation.Float(0), relation.Float(0.5),
	relation.Float(1<<53 + 2), relation.Float(-(1<<53 + 2)), relation.Float(math.Inf(1)), relation.Float(math.NaN()),
	relation.String(""), relation.String("\x00"), relation.String("a\x00b"),
}

// fuzzBlock builds a block of tuples width values wide from data: per
// value a byte picks a kind — one of fuzzValues, an int or float from the
// next 8 bytes, or a string of up to 7 next bytes — until data runs out or
// the block holds 64 rows. With compress, equal tuples share a
// multiplicity.
func fuzzBlock(data []byte, width int, compress bool) *Block {
	next := func(n int) []byte {
		var b [8]byte
		copy(b[:], data[:min(n, len(data))])
		data = data[min(n, len(data)):]
		return b[:n]
	}
	b := &Block{}
	for rows := 0; len(data) > 0 && rows < 64; rows++ {
		t := make(relation.Tuple, width)
		for i := range t {
			switch k := next(1)[0]; k % 4 {
			case 0:
				t[i] = fuzzValues[int(k/4)%len(fuzzValues)]
			case 1:
				t[i] = relation.Int(int64(binary.LittleEndian.Uint64(next(8))))
			case 2:
				t[i] = relation.Float(math.Float64frombits(binary.LittleEndian.Uint64(next(8))))
			default:
				t[i] = relation.String(string(next(int(k/4) % 8)))
			}
		}
		b.Add(t, compress)
	}
	return b
}

// sameStats reports whether two stats agree bit for bit: rows, and per
// attribute validity and, when valid, the bits of min, max and sum.
func sameStats(a, b *BlockStats) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Rows != b.Rows || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i, x := range a.Attrs {
		y := b.Attrs[i]
		if x.Valid != y.Valid || x.Valid && (math.Float64bits(x.Min) != math.Float64bits(y.Min) ||
			math.Float64bits(x.Max) != math.Float64bits(y.Max) || math.Float64bits(x.Sum) != math.Float64bits(y.Sum)) {
			return false
		}
	}
	return true
}

// checkRoundTrip stores blk through the store's segment encoder and holds
// what comes back to it: the same tuples bit for bit, the same
// multiplicities, a pruned decode that agrees with the full one, and stats
// — from the decoder and from readStats, merged over the segments as a scan
// merges them — bit-identical to ComputeStats of each segment, merged.
func checkRoundTrip(t *testing.T, blk *Block, width int, cols []int, opts Options) {
	t.Helper()
	if len(blk.Tuples) == 0 {
		return // the store writes no empty block: zero segments is a tombstone
	}
	var enc segEncoder
	enc.encode(blk, width, opts)
	segments := func() [][]byte {
		var segs [][]byte
		enc.segments(func(_ uint32, v []byte) { segs = append(segs, v) })
		if err := stripSegHeader(segs); err != nil {
			t.Fatal(err)
		}
		return segs
	}
	var want *BlockStats
	if opts.Stats {
		for lo := 0; lo < len(blk.Tuples); lo += opts.SegmentThreshold {
			hi := min(lo+opts.SegmentThreshold, len(blk.Tuples))
			part := Block{Tuples: blk.Tuples[lo:hi]}
			if blk.Counts != nil {
				part.Counts = blk.Counts[lo:hi]
			}
			if st := part.ComputeStats(width); want == nil {
				want = st
			} else {
				want.Merge(st)
			}
		}
	}
	got, stats, _, err := decodeSegs(segments(), width, nil, true)
	if err != nil {
		t.Fatalf("decode of an encoded block: %v", err)
	}
	if len(got.Tuples) != len(blk.Tuples) || (got.Counts == nil) != (blk.Counts == nil) {
		t.Fatalf("%d tuples (counts %v), encoded %d (counts %v)", len(got.Tuples), got.Counts != nil, len(blk.Tuples), blk.Counts != nil)
	}
	for i, tup := range blk.Tuples {
		if string(relation.AppendCompactTuple(nil, got.Tuples[i])) != string(relation.AppendCompactTuple(nil, tup)) {
			t.Fatalf("tuple %d = %v, encoded %v", i, got.Tuples[i], tup)
		}
		if blk.Counts != nil && got.Counts[i] != blk.Counts[i] {
			t.Fatalf("tuple %d: multiplicity %d, encoded %d", i, got.Counts[i], blk.Counts[i])
		}
	}
	if !sameStats(stats, want) {
		t.Fatalf("decoded stats %+v, computed %+v", stats, want)
	}
	var read *BlockStats
	for i, seg := range segments() {
		var st BlockStats
		ok, err := readStats(seg, width, &st)
		if err != nil || ok != opts.Stats {
			t.Fatalf("readStats of segment %d = %v, %v; stats kept: %v", i, ok, err, opts.Stats)
		}
		if !ok {
			continue
		}
		if i == 0 {
			read = &st
		} else {
			read.Merge(&st)
		}
	}
	if !sameStats(read, want) {
		t.Fatalf("readStats %+v, computed %+v", read, want)
	}
	checkPruned(t, segments(), width, cols)
}

// FuzzDecodeBlock: no payload makes the decoder panic, and on every payload
// a pruned decode is the projection of the full one with the same
// accounting size (see checkPruned). mask picks the columns. The input
// also builds a block (fuzzBlock) of 1 to 6 columns that must survive the
// store's encoder (checkRoundTrip); mask's top bits pick compression, the
// stats and the segment threshold.
func FuzzDecodeBlock(f *testing.F) {
	for _, compress := range []bool{false, true} {
		b, width := wideBlock(9, compress)
		f.Add(EncodeBlock(b, nil, width), uint8(width), uint16(0b0000_1010_0000_0100))
		f.Add(EncodeBlock(b, b.ComputeStats(width), width), uint8(width), uint16(0))
		one := &Block{Tuples: b.Tuples[:1]}
		f.Add(EncodeBlock(one, one.ComputeStats(width), width), uint8(width), uint16(0b0111_0000_0000_0110))
	}
	esc := &Block{Tuples: []relation.Tuple{{relation.String("a\x00b"), relation.Null(), relation.String("")}}}
	f.Add(EncodeBlock(esc, nil, 3), uint8(3), uint16(0b101))
	f.Add([]byte{flagCounts | flagStats, 0xff, 0xff, 0xff, 0xff, 0x0f}, uint8(1), uint16(1))
	for _, data := range corruptPayloads {
		f.Add(data, uint8(1), uint16(0b1100_0000_0000_0001))
	}
	// Every edge value, one per tuple and all in one, at a threshold of 1.
	var edges []byte
	for i := range fuzzValues {
		edges = append(edges, byte(4*i))
	}
	f.Add(edges, uint8(0), uint16(0b1001_0000_0000_0000))
	f.Add(edges, uint8(5), uint16(0b1101_0000_0000_0000))
	f.Fuzz(func(t *testing.T, data []byte, width uint8, mask uint16) {
		w := int(width % 17)
		cols := []int{}
		for c := 0; c < w; c++ {
			if mask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		checkPruned(t, [][]byte{data}, w, cols)
		if blk, stats, err := DecodeBlock(data, w); err == nil && stats != nil && stats.Rows != blk.Rows() {
			t.Fatalf("stats say %d rows, block has %d", stats.Rows, blk.Rows())
		}
		w = w%6 + 1
		thresholds := []int{1, 2, 3, 4096}
		opts := Options{Compress: mask&(1<<15) != 0, Stats: mask&(1<<14) == 0, SegmentThreshold: thresholds[mask>>12&3]}
		keep := []int{}
		for c := 0; c < w; c++ {
			if mask&(1<<c) != 0 {
				keep = append(keep, c)
			}
		}
		checkRoundTrip(t, fuzzBlock(data, w, opts.Compress), w, keep, opts)
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

// vehicleFullBlock is a block of MOT's vehicle_full instance: one VEHICLE
// row's twelve value attributes, the shape of most blocks a point read
// fetches.
func vehicleFullBlock() (*Block, int) {
	t := relation.Tuple{
		relation.String("FORD"), relation.String("FORD-M017"), relation.String("PETROL"), relation.String("SILVER"),
		relation.Int(2004), relation.Int(1600), relation.String("LONDON"), relation.Int(1240), relation.Int(5),
		relation.Int(142), relation.String("BAND-C"), relation.String("2004-03-17"),
	}
	return &Block{Tuples: []relation.Tuple{t}}, len(t)
}

// BenchmarkBlockCodec is the block codec end to end on a one-tuple
// vehicle_full block and a 64-tuple, 14-wide block, both with stats:
// encode through the store's segment encoder, decode every column, decode
// the three columns a typical index_scan plan reads, and read the stats
// alone as a header walk does.
func BenchmarkBlockCodec(b *testing.B) {
	one, oneWidth := vehicleFullBlock()
	wide, wideWidth := wideBlock(64, true)
	for _, c := range []struct {
		name  string
		blk   *Block
		width int
		cols  []int
	}{{"vehicle_full", one, oneWidth, []int{0, 4, 6}}, {"64x14", wide, wideWidth, []int{2, 9, 11}}} {
		opts := DefaultOptions()
		var enc segEncoder
		enc.encode(c.blk, c.width, opts)
		payload := enc.buf[len(binary.AppendUvarint(nil, 1)):]
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc.encode(c.blk, c.width, opts)
			}
			b.SetBytes(int64(len(enc.buf)))
		})
		for _, d := range []struct {
			name string
			cols []int
		}{{"decode", nil}, {"pruned", c.cols}} {
			b.Run(c.name+"/"+d.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(payload)))
				for i := 0; i < b.N; i++ {
					if _, _, _, err := decodeBlock(payload, c.width, d.cols, d.cols == nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(c.name+"/readStats", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			var st BlockStats
			for i := 0; i < b.N; i++ {
				if ok, err := readStats(payload, c.width, &st); !ok || err != nil {
					b.Fatal(ok, err)
				}
			}
		})
	}
}
