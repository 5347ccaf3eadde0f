package baav

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"zidian/internal/relation"
)

// Block is the B of a keyed block (k, B): a collection of tuples over the
// value attributes of a KV schema. When compression is on (Section 8.2),
// Tuples holds distinct tuples and Counts their multiplicities; otherwise
// Counts is nil and every tuple has multiplicity one.
type Block struct {
	Tuples []relation.Tuple
	Counts []int64 // nil when uncompressed
}

// Rows returns the logical number of tuples including multiplicities.
func (b *Block) Rows() int64 {
	if b.Counts == nil {
		return int64(len(b.Tuples))
	}
	var n int64
	for _, c := range b.Counts {
		n += c
	}
	return n
}

// Distinct returns the number of stored (distinct) tuples, the |B| that
// defines the degree of a KV instance.
func (b *Block) Distinct() int { return len(b.Tuples) }

// Expand materializes the block as a flat tuple list with multiplicities
// applied.
func (b *Block) Expand() []relation.Tuple {
	if b.Counts == nil {
		return b.Tuples
	}
	out := make([]relation.Tuple, 0, b.Rows())
	for i, t := range b.Tuples {
		for c := int64(0); c < b.Counts[i]; c++ {
			out = append(out, t)
		}
	}
	return out
}

// Add inserts one occurrence of t into the block, deduplicating when
// compress is set. It reports whether a new distinct tuple was added.
func (b *Block) Add(t relation.Tuple, compress bool) bool {
	if compress {
		for i, u := range b.Tuples {
			if u.Equal(t) {
				if b.Counts == nil {
					b.Counts = make([]int64, len(b.Tuples))
					for j := range b.Counts {
						b.Counts[j] = 1
					}
				}
				b.Counts[i]++
				return false
			}
		}
	}
	b.Tuples = append(b.Tuples, t)
	if b.Counts != nil {
		b.Counts = append(b.Counts, 1)
	}
	return true
}

// Remove deletes one occurrence of t, reporting whether anything changed.
func (b *Block) Remove(t relation.Tuple) bool {
	for i, u := range b.Tuples {
		if !u.Equal(t) {
			continue
		}
		if b.Counts != nil && b.Counts[i] > 1 {
			b.Counts[i]--
			return true
		}
		b.Tuples = append(b.Tuples[:i], b.Tuples[i+1:]...)
		if b.Counts != nil {
			b.Counts = append(b.Counts[:i], b.Counts[i+1:]...)
		}
		return true
	}
	return false
}

// AttrStats summarizes one numeric value attribute of a block.
type AttrStats struct {
	Valid bool // false for non-numeric attributes
	Min   float64
	Max   float64
	Sum   float64
}

// BlockStats is the per-block group-by statistics of Section 8.2: row count
// and min/max/sum per numeric attribute (avg = Sum/Rows).
type BlockStats struct {
	Rows  int64
	Attrs []AttrStats
}

// ComputeStats derives statistics for a block of the given width.
func (b *Block) ComputeStats(width int) *BlockStats {
	st := &BlockStats{Rows: b.Rows(), Attrs: make([]AttrStats, width)}
	for i := range st.Attrs {
		st.Attrs[i].Valid = true
	}
	for ti, t := range b.Tuples {
		mult := int64(1)
		if b.Counts != nil {
			mult = b.Counts[ti]
		}
		for i := 0; i < width; i++ {
			a := &st.Attrs[i]
			if !a.Valid {
				continue
			}
			v := t[i]
			if v.Kind != relation.KindInt && v.Kind != relation.KindFloat {
				a.Valid = false
				continue
			}
			f := v.AsFloat()
			if ti == 0 || f < a.Min {
				a.Min = f
			}
			if ti == 0 || f > a.Max {
				a.Max = f
			}
			a.Sum += f * float64(mult)
		}
	}
	if len(b.Tuples) == 0 {
		for i := range st.Attrs {
			st.Attrs[i].Valid = false
		}
	}
	return st
}

// Block encoding layout (all integers little-endian or uvarint):
//
//	flags byte           bit0 = has multiplicity counts, bit1 = has stats
//	uvarint distinct     number of stored tuples
//	[stats]              if bit1: uvarint width, then per attribute:
//	                     1 byte valid flag; if valid, min/max/sum float64
//	per tuple            [uvarint count if bit0] + width encoded values
const (
	flagCounts byte = 1 << 0
	flagStats  byte = 1 << 1
)

var errCorruptBlock = errors.New("baav: corrupt block encoding")

// EncodeBlock serializes a block (and optional stats) into one KV value.
func EncodeBlock(b *Block, stats *BlockStats, width int) []byte {
	var flags byte
	if b.Counts != nil {
		flags |= flagCounts
	}
	if stats != nil {
		flags |= flagStats
	}
	out := []byte{flags}
	out = binary.AppendUvarint(out, uint64(len(b.Tuples)))
	if stats != nil {
		out = binary.AppendUvarint(out, uint64(stats.Rows))
		out = binary.AppendUvarint(out, uint64(len(stats.Attrs)))
		var buf [8]byte
		for _, a := range stats.Attrs {
			if !a.Valid {
				out = append(out, 0)
				continue
			}
			out = append(out, 1)
			for _, f := range []float64{a.Min, a.Max, a.Sum} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
				out = append(out, buf[:]...)
			}
		}
	}
	for i, t := range b.Tuples {
		if len(t) != width {
			panic(fmt.Sprintf("baav: tuple width %d != block width %d", len(t), width))
		}
		if b.Counts != nil {
			out = binary.AppendUvarint(out, uint64(b.Counts[i]))
		}
		out = relation.AppendTuple(out, t)
	}
	return out
}

// DecodeBlock deserializes a block of the given width. Stats are returned
// when present.
func DecodeBlock(data []byte, width int) (*Block, *BlockStats, error) {
	b, stats, _, err := decodeBlock(data, width, nil, true)
	return b, stats, err
}

// decodeBlock decodes one block payload (no segment-count header) into an
// arena of its own. cols lists, ascending, the value positions a tuple keeps
// (nil keeps all width of them); the others are stepped over in the
// encoding and cost no Value. The stats header is built only when wantStats
// is set and stepped over otherwise. size is the accounting size of the
// block as fetched — every tuple at full width, multiplicities applied —
// whatever cols says: what a plan reads of a block does not change what
// fetching it cost.
func decodeBlock(data []byte, width int, cols []int, wantStats bool) (b *Block, stats *BlockStats, size int64, err error) {
	return decodeSegs([][]byte{data}, width, cols, wantStats)
}

// decodeSegs decodes one block from its ordered segment payloads into an
// arena of its own, with decodeBlock's cols, wantStats and size.
func decodeSegs(segs [][]byte, width int, cols []int, wantStats bool) (*Block, *BlockStats, int64, error) {
	var a blockArena
	if err := a.count(segs, width, cols); err != nil {
		return nil, nil, 0, err
	}
	a.alloc()
	b := &Block{}
	stats, size, err := a.decode(b, segs, width, cols, wantStats)
	if err != nil {
		return nil, nil, 0, err
	}
	return b, stats, size, nil
}

// blockArena is the backing store a batch of blocks decodes into: one array
// each of tuple headers, multiplicities and values. count reads the tuple
// counts of every payload of the batch first, so alloc makes each array
// once, at its final size, and decode carves the blocks out of them: each
// block's Tuples and Counts and each tuple are windows capped so that an
// append to one cannot reach its neighbour.
type blockArena struct {
	tuples []relation.Tuple
	counts []int64
	vals   []relation.Value
	// What count has seen: tuples, values kept of them, and whether any
	// payload carries multiplicities.
	ntuples, nvals int
	counted        bool
}

// count adds one block's segment payloads to the arena's size. A tuple takes
// at least a byte per value and a byte of count, so a tuple count the
// payload cannot hold is corruption — caught here, before it sizes an
// allocation.
func (a *blockArena) count(segs [][]byte, width int, cols []int) error {
	keep := width
	if cols != nil {
		keep = len(cols)
	}
	for _, data := range segs {
		if len(data) == 0 {
			return errCorruptBlock
		}
		n, k := binary.Uvarint(data[1:])
		if k <= 0 {
			return errCorruptBlock
		}
		perTuple := max(width, 1)
		if data[0]&flagCounts != 0 {
			perTuple++
			a.counted = true
		}
		if n > uint64((len(data)-1-k)/perTuple) {
			return errCorruptBlock
		}
		a.ntuples += int(n)
		a.nvals += int(n) * keep
	}
	return nil
}

// alloc makes the arena's arrays at the size count reached.
func (a *blockArena) alloc() {
	a.tuples = make([]relation.Tuple, 0, a.ntuples)
	a.vals = make([]relation.Value, 0, a.nvals)
	if a.counted {
		a.counts = make([]int64, 0, a.ntuples)
	}
}

// decode decodes one block from its ordered segment payloads, all counted
// into the arena, into b: the segments' tuples in order, with multiplicities
// when any segment carries them. stats merges the segments' headers (built
// only with wantStats; nil when the first segment has none); size is their
// summed accounting size (see decodeBlock).
func (a *blockArena) decode(b *Block, segs [][]byte, width int, cols []int, wantStats bool) (stats *BlockStats, size int64, err error) {
	first := len(a.tuples)
	counted := false
	for i, data := range segs {
		segStats, segSize, segCounted, err := a.payload(data, width, cols, wantStats)
		if err != nil {
			return nil, 0, err
		}
		size += segSize
		counted = counted || segCounted
		switch {
		case i == 0:
			stats = segStats
		case stats != nil:
			stats.Merge(segStats)
		}
	}
	end := len(a.tuples)
	b.Tuples = a.tuples[first:end:end]
	if counted {
		b.Counts = a.counts[first:end:end]
	}
	return stats, size, nil
}

// payload decodes one segment payload's tuples onto the arena. Where some
// payload of the arena carries multiplicities, every tuple gets one (1 when
// its own payload has none); counted reports whether this one did.
func (a *blockArena) payload(data []byte, width int, cols []int, wantStats bool) (stats *BlockStats, size int64, counted bool, err error) {
	flags := data[0]
	off := 1
	n, k := binary.Uvarint(data[off:])
	off += k
	if flags&flagStats != 0 {
		if wantStats {
			stats = &BlockStats{}
		}
		if off, err = decodeStats(data, off, stats); err != nil {
			return nil, 0, false, err
		}
	}
	counted = flags&flagCounts != 0
	perTuple := max(width, 1)
	if counted {
		perTuple++
	}
	if n > uint64((len(data)-off)/perTuple) {
		return nil, 0, false, errCorruptBlock
	}
	keep := width
	if cols != nil {
		keep = len(cols)
	}
	var rows int64
	for range int(n) {
		mult := int64(1)
		if counted {
			c, k := binary.Uvarint(data[off:])
			if k <= 0 || c > math.MaxInt64 {
				return nil, 0, false, errCorruptBlock
			}
			off += k
			mult = int64(c)
		}
		if a.counts != nil {
			a.counts = append(a.counts, mult)
		}
		lo := len(a.vals)
		a.vals = slices.Grow(a.vals, keep)[:lo+keep]
		t := relation.Tuple(a.vals[lo : lo+keep : lo+keep])
		k, sz, err := relation.DecodeColumns(t, data[off:], width, cols)
		if err != nil {
			return nil, 0, false, err
		}
		off += k
		size += mult * int64(sz)
		rows += mult
		a.tuples = append(a.tuples, t)
	}
	if stats != nil {
		stats.Rows = rows
	}
	return stats, size, counted, nil
}

// readStats reads only the statistics header of an encoded block, without
// decoding the tuples — the fast path of statistics-backed aggregates — into
// st, reusing its attribute slice; ok is false when the block carries no
// header (or it is corrupt).
func readStats(data []byte, st *BlockStats) (ok bool, err error) {
	if len(data) == 0 {
		return false, errCorruptBlock
	}
	if data[0]&flagStats == 0 {
		return false, nil
	}
	_, k := binary.Uvarint(data[1:]) // the distinct count
	if k <= 0 {
		return false, errCorruptBlock
	}
	if _, err := decodeStats(data, 1+k, st); err != nil {
		return false, err
	}
	return true, nil
}

// decodeStats reads the stats header at off into st — its attribute slice
// reused — and returns the offset just past it; with a nil st the header is
// only stepped over.
func decodeStats(data []byte, off int, st *BlockStats) (end int, err error) {
	rows, k := binary.Uvarint(data[off:])
	if k <= 0 {
		return 0, errCorruptBlock
	}
	off += k
	w, k := binary.Uvarint(data[off:])
	if k <= 0 {
		return 0, errCorruptBlock
	}
	off += k
	// Every attribute has at least its valid byte in the payload.
	if w > uint64(len(data)-off) {
		return 0, errCorruptBlock
	}
	if st != nil {
		st.Rows = int64(rows)
		st.Attrs = slices.Grow(st.Attrs[:0], int(w))[:w]
	}
	for i := 0; i < int(w); i++ {
		if off >= len(data) {
			return 0, errCorruptBlock
		}
		valid := data[off]
		off++
		if st != nil {
			st.Attrs[i] = AttrStats{}
		}
		if valid == 0 {
			continue
		}
		if off+24 > len(data) {
			return 0, errCorruptBlock
		}
		if st != nil {
			st.Attrs[i] = AttrStats{
				Valid: true,
				Min:   math.Float64frombits(binary.LittleEndian.Uint64(data[off:])),
				Max:   math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:])),
				Sum:   math.Float64frombits(binary.LittleEndian.Uint64(data[off+16:])),
			}
		}
		off += 24
	}
	return off, nil
}

// Merge folds another stats block into s (attributewise).
func (s *BlockStats) Merge(o *BlockStats) {
	if o == nil {
		return
	}
	first := s.Rows == 0
	s.Rows += o.Rows
	if len(s.Attrs) < len(o.Attrs) {
		s.Attrs = append(s.Attrs, make([]AttrStats, len(o.Attrs)-len(s.Attrs))...)
	}
	for i := range o.Attrs {
		oa := o.Attrs[i]
		sa := &s.Attrs[i]
		if !oa.Valid {
			sa.Valid = false
			continue
		}
		if first || !sa.Valid {
			if first {
				*sa = oa
			}
			continue
		}
		if oa.Min < sa.Min {
			sa.Min = oa.Min
		}
		if oa.Max > sa.Max {
			sa.Max = oa.Max
		}
		sa.Sum += oa.Sum
	}
}
