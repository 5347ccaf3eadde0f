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
		if i := b.index(t); i >= 0 {
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
	b.Tuples = append(b.Tuples, t)
	if b.Counts != nil {
		b.Counts = append(b.Counts, 1)
	}
	return true
}

// Remove deletes one occurrence of t, reporting whether anything changed.
func (b *Block) Remove(t relation.Tuple) bool {
	i := b.index(t)
	if i < 0 {
		return false
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

// index returns the position of the first stored tuple equal to t, or -1.
func (b *Block) index(t relation.Tuple) int {
	for i, u := range b.Tuples {
		if u.Equal(t) {
			return i
		}
	}
	return -1
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
	st := &BlockStats{Attrs: make([]AttrStats, 0, width)}
	b.statsInto(st, width)
	return st
}

// statsInto is ComputeStats into st, reusing its attribute slice.
func (b *Block) statsInto(st *BlockStats, width int) {
	st.Rows = b.Rows()
	st.Attrs = slices.Grow(st.Attrs[:0], width)[:width]
	for i := range st.Attrs {
		st.Attrs[i] = AttrStats{Valid: true}
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
}

// Block encoding layout (integers uvarint unless said otherwise):
//
//	flags byte           bit0 = has multiplicity counts, bit1 = has a stats
//	                     header, bit2 = one tuple whose stats are its own
//	uvarint distinct     number of stored tuples
//	[stats]              if bit1: uvarint rows, uvarint width, then per
//	                     attribute a valid byte (0 or 1) and, if valid,
//	                     min, max and sum (relation.AppendCompactFloat)
//	per tuple            [uvarint count if bit0] + width values in the
//	                     compact codec (relation.AppendCompactValue)
//
// A block with statistics and one distinct tuple — most blocks of a store
// keyed by a primary key — writes bit2 instead of a header: its stats are
// its tuple's (min = max = the value, sum = value × count, rows = count),
// and a reader builds them from the tuple exactly as ComputeStats would.
const (
	flagCounts     byte = 1 << 0
	flagStats      byte = 1 << 1
	flagTupleStats byte = 1 << 2
)

var errCorruptBlock = errors.New("baav: corrupt block encoding")

// EncodeBlock serializes a block (and optional stats) into one KV value.
// The stats of a one-tuple block are not written: they are its tuple's.
func EncodeBlock(b *Block, stats *BlockStats, width int) []byte {
	return appendBlock(nil, b, stats, width)
}

// appendBlock appends EncodeBlock's encoding of the block to dst.
func appendBlock(dst []byte, b *Block, stats *BlockStats, width int) []byte {
	var flags byte
	if b.Counts != nil {
		flags |= flagCounts
	}
	switch {
	case stats == nil:
	case len(b.Tuples) == 1:
		flags |= flagTupleStats
		stats = nil
	default:
		flags |= flagStats
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(b.Tuples)))
	if stats != nil {
		dst = binary.AppendUvarint(dst, uint64(stats.Rows))
		dst = binary.AppendUvarint(dst, uint64(len(stats.Attrs)))
		for _, a := range stats.Attrs {
			if !a.Valid {
				dst = append(dst, 0)
				continue
			}
			dst = append(dst, 1)
			dst = relation.AppendCompactFloat(dst, a.Min)
			dst = relation.AppendCompactFloat(dst, a.Max)
			dst = relation.AppendCompactFloat(dst, a.Sum)
		}
	}
	for i, t := range b.Tuples {
		if len(t) != width {
			panic(fmt.Sprintf("baav: tuple width %d != block width %d", len(t), width))
		}
		if b.Counts != nil {
			dst = binary.AppendUvarint(dst, uint64(b.Counts[i]))
		}
		dst = relation.AppendCompactTuple(dst, t)
	}
	return dst
}

// payloadHeader reads the flags and distinct-tuple count that lead a block
// payload, returning the offset just past them. Unknown flags, a header
// beside bit2, and bit2 on other than one tuple are corruption.
func payloadHeader(data []byte) (flags byte, n uint64, off int, err error) {
	if len(data) == 0 {
		return 0, 0, 0, errCorruptBlock
	}
	flags = data[0]
	n, k := binary.Uvarint(data[1:])
	switch {
	case k <= 0, flags&^(flagCounts|flagStats|flagTupleStats) != 0:
		return 0, 0, 0, errCorruptBlock
	case flags&flagTupleStats != 0 && (n != 1 || flags&flagStats != 0):
		return 0, 0, 0, errCorruptBlock
	}
	return flags, n, 1 + k, nil
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
		flags, n, off, err := payloadHeader(data)
		if err != nil {
			return err
		}
		perTuple := max(width, 1)
		if flags&flagCounts != 0 {
			perTuple++
			a.counted = true
		}
		if n > uint64((len(data)-off)/perTuple) {
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
	flags, n, off, err := payloadHeader(data)
	if err != nil {
		return nil, 0, false, err
	}
	if wantStats && flags&(flagStats|flagTupleStats) != 0 {
		stats = &BlockStats{}
	}
	if flags&flagStats != 0 {
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
		k, sz, err := relation.DecodeCompactColumns(t, data[off:], width, cols)
		if err != nil {
			return nil, 0, false, errCorruptBlock
		}
		if flags&flagTupleStats != 0 && stats != nil {
			if err := tupleStats(data[off:], width, mult, stats); err != nil {
				return nil, 0, false, err
			}
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

// readStats reads only the statistics of an encoded block of the given
// width — its header, or for a one-tuple block its tuple's — without
// decoding the tuples: the fast path of statistics-backed aggregates. It
// reads into st, reusing its attribute slice; ok is false when the block
// carries no stats.
func readStats(data []byte, width int, st *BlockStats) (ok bool, err error) {
	flags, _, off, err := payloadHeader(data)
	switch {
	case err != nil:
		return false, err
	case flags&flagStats != 0:
		_, err := decodeStats(data, off, st)
		return err == nil, err
	case flags&flagTupleStats == 0:
		return false, nil
	}
	mult := int64(1)
	if flags&flagCounts != 0 {
		c, k := binary.Uvarint(data[off:])
		if k <= 0 || c > math.MaxInt64 {
			return false, errCorruptBlock
		}
		off += k
		mult = int64(c)
	}
	if err := tupleStats(data[off:], width, mult, st); err != nil {
		return false, err
	}
	return true, nil
}

// tupleStats builds into st — its attribute slice reused, grown once to
// width — the statistics of a block whose one tuple, of multiplicity mult,
// is encoded at the front of data: bit for bit what statsInto computes.
func tupleStats(data []byte, width int, mult int64, st *BlockStats) error {
	st.Rows = mult
	st.Attrs = slices.Grow(st.Attrs[:0], width)[:width]
	off := 0
	for i := range st.Attrs {
		f, numeric, k, err := relation.CompactNumber(data[off:])
		if err != nil {
			return errCorruptBlock
		}
		off += k
		a := AttrStats{}
		if numeric {
			a = AttrStats{Valid: true, Min: f, Max: f}
			a.Sum += f * float64(mult) // from +0, as statsInto sums: a −0 value sums to +0
		}
		st.Attrs[i] = a
	}
	return nil
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
		if off >= len(data) || data[off] > 1 {
			return 0, errCorruptBlock
		}
		valid := data[off] == 1
		off++
		var f [3]float64 // min, max, sum
		if valid {
			k, err := relation.DecodeCompactFloats(f[:], data[off:])
			if err != nil {
				return 0, errCorruptBlock
			}
			off += k
		}
		if st != nil {
			st.Attrs[i] = AttrStats{Valid: valid, Min: f[0], Max: f[1], Sum: f[2]}
		}
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
