package kba

import (
	"math"
	"sync"
	"sync/atomic"

	"zidian/internal/baav"
	"zidian/internal/relation"
)

// PartRel is a partitioned intermediate relation: flat rows over a fixed
// attribute layout, split across workers. It is what every operator of the
// executor consumes and produces; with one worker it is a plain row slice.
type PartRel struct {
	Attrs []string
	Parts [][]relation.Tuple
}

// NewPartRel returns an empty relation over attrs with one partition per
// worker.
func NewPartRel(attrs []string, workers int) *PartRel {
	return &PartRel{Attrs: attrs, Parts: make([][]relation.Tuple, workers)}
}

// Rows gathers all partitions into one slice, partition-major.
func (v *PartRel) Rows() []relation.Tuple {
	out := make([]relation.Tuple, 0, v.Len())
	for _, p := range v.Parts {
		out = append(out, p...)
	}
	return out
}

// Len returns the row count across all partitions.
func (v *PartRel) Len() int {
	n := 0
	for _, p := range v.Parts {
		n += len(p)
	}
	return n
}

// Positions resolves attribute names to column positions.
func (v *PartRel) Positions(names []string) ([]int, error) { return positions(v.Attrs, names) }

// Lit wraps an already computed PartRel as a plan leaf, so composed
// operators (union → distinct) and the TaaV baseline's join tail run their
// intermediates through the one executor. It gets no operator span.
type Lit struct{ V *PartRel }

func (l *Lit) Children() []Plan { return nil }
func (l *Lit) String() string   { return "lit" }

// hashTuple routes a projected key to a worker: FNV-1a over the key
// columns' order-preserving encodings.
func hashTuple(t relation.Tuple, idx []int, workers int) int {
	if workers == 1 {
		return 0
	}
	h := uint64(fnvOffset64)
	for _, i := range idx {
		h = hashValue(h, t[i])
	}
	return int(h % uint64(workers))
}

const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211

// hashValue folds v's order-preserving encoding, built in a stack buffer,
// into the FNV-1a state h.
func hashValue(h uint64, v relation.Value) uint64 {
	var buf [64]byte
	for _, c := range relation.AppendValue(buf[:0], v) {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// appendKey appends the encodings of t's values at idx to buf: the bytes an
// operator keys its hash map by, looked up as m[string(buf)] so that only a
// key's first sighting allocates.
func appendKey(buf []byte, t relation.Tuple, idx []int) []byte {
	for _, i := range idx {
		buf = relation.AppendValue(buf, t[i])
	}
	return buf
}

// rowSlab carves an operator's output rows out of one backing array,
// allocated at its final size from a count the operator makes before it
// copies anything. Each row is a window capped at its width, so an append
// to one row reallocates it instead of reaching its neighbour, and a caller
// may modify the rows it is handed.
type rowSlab struct {
	vals  []relation.Value
	width int
}

func newRowSlab(rows, width int) rowSlab {
	return rowSlab{vals: make([]relation.Value, rows*width), width: width}
}

// next returns the slab's next row, zeroed.
func (s *rowSlab) next() relation.Tuple {
	t := relation.Tuple(s.vals[:s.width:s.width])
	s.vals = s.vals[s.width:]
	return t
}

// multiplicity returns how many rows tuple j of blk stands for.
func multiplicity(blk *baav.Block, j int) int64 {
	if blk.Counts == nil {
		return 1
	}
	return blk.Counts[j]
}

// blockRows appends to out one row lead ++ t, carved from slab, per tuple t
// of blk and per multiplicity.
func blockRows(out []relation.Tuple, slab *rowSlab, lead relation.Tuple, blk *baav.Block) []relation.Tuple {
	for j, t := range blk.Tuples {
		for range multiplicity(blk, j) {
			row := slab.next()
			copy(row, lead)
			copy(row[len(lead):], t)
			out = append(out, row)
		}
	}
	return out
}

// rowSink is where ∝ and ⋈ write their output rows. Alone, each row is
// carved from the producer's slab as it is made. Under a σ and the π above
// it (runFused), each worker makes its rows in one scratch row instead: σ
// tests it, and only π's columns of a row σ passes are carved from the slab
// — sized, as the producer's own would be, from the count before filtering,
// but at π's width — so neither the producer's rows nor σ's or π's output
// slices exist apart from the answer.
type rowSink struct {
	width int // the producer's row width
	// check and cols are σ's predicates and π's positions in the producer's
	// row; made counts, per worker, the rows the producer made before σ.
	// All three are nil when nothing is fused.
	check predChecks
	cols  []int
	made  []int64
}

// rowWriter is one worker's side of a rowSink: the rows it keeps, the slab
// they are carved from and, fused, the scratch row the producer fills.
type rowWriter struct {
	sink    *rowSink
	slab    rowSlab
	rows    []relation.Tuple
	scratch relation.Tuple
}

// writer returns worker w's writer for the count rows it will make.
func (s *rowSink) writer(w, count int) rowWriter {
	wr := rowWriter{sink: s, rows: make([]relation.Tuple, 0, count)}
	if s.made == nil {
		wr.slab = newRowSlab(count, s.width)
		return wr
	}
	s.made[w] = int64(count)
	wr.slab = newRowSlab(count, len(s.cols))
	wr.scratch = make(relation.Tuple, s.width)
	return wr
}

// row returns the row the producer fills next and hands to keep.
func (w *rowWriter) row() relation.Tuple {
	if w.scratch != nil {
		return w.scratch
	}
	return w.slab.next()
}

// keep keeps a row from row(): as it is, or — fused — π's columns of it if
// σ passes it.
func (w *rowWriter) keep(t relation.Tuple) {
	if w.scratch != nil {
		if !w.sink.check.ok(t) {
			return
		}
		t = w.project(t)
	}
	w.rows = append(w.rows, t)
}

// project carves π's columns of t from the slab.
func (w *rowWriter) project(t relation.Tuple) relation.Tuple {
	out := w.slab.next()
	for j, c := range w.sink.cols {
		out[j] = t[c]
	}
	return out
}

// block keeps one row lead ++ t per tuple t of blk and per multiplicity;
// fused, σ tests each distinct tuple once.
func (w *rowWriter) block(lead relation.Tuple, blk *baav.Block) {
	if w.scratch == nil {
		w.rows = blockRows(w.rows, &w.slab, lead, blk)
		return
	}
	copy(w.scratch, lead)
	for j, t := range blk.Tuples {
		copy(w.scratch[len(lead):], t)
		if !w.sink.check.ok(w.scratch) {
			continue
		}
		for range multiplicity(blk, j) {
			w.rows = append(w.rows, w.project(w.scratch))
		}
	}
}

// inlineRows is the input size below which an operator runs its per-worker
// closures one after another on the calling goroutine instead of fanning
// them out: starting and joining a goroutine per worker costs more than
// that many rows of any operator's work. It is read off
// BenchmarkFanoutBreakEven (CHANGES.md, PR 18, has the table). The
// partition layout does not depend on which side of it an input falls.
const inlineRows = 512

// Unsized is the row count of a per-worker loop whose input is not
// materialized yet (a storage scan): it always fans out.
const Unsized = math.MaxInt

// repartition redistributes rows so that rows agreeing on the key columns
// land on the same worker. Bytes of rows that change workers are added to
// shuffle. Empty keyIdx sends everything to worker 0 (a gather). With one
// worker every row is already colocated: the input is returned as is.
func repartition(v *PartRel, keyIdx []int, shuffle *atomic.Int64) *PartRel {
	return repartitionAs(v, keyIdx, shuffle, v.Len() < inlineRows)
}

// repartitionAs is repartition with the inline decision made by the caller.
func repartitionAs(v *PartRel, keyIdx []int, shuffle *atomic.Int64, inline bool) *PartRel {
	workers := len(v.Parts)
	if workers == 1 {
		return v
	}
	out := NewPartRel(v.Attrs, workers)
	// buckets[src][dst]
	buckets := make([][][]relation.Tuple, workers)
	forWorkers(workers, inline, func(w int) error {
		local := make([][]relation.Tuple, workers)
		var moved int64
		for _, row := range v.Parts[w] {
			dst := 0
			if len(keyIdx) > 0 {
				dst = hashTuple(row, keyIdx, workers)
			}
			local[dst] = append(local[dst], row)
			if dst != w {
				moved += int64(row.SizeBytes())
			}
		}
		buckets[w] = local
		shuffle.Add(moved)
		return nil
	})
	for dst := 0; dst < workers; dst++ {
		for src := 0; src < workers; src++ {
			out.Parts[dst] = append(out.Parts[dst], buckets[src][dst]...)
		}
	}
	return out
}

// ForWorkers runs fn once per worker and returns the first error in worker
// order. The workers run concurrently when there is more than one and the
// loop has at least inlineRows rows to process between them; otherwise fn
// runs for worker 0, 1, … on the calling goroutine, so sequential
// execution and small inputs start no goroutine. What each worker computes
// is the same either way.
func ForWorkers(workers, rows int, fn func(w int) error) error {
	return forWorkers(workers, rows < inlineRows, fn)
}

func forWorkers(workers int, inline bool, fn func(w int) error) error {
	if workers == 1 || inline {
		for w := 0; w < workers; w++ {
			if err := fn(w); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
