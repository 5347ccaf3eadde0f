package kba

import (
	"math"
	"sync"
	"sync/atomic"

	"zidian/internal/baav"
	"zidian/internal/ra"
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

// rowSink is where every row producer writes: a scan, ∝ (interleaved or
// fetch-all), ⋈'s probe side, and the loop over an already built relation.
// It holds the chain exec peels off the producer — a σ over it and a π or γ
// on top, the shapes the planner emits — compiled against the producer's
// row. Alone, each row is carved from the producer's slab as it is made.
// Under a chain, each worker makes its rows in one scratch row: σ tests it,
// and only what the chain outputs of a row σ passes — π's columns, or the
// whole row — is carved, from a slab sized as the producer's own from its
// count before filtering; under γ nothing is carved and the row is folded
// into its group. A longer chain nests: each link runs over the rows of the
// one below.
type rowSink struct {
	// producer feeds the chain and sel, proj and group are its σ, π and γ;
	// each is nil when absent, all for a producer with no chain.
	producer Plan
	sel      *Select
	proj     *Project
	group    *GroupBy

	width, outWidth int        // the producer's row width and a kept row's
	check           predChecks // σ's predicates
	cols            []int      // π's positions; nil: no π
	groupLay        *layout    // γ's layout
	lastKey         int        // the highest γ key position, -1 for none
	// made and passed are, per worker, the rows the producer made and the
	// rows σ passed, for the chain's spans; nil untraced.
	made, passed []int64
}

// peel returns the chain p tops.
func peel(p Plan) *rowSink {
	s := &rowSink{}
	switch n := p.(type) {
	case *Project:
		s.proj, p = n, n.Input
	case *GroupBy:
		s.group, p = n, n.Input
	}
	if n, ok := p.(*Select); ok {
		s.sel, p = n, n.Input
	}
	s.producer = p
	return s
}

// rowWriter is one worker's side of a rowSink.
type rowWriter struct {
	s            *rowSink
	slab         rowSlab
	want         int // rows the next slab is carved for
	rows         []relation.Tuple
	scratch      relation.Tuple // the row a producer fills under a chain
	groups       *groupTable
	made, passed int64
	dec          baav.BlockBuf // the ∝ block fetched decodes into
}

// writer returns a worker's writer for the count rows its producer will make
// at most; fill says the producer makes them through row and block rather
// than keeping rows it already has.
func (s *rowSink) writer(count int, fill bool) rowWriter {
	wr := rowWriter{s: s, want: count}
	if s.group != nil {
		wr.groups = newGroupTable(len(s.groupLay.key), len(s.groupLay.aggs))
	} else if count > 0 {
		wr.rows = make([]relation.Tuple, 0, count)
	}
	if fill && s.producer != nil {
		wr.scratch = make(relation.Tuple, s.width)
	}
	return wr
}

// reserve sizes the next slab for n rows.
func (w *rowWriter) reserve(n int) { w.slab, w.want = rowSlab{}, n }

// carve returns a fresh row of the slab at the chain's output width.
func (w *rowWriter) carve() relation.Tuple {
	if len(w.slab.vals) == 0 {
		w.slab = newRowSlab(w.want, w.s.outWidth)
	}
	return w.slab.next()
}

// row returns the row the producer fills next and hands to keep.
func (w *rowWriter) row() relation.Tuple {
	if w.scratch != nil {
		return w.scratch
	}
	return w.carve()
}

// keep takes one row the producer made, if σ passes it: into γ's groups, or
// as the chain's output.
func (w *rowWriter) keep(t relation.Tuple) {
	w.made++
	if !w.pass(t, 1) {
		return
	}
	if w.groups != nil {
		fold(w.groups.group(t, w.s.groupLay.key), t, w.s.groupLay.aggs, 1)
		return
	}
	w.rows = append(w.rows, w.out(t))
}

// pass reports whether σ passes the n rows t stands for.
func (w *rowWriter) pass(t relation.Tuple, n int64) bool {
	if !w.s.check.ok(t) {
		return false
	}
	w.passed += n
	return true
}

// out is the row the chain outputs for t: π's columns of it or a copy of the
// scratch row, carved from the slab, or else t itself — a row the producer
// carved, or a row of an already built relation, kept by reference.
func (w *rowWriter) out(t relation.Tuple) relation.Tuple {
	if w.s.cols == nil && w.scratch == nil {
		return t
	}
	o := w.carve()
	if w.s.cols == nil {
		copy(o, t)
	}
	for j, c := range w.s.cols {
		o[j] = t[c]
	}
	return o
}

// block keeps one row lead ++ t per tuple t of blk and per multiplicity;
// under a chain σ tests each distinct tuple once. When every γ key lies in
// lead, a block's rows all fall in one group, looked up once, on the first
// row σ passes.
func (w *rowWriter) block(lead relation.Tuple, blk *baav.Block) {
	w.made += blk.Rows()
	if w.scratch != nil {
		copy(w.scratch, lead)
	}
	var st []ra.AggState
	for j, t := range blk.Tuples {
		n := multiplicity(blk, j)
		if w.scratch == nil {
			for range n {
				row := w.carve()
				copy(row, lead)
				copy(row[len(lead):], t)
				w.rows = append(w.rows, row)
			}
			continue
		}
		copy(w.scratch[len(lead):], t)
		switch {
		case !w.pass(w.scratch, n):
		case w.groups == nil:
			for range n {
				w.rows = append(w.rows, w.out(w.scratch))
			}
		default:
			if st == nil || w.s.lastKey >= len(lead) {
				st = w.groups.group(w.scratch, w.s.groupLay.key)
			}
			fold(st, w.scratch, w.s.groupLay.aggs, n)
		}
	}
}

// fetched keeps the rows of lead against key k's block of kb, as block
// does, decoding the block — its value positions in cols, with
// multiplicities — into the writer's buffer unless the buffer holds it
// already. It returns the block, nil when none is visible, and its
// accounting size.
func (w *rowWriter) fetched(lead relation.Tuple, kb *baav.KeyBatch, k int32, cols []int) (*baav.Block, int64, error) {
	blk, size, err := kb.Decode(k, cols, &w.dec)
	if blk != nil {
		w.block(lead, blk)
	}
	return blk, size, err
}

// finish returns what the writer of the given worker kept — its rows, or
// γ's partial states — and records its counts for the spans.
func (w *rowWriter) finish(worker int) []relation.Tuple {
	if w.s.made != nil {
		w.s.made[worker], w.s.passed[worker] = w.made, w.passed
	}
	if w.groups != nil {
		return w.groups.partials()
	}
	return w.rows
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
