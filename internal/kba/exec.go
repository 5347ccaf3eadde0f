package kba

import (
	"errors"
	"fmt"
	"sync/atomic"

	"zidian/internal/baav"
	"zidian/internal/obs"
	"zidian/internal/relation"
	"zidian/internal/sql"
)

// ExecStats counts the logical data access of one plan execution: the #get,
// #data (values accessed) and fetched bytes reported in the paper's
// experiments, plus the worker-to-worker communication of the run. Physical
// per-node counters live in kv.Metrics; these are the query-level numbers.
type ExecStats struct {
	Gets         int64 // get invocations against the BaaV store
	Blocks       int64 // keyed blocks fetched by ∝ (hits)
	DataValues   int64 // values accessed (block rows × width, plus keys)
	ScanBlocks   int64 // blocks visited by ScanKV / StatsAgg leaves, posting lists by IndexRange walks
	BytesRead    int64 // accounting size of all fetched data, postings included
	ShuffleBytes int64 // bytes of rows that changed workers in a repartition
}

// Add folds another stats record into s.
func (s *ExecStats) Add(o ExecStats) {
	s.Gets += o.Gets
	s.Blocks += o.Blocks
	s.DataValues += o.DataValues
	s.ScanBlocks += o.ScanBlocks
	s.BytesRead += o.BytesRead
	s.ShuffleBytes += o.ShuffleBytes
}

// Run executes a KBA plan on the given number of workers with the
// interleaved strategy of Section 7.2: intermediates stay partitioned
// across workers, ∝ repartitions its input by the target key and fetches
// only the blocks it needs. One worker is sequential execution — no
// goroutine is started and nothing is shuffled. Under a non-nil trace every
// plan node records an operator span (rows, wall time, inclusive kv delta,
// worker fan-out); a nil trace costs nothing.
func Run(p Plan, store *baav.Store, workers int, t *obs.Trace) (*PartRel, ExecStats, error) {
	return (&executor{store: store, workers: workers, trace: t}).runPlan(p)
}

// RunFetchAll is Run with ∝ flattened into retrieve-then-join, the
// parallelization Section 7.1 describes and rejects; the ablation contrasts
// it with Run.
func RunFetchAll(p Plan, store *baav.Store, workers int) (*PartRel, ExecStats, error) {
	return (&executor{store: store, workers: workers, fetchAll: true}).runPlan(p)
}

// executor is the one implementation of every KBA operator.
type executor struct {
	store   *baav.Store
	workers int
	// fetchAll flattens ∝ into retrieve-then-join (the Section 7.1
	// strawman) instead of the interleaved strategy.
	fetchAll bool
	// trace, when set, records operator spans and statement counters. The
	// span stack stays single-goroutine: run recurses on the driving
	// goroutine only, and ForWorkers joins its workers before any span
	// finishes.
	trace *obs.Trace

	// Scan workers and repartition add concurrently.
	gets, blocks, data, scanned, bytes, shuffle atomic.Int64
}

func (e *executor) runPlan(p Plan) (*PartRel, ExecStats, error) {
	if e.workers < 1 {
		e.workers = 1
	}
	out, err := e.run(p)
	return out, ExecStats{
		Gets:         e.gets.Load(),
		Blocks:       e.blocks.Load(),
		DataValues:   e.data.Load(),
		ScanBlocks:   e.scanned.Load(),
		BytesRead:    e.bytes.Load(),
		ShuffleBytes: e.shuffle.Load(),
	}, err
}

// kv returns the kv-op sink threaded into store calls; nil untraced.
func (e *executor) kv() *obs.KV { return e.trace.KVCounters() }

// run executes a node under an operator span. Workers fan out only inside
// exec, so span open/close stays on the driving goroutine; Lit leaves
// (already computed intermediates) get no span of their own.
func (e *executor) run(p Plan) (*PartRel, error) {
	if l, ok := p.(*Lit); ok {
		return l.V, nil
	}
	span := e.startSpan(p)
	v, err := e.exec(p)
	if span != nil {
		e.finishSpan(span, rowsPerWorker(v))
	}
	return v, err
}

// rowsPerWorker is the row count of each of v's partitions; nil for no v.
func rowsPerWorker(v *PartRel) []int64 {
	if v == nil {
		return nil
	}
	perWorker := make([]int64, len(v.Parts))
	for w, part := range v.Parts {
		perWorker[w] = int64(len(part))
	}
	return perWorker
}

// startSpan opens p's operator span; nil unless the trace records spans.
func (e *executor) startSpan(p Plan) *obs.OpNode {
	if !e.trace.Spans() {
		return nil
	}
	return e.trace.StartOpLazy(OpName(p), func() string { return NodeLabel(p) })
}

// finishSpan closes a span with its operator's output rows per worker — nil
// when the operator failed before it produced any.
func (e *executor) finishSpan(span *obs.OpNode, perWorker []int64) {
	if span == nil {
		return
	}
	var rows int64
	for _, r := range perWorker {
		rows += r
	}
	if perWorker != nil {
		span.Workers = e.workers
		span.PerWorker = perWorker
	}
	e.trace.FinishOp(span, int(rows))
}

func (e *executor) exec(p Plan) (*PartRel, error) {
	switch n := p.(type) {
	case *Const:
		return e.runConst(n)
	case *ScanKV:
		return e.runScan(n, &rowSink{})
	case *IndexRange:
		return e.runRange(n)
	case *Extend:
		return e.runExtend(n, &rowSink{})
	case *Shift:
		return e.runShift(n)
	case *Join:
		return e.runJoin(n, &rowSink{})
	case *Select, *Project, *GroupBy:
		return e.runChain(p)
	case *Distinct:
		return e.runDistinct(n)
	case *Union:
		return e.runUnion(n)
	case *Diff:
		return e.runDiff(n)
	case *StatsAgg:
		return e.runStatsAgg(n)
	default:
		return nil, fmt.Errorf("kba: unknown plan node %T", p)
	}
}

var errUnbound = errors.New("kba: plan template has unbound parameters (call Bind before executing)")

func errUnknownKV(name string) error {
	return fmt.Errorf("kba: unknown KV schema %q", name)
}

// layoutOf returns the layout Resolve stored on a node, or derives it now
// for a node no Resolve has seen: a hand-built plan, or an operator over a
// Lit-wrapped intermediate.
func (e *executor) layoutOf(p Plan, have *layout, l, r []string) (*layout, error) {
	if have != nil {
		return have, nil
	}
	var kvs func(string) *baav.KVSchema
	if e.store != nil {
		kvs = e.store.KVSchema
	}
	return deriveLayout(p, kvs, l, r)
}

func (e *executor) runConst(n *Const) (*PartRel, error) {
	if len(n.Args) > 0 {
		return nil, errUnbound
	}
	lay, err := e.layoutOf(n, n.lay, nil, nil)
	if err != nil {
		return nil, err
	}
	out := NewPartRel(lay.attrs, e.workers)
	// The keys belong to the plan, the rows to whoever runs it: copy them.
	slab := newRowSlab(len(n.Keys), len(n.KeyAttrs))
	for _, k := range n.Keys {
		if len(k) != len(n.KeyAttrs) {
			return nil, fmt.Errorf("kba: constant key %v does not match attrs %v", k, n.KeyAttrs)
		}
		row := slab.next()
		copy(row, k)
		w := 0
		if len(lay.key) > 0 {
			w = hashTuple(row, lay.key, e.workers)
		}
		out.Parts[w] = append(out.Parts[w], row)
	}
	return out, nil
}

// countBlock accounts one fetched or scanned block: its values and the
// accounting size of its key and rows. keyLen and keySize are its key's
// values and their size, rows the block's expanded row count, width and
// size the instance's full width and the whole block's size — a
// column-pruned read accounts for what it fetched, not for what it kept.
func countBlock(keyLen, keySize, rows, width int, size int64, data, bytes *int64) {
	*data += int64(rows*width + keyLen)
	*bytes += int64(keySize) + size
}

// annotateCols records on the ∝ or scan span how many of the instance's
// value attributes the plan reads.
func (e *executor) annotateCols(lay *layout) { e.trace.AnnotateCols(lay.kept(), lay.width) }

// runScan is the KV instance scan, writing its rows through s.
func (e *executor) runScan(n *ScanKV, s *rowSink) (*PartRel, error) {
	lay, err := e.layoutOf(n, n.lay, nil, nil)
	if err != nil {
		return nil, err
	}
	attrs, err := e.compile(s, lay.attrs)
	if err != nil {
		return nil, err
	}
	writers := make([]rowWriter, e.workers)
	for w := range writers {
		writers[w] = s.writer(0, true)
	}
	err = e.walkScan(n.KV, lay, func(w int, key relation.Tuple, blk *baav.Block) {
		writers[w].reserve(int(blk.Rows()))
		writers[w].block(key, blk)
	})
	out := NewPartRel(attrs, e.workers)
	for w := range writers {
		out.Parts[w] = writers[w].finish(w)
	}
	return out, err
}

// walkScan is the one walk of a KV instance scan: the workers split the
// storage nodes — scan output starts partitioned by storage layout — and
// each hands its blocks to visit(w, key, blk) on its own goroutine; the
// scan writes their rows, the fetch-all ∝ indexes the blocks. walkScan does
// the leaf's accounting and annotates the open span with the rows each
// storage node gave and the columns read.
func (e *executor) walkScan(kvName string, lay *layout, visit func(w int, key relation.Tuple, blk *baav.Block)) error {
	nodes := e.store.Cluster.NodeCount()
	// Every node is walked by exactly one worker, so each slot is written
	// race-free.
	perNode := make([]int64, nodes)
	err := ForWorkers(e.workers, Unsized, func(w int) error {
		var blocks, data, bytes int64
		for node := w; node < nodes; node += e.workers {
			err := e.store.ScanInstanceNodeT(e.kv(), node, kvName, lay.cols, func(key relation.Tuple, blk *baav.Block, size int64) bool {
				rows := blk.Rows()
				e.trace.CountBlocks(1)
				blocks++
				perNode[node] += rows
				countBlock(len(key), key.SizeBytes(), int(rows), lay.width, size, &data, &bytes)
				visit(w, key, blk)
				return true
			})
			if err != nil {
				return err
			}
		}
		e.scanned.Add(blocks)
		e.data.Add(data)
		e.bytes.Add(bytes)
		return nil
	})
	e.trace.AnnotateNodes(perNode)
	e.annotateCols(lay)
	return err
}

// runRange walks an IndexRange leaf's postings once (the walk is one
// cluster range scan; parallelizing it would not reduce its cost) and
// shapes its (value, block key) pairs into rows partitioned by their full
// content, so the downstream ∝ starts from an even spread of probe keys,
// accounting the postings as fetched data. A first pass over the pairs
// routes and counts them; the second carves the rows out of one slab, each
// partition's contiguous in one row array.
func (e *executor) runRange(n *IndexRange) (*PartRel, error) {
	lo, hi, err := rangeBounds(n)
	if err != nil {
		return nil, err
	}
	limit, err := rangeWalkLimit(n)
	if err != nil {
		return nil, err
	}
	vals, keys, scanned, err := e.store.Index.RangeLimitT(e.trace, n.Index, lo, hi, n.LoIncl, n.HiIncl, limit)
	if err != nil {
		return nil, err
	}
	e.scanned.Add(int64(scanned))
	lay, err := e.layoutOf(n, n.lay, nil, nil)
	if err != nil {
		return nil, err
	}
	width, workers := len(lay.attrs), e.workers
	dst := make([]int32, len(keys))
	// start[w] is where partition w begins in rows; fill[w] its next slot.
	counts := make([]int, 2*workers+1)
	start, fill := counts[:workers+1], counts[workers+1:]
	var data, bytes int64
	for i, k := range keys {
		if len(k) != width-1 {
			return nil, fmt.Errorf("kba: index %q posts %d key attributes, plan expects %d", n.Index, len(k), width-1)
		}
		v := vals[i]
		data += int64(width)
		bytes += int64(v.SizeBytes() + k.SizeBytes())
		d := 0
		if workers > 1 {
			h := hashValue(fnvOffset64, v)
			for _, x := range k {
				h = hashValue(h, x)
			}
			d = int(h % uint64(workers))
		}
		dst[i] = int32(d)
		start[d+1]++
	}
	for w := 0; w < workers; w++ {
		start[w+1] += start[w]
		fill[w] = start[w]
	}
	slab := newRowSlab(len(keys), width)
	rows := make([]relation.Tuple, len(keys))
	for i, k := range keys {
		row := slab.next()
		row[0] = vals[i]
		copy(row[1:], k)
		rows[fill[dst[i]]] = row
		fill[dst[i]]++
	}
	out := NewPartRel(lay.attrs, workers)
	for w := range out.Parts {
		if from, to := start[w], start[w+1]; from < to {
			out.Parts[w] = rows[from:to:to]
		}
	}
	e.data.Add(data)
	e.bytes.Add(bytes)
	return out, nil
}

// rangeBounds resolves an IndexRange node's bound Args into the values the
// index walk takes. It fails on unresolved slots.
func rangeBounds(n *IndexRange) (lo, hi *relation.Value, err error) {
	resolve := func(a *Arg) (*relation.Value, error) {
		if a == nil {
			return nil, nil
		}
		if a.IsSlot {
			return nil, errUnbound
		}
		v := a.Lit
		return &v, nil
	}
	if lo, err = resolve(n.Lo); err != nil {
		return nil, nil, err
	}
	hi, err = resolve(n.Hi)
	return lo, hi, err
}

// rangeWalkLimit resolves an IndexRange node's pushed-down LIMIT into the
// posting cap the walk takes: -1 when the node carries none. It fails on
// unresolved slots and on non-integer or negative bound values (which the
// query-level LIMIT validation rejects before execution anyway).
func rangeWalkLimit(n *IndexRange) (int, error) {
	if n.Limit == nil {
		return -1, nil
	}
	if n.Limit.IsSlot {
		return 0, errUnbound
	}
	v := n.Limit.Lit
	if v.Kind != relation.KindInt || v.Int < 0 {
		return 0, fmt.Errorf("kba: index range limit must be a non-negative integer, got %s", v)
	}
	return int(v.Int), nil
}

// runChain runs the chain p tops inside whatever feeds it (see rowSink),
// then γ's phase 2. Spans and accounting are those of the operators run one
// after another: below p's span, σ's opens and then the producer's, and each
// closes with its own rows per worker — the producer's the rows it made,
// σ's the rows it passed. The statement's ExecStats are the producer's own.
func (e *executor) runChain(p Plan) (*PartRel, error) {
	s := peel(p)
	var selSpan, span *obs.OpNode
	if s.sel != nil && s.sel != p {
		selSpan = e.startSpan(s.sel)
	}
	if _, lit := s.producer.(*Lit); !lit {
		span = e.startSpan(s.producer)
	}
	out, err := e.produce(s)
	if err != nil {
		s.made, s.passed = nil, nil
	}
	e.finishSpan(span, s.made)
	e.finishSpan(selSpan, s.passed)
	if err != nil || s.group == nil {
		return out, err
	}
	return e.mergeGroups(s.group, s.groupLay, out)
}

// produce runs s's producer, writing its rows through s: a scan, ∝ or ⋈
// makes them there; s's chain loops over what any other producer builds.
func (e *executor) produce(s *rowSink) (*PartRel, error) {
	var in *PartRel
	var err error
	switch n := s.producer.(type) {
	case *ScanKV:
		return e.runScan(n, s)
	case *Extend:
		return e.runExtend(n, s)
	case *Join:
		return e.runJoin(n, s)
	case *Lit:
		in = n.V
	default:
		if in, err = e.exec(n); err != nil {
			return nil, err
		}
	}
	attrs, err := e.compile(s, in.Attrs)
	if err != nil {
		return nil, err
	}
	out := NewPartRel(attrs, e.workers)
	err = ForWorkers(e.workers, in.Len(), func(w int) error {
		if part := in.Parts[w]; len(part) > 0 {
			wr := s.writer(len(part), false)
			for _, row := range part {
				wr.keep(row)
			}
			out.Parts[w] = wr.finish(w)
		}
		return nil
	})
	return out, err
}

// compile compiles s's chain against the attributes of its producer's rows
// and returns those of what the producer returns: its own rows, the chain's
// output, or γ's partial states.
func (e *executor) compile(s *rowSink, attrs []string) ([]string, error) {
	s.width, s.outWidth = len(attrs), len(attrs)
	if s.producer == nil {
		return attrs, nil
	}
	if e.trace.Spans() {
		s.made, s.passed = make([]int64, e.workers), make([]int64, e.workers)
	}
	if n := s.sel; n != nil {
		lay, err := e.layoutOf(n, n.lay, attrs, nil)
		if err != nil {
			return nil, err
		}
		if s.check, err = selectCheck(n, lay); err != nil {
			return nil, err
		}
	}
	if n := s.proj; n != nil {
		lay, err := e.layoutOf(n, n.lay, attrs, nil)
		if err != nil {
			return nil, err
		}
		s.cols, s.outWidth = lay.key, len(lay.key)
		return lay.attrs, nil
	}
	if n := s.group; n != nil {
		lay, err := e.layoutOf(n, n.lay, attrs, nil)
		if err != nil {
			return nil, err
		}
		s.groupLay, s.lastKey = lay, -1
		for _, c := range lay.key {
			s.lastKey = max(s.lastKey, c)
		}
		return lay.partial, nil
	}
	return attrs, nil
}

// runExtend is the interleaved ∝: read every block the input's keys name
// in one batched cluster round per owning node, then have workers expand
// their partitions against those blocks — the query fetches only the blocks
// it needs, and pays one storage round per node instead of one per distinct
// key. Each input row's key is encoded once, as its block prefix, into the
// batch, which deduplicates the keys on those bytes. The round leaves the
// blocks raw; each worker decodes the blocks its rows read into a buffer of
// its own (rowWriter.fetched), once per run of rows that read one block,
// and accounts for each block at the first row that reads it. Input rows
// with no matching block are joined away. It writes its rows through s; the
// executor set to fetch-all runs the retrieve-then-join strawman instead,
// except over a secondary index, which has no instance to retrieve whole: a
// lookup there stays one batch of gets.
func (e *executor) runExtend(n *Extend, s *rowSink) (*PartRel, error) {
	if e.fetchAll && e.store.Schema.ByName(n.KV) != nil {
		return e.runExtendFetchAll(n, s)
	}
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
	shuffled := repartition(in, keyIdx, &e.shuffle)
	total := shuffled.Len()
	kb, err := e.store.NewKeyBatch(n.KV, total)
	if err != nil {
		return nil, err
	}
	// at[w][i] is the key of row i of partition w in the batch, which
	// numbers the distinct keys partition-major, first occurrence first; a
	// key's first row holds its complement. Repartitioning by the key put
	// all of a key's rows on one worker.
	flat := make([]int32, total)
	at := make([][]int32, len(shuffled.Parts))
	for w, part := range shuffled.Parts {
		at[w], flat = flat[:len(part)], flat[len(part):]
		for i, row := range part {
			k, fresh := kb.Add(row, keyIdx)
			if fresh {
				k = ^k
			}
			at[w][i] = k
		}
	}
	gets, err := kb.ReadT(e.kv())
	if err != nil {
		return nil, err
	}
	e.gets.Add(int64(gets))
	hits := kb.Hits()
	e.trace.CountBlocks(hits)
	e.blocks.Add(int64(hits))
	e.annotateCols(lay)

	out := NewPartRel(attrs, e.workers)
	err = ForWorkers(e.workers, total, func(w int) error {
		// The blocks' stored tuples size the writer: their rows, unless a
		// block carries multiplicities.
		count := 0
		for _, k := range at[w] {
			count += kb.Tuples(max(k, ^k))
		}
		if count == 0 {
			return nil
		}
		wr := s.writer(count, true)
		var data, bytes int64
		for i, row := range shuffled.Parts[w] {
			k := at[w][i]
			blk, size, err := wr.fetched(row, kb, max(k, ^k), lay.cols)
			if err != nil {
				return err
			}
			if blk != nil && k < 0 {
				var keySize int
				for _, c := range keyIdx {
					keySize += row[c].SizeBytes()
				}
				countBlock(len(keyIdx), keySize, int(blk.Rows()), lay.width, size, &data, &bytes)
			}
		}
		e.data.Add(data)
		e.bytes.Add(bytes)
		out.Parts[w] = wr.finish(w)
		return nil
	})
	return out, err
}

// runShift re-keys the input: rows agreeing on the new key are colocated.
// The relational version is unchanged.
func (e *executor) runShift(n *Shift) (*PartRel, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	lay, err := e.layoutOf(n, n.lay, in.Attrs, nil)
	if err != nil {
		return nil, err
	}
	return repartition(in, lay.key, &e.shuffle), nil
}

// runJoin is the hash equi-join, writing its probe side's rows through s.
func (e *executor) runJoin(n *Join, s *rowSink) (*PartRel, error) {
	l, err := e.run(n.L)
	if err != nil {
		return nil, err
	}
	r, err := e.run(n.R)
	if err != nil {
		return nil, err
	}
	lay, err := e.layoutOf(n, n.lay, l.Attrs, r.Attrs)
	if err != nil {
		return nil, err
	}
	attrs, err := e.compile(s, lay.attrs)
	if err != nil {
		return nil, err
	}
	lIdx, rIdx := lay.key, lay.rkey
	ls := repartition(l, lIdx, &e.shuffle)
	rs := repartition(r, rIdx, &e.shuffle)
	out := NewPartRel(attrs, e.workers)
	err = ForWorkers(e.workers, ls.Len()+rs.Len(), func(w int) error {
		left, right := ls.Parts[w], rs.Parts[w]
		if len(left) == 0 || len(right) == 0 {
			return nil
		}
		// Build: the right rows of one key form a chain in arrival order,
		// from heads[s] through next; slot s is the key's, lens[s] its
		// chain's length.
		var buf []byte
		slots := make(map[string]int32)
		var heads, lens []int32
		next := make([]int32, len(right))
		for i := len(right) - 1; i >= 0; i-- {
			buf = appendKey(buf[:0], right[i], rIdx)
			s, ok := slots[string(buf)]
			if !ok {
				s = int32(len(heads))
				slots[string(buf)] = s
				heads, lens = append(heads, -1), append(lens, 0)
			}
			next[i], heads[s] = heads[s], int32(i)
			lens[s]++
		}
		// Probe: find each left row's chain and count the output, then
		// write it through a writer of that size.
		match := make([]int32, len(left))
		count := 0
		for i, row := range left {
			match[i] = -1
			buf = appendKey(buf[:0], row, lIdx)
			if s, ok := slots[string(buf)]; ok {
				match[i] = heads[s]
				count += int(lens[s])
			}
		}
		if count == 0 {
			return nil
		}
		wr := s.writer(count, true)
		for i, row := range left {
			for j := match[i]; j >= 0; j = next[j] {
				t := wr.row()
				copy(t, row)
				copy(t[len(row):], right[j])
				wr.keep(t)
			}
		}
		out.Parts[w] = wr.finish(w)
		return nil
	})
	return out, err
}

// selectCheck returns σ's executable predicates: the layout's, or — where a
// predicate waited for a parameter when the layout was derived — its bound
// node's, bound now.
func selectCheck(n *Select, lay *layout) (predChecks, error) {
	if lay.check != nil {
		return lay.check, nil
	}
	return bindPreds(n.Preds, lay.preds)
}

// CompilePreds compiles predicates over the attribute layout into a single
// row filter; the facade's DELETE matcher and the TaaV baseline share it.
func CompilePreds(attrs []string, preds []Pred) (func(relation.Tuple) bool, error) {
	pos, err := resolvePreds(attrs, preds)
	if err != nil {
		return nil, err
	}
	check, err := bindPreds(preds, pos)
	if err != nil {
		return nil, err
	}
	return check.ok, nil
}

func cmpOK(a relation.Value, op sql.CmpOp, b relation.Value) bool {
	c := relation.Compare(a, b)
	switch op {
	case sql.OpEq:
		return c == 0
	case sql.OpNe:
		return c != 0
	case sql.OpLt:
		return c < 0
	case sql.OpLe:
		return c <= 0
	case sql.OpGt:
		return c > 0
	case sql.OpGe:
		return c >= 0
	default:
		return false
	}
}

func (e *executor) runDistinct(n *Distinct) (*PartRel, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	lay, err := e.layoutOf(n, n.lay, in.Attrs, nil)
	if err != nil {
		return nil, err
	}
	shuffled := repartition(in, lay.key, &e.shuffle)
	out := NewPartRel(in.Attrs, e.workers)
	err = ForWorkers(e.workers, shuffled.Len(), func(w int) error {
		seen := make(map[string]bool)
		var local []relation.Tuple
		var buf []byte
		for _, row := range shuffled.Parts[w] {
			buf = relation.AppendTuple(buf[:0], row)
			if !seen[string(buf)] {
				seen[string(buf)] = true
				local = append(local, row)
			}
		}
		out.Parts[w] = local
		return nil
	})
	return out, err
}

// aligned evaluates both inputs of a set operation and reorders the right
// side's columns to the left side's attribute layout, as a π over it.
func (e *executor) aligned(p Plan, have *layout) (l, r *PartRel, lay *layout, err error) {
	inputs := p.Children()
	if l, err = e.run(inputs[0]); err != nil {
		return nil, nil, nil, err
	}
	if r, err = e.run(inputs[1]); err != nil {
		return nil, nil, nil, err
	}
	if lay, err = e.layoutOf(p, have, l.Attrs, r.Attrs); err != nil {
		return nil, nil, nil, err
	}
	if r, err = e.runChain(&Project{Input: &Lit{V: r}, Attrs: l.Attrs}); err != nil {
		return nil, nil, nil, err
	}
	return l, r, lay, nil
}

func (e *executor) runUnion(n *Union) (*PartRel, error) {
	l, r, _, err := e.aligned(n, n.lay)
	if err != nil {
		return nil, err
	}
	merged := NewPartRel(l.Attrs, e.workers)
	for w := range merged.Parts {
		merged.Parts[w] = append(append(merged.Parts[w], l.Parts[w]...), r.Parts[w]...)
	}
	return e.runDistinct(&Distinct{Input: &Lit{merged}})
}

func (e *executor) runDiff(n *Diff) (*PartRel, error) {
	l, r, lay, err := e.aligned(n, n.lay)
	if err != nil {
		return nil, err
	}
	ls := repartition(l, lay.key, &e.shuffle)
	rs := repartition(r, lay.key, &e.shuffle)
	out := NewPartRel(l.Attrs, e.workers)
	err = ForWorkers(e.workers, ls.Len()+rs.Len(), func(w int) error {
		var buf []byte
		drop := make(map[string]bool)
		for _, row := range rs.Parts[w] {
			buf = relation.AppendTuple(buf[:0], row)
			drop[string(buf)] = true
		}
		seen := make(map[string]bool)
		var local []relation.Tuple
		for _, row := range ls.Parts[w] {
			buf = relation.AppendTuple(buf[:0], row)
			if !drop[string(buf)] && !seen[string(buf)] {
				seen[string(buf)] = true
				local = append(local, row)
			}
		}
		out.Parts[w] = local
		return nil
	})
	return out, err
}
