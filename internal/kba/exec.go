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
	var span *obs.OpNode
	if e.trace.Spans() {
		span = e.trace.StartOpLazy(OpName(p), func() string { return NodeLabel(p) })
	}
	v, err := e.exec(p)
	rows := 0
	if v != nil {
		rows = v.Len()
		if span != nil {
			span.Workers = e.workers
			span.PerWorker = make([]int64, len(v.Parts))
			for w, part := range v.Parts {
				span.PerWorker[w] = int64(len(part))
			}
		}
	}
	e.trace.FinishOp(span, rows)
	return v, err
}

func (e *executor) exec(p Plan) (*PartRel, error) {
	switch n := p.(type) {
	case *Const:
		return e.runConst(n)
	case *ScanKV:
		return e.runScan(n)
	case *IndexLookup:
		return e.runIndexLookup(n)
	case *IndexRange:
		return e.runIndexRange(n)
	case *Extend:
		if e.fetchAll {
			return e.runExtendFetchAll(n)
		}
		return e.runExtend(n)
	case *Shift:
		return e.runShift(n)
	case *Join:
		return e.runJoin(n)
	case *Select:
		return e.runSelect(n)
	case *Project:
		return e.runProject(n)
	case *Distinct:
		return e.runDistinct(n)
	case *Union:
		return e.runUnion(n)
	case *Diff:
		return e.runDiff(n)
	case *GroupBy:
		return e.runGroupBy(n)
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

func errNoIndexCatalog(index string) error {
	return fmt.Errorf("kba: plan uses index %q but the store has no index catalog", index)
}

// layoutOf returns the layout Resolve stored on a node, or derives it now
// for a node no Resolve has seen: a hand-built plan, or an operator over a
// Lit-wrapped intermediate.
func (e *executor) layoutOf(p Plan, have *layout, l, r []string) (*layout, error) {
	if have != nil {
		return have, nil
	}
	var schema *baav.Schema
	if e.store != nil {
		schema = e.store.Schema
	}
	return deriveLayout(p, schema, l, r)
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
	all := lay.key
	for _, k := range n.Keys {
		if len(k) != len(n.KeyAttrs) {
			return nil, fmt.Errorf("kba: constant key %v does not match attrs %v", k, n.KeyAttrs)
		}
		w := 0
		if len(all) > 0 {
			w = hashTuple(k, all, e.workers)
		}
		out.Parts[w] = append(out.Parts[w], k)
	}
	return out, nil
}

// countBlock accounts one fetched or scanned block: its values and the
// accounting size of its key and rows. rows is the block's expanded row
// count, width and size the instance's full width and the whole block's
// size — a column-pruned read accounts for what it fetched, not for what it
// kept.
func countBlock(key relation.Tuple, rows, width int, size int64, data, bytes *int64) {
	*data += int64(rows*width + len(key))
	*bytes += int64(key.SizeBytes()) + size
}

// annotateCols records on the ∝ or scan span how many of the instance's
// value attributes the plan reads.
func (e *executor) annotateCols(lay *layout) { e.trace.AnnotateCols(lay.kept(), lay.width) }

func (e *executor) runScan(n *ScanKV) (*PartRel, error) {
	lay, err := e.layoutOf(n, n.lay, nil, nil)
	if err != nil {
		return nil, err
	}
	out := NewPartRel(lay.attrs, e.workers)
	nodes := e.store.Cluster.NodeCount()
	// perNode records each storage node's row contribution for the span's
	// fan-out annotation; every node is walked by exactly one worker, so the
	// slots are written race-free.
	perNode := make([]int64, nodes)
	// Workers split the storage nodes; each worker scans its nodes and keeps
	// the rows locally — scan output starts partitioned by storage layout.
	err = ForWorkers(e.workers, Unsized, func(w int) error {
		var local []relation.Tuple
		var blocks, data, bytes int64
		for node := w; node < nodes; node += e.workers {
			err := e.store.ScanInstanceNodeT(e.kv(), node, n.KV, lay.cols, func(key relation.Tuple, blk *baav.Block, size int64) bool {
				rows := blk.Expand()
				e.trace.CountBlocks(1)
				blocks++
				perNode[node] += int64(len(rows))
				countBlock(key, len(rows), lay.width, size, &data, &bytes)
				for _, r := range rows {
					local = append(local, key.Concat(r))
				}
				return true
			})
			if err != nil {
				return err
			}
		}
		e.scanned.Add(blocks)
		e.data.Add(data)
		e.bytes.Add(bytes)
		out.Parts[w] = local
		return nil
	})
	e.trace.AnnotateNodes(perNode)
	e.annotateCols(lay)
	return out, err
}

// postingSink shapes an index walk's (value, block key) pairs into rows
// partitioned by their full content, so the downstream ∝ starts from an
// even spread of probe keys, and accounts the postings as fetched data.
type postingSink struct {
	e           *executor
	index       string
	keyWidth    int
	out         *PartRel
	all         []int
	data, bytes int64
}

func (e *executor) newPostingSink(p Plan, have *layout, index string) (*postingSink, error) {
	lay, err := e.layoutOf(p, have, nil, nil)
	if err != nil {
		return nil, err
	}
	return &postingSink{e: e, index: index, keyWidth: len(lay.attrs) - 1, out: NewPartRel(lay.attrs, e.workers), all: lay.key}, nil
}

// rows folds the sink's accounting into the run's counters and returns the
// partitioned posting rows.
func (s *postingSink) rows() *PartRel {
	s.e.data.Add(s.data)
	s.e.bytes.Add(s.bytes)
	return s.out
}

func (s *postingSink) add(v relation.Value, k relation.Tuple) error {
	if len(k) != s.keyWidth {
		return fmt.Errorf("kba: index %q posts %d key attributes, plan expects %d", s.index, len(k), s.keyWidth)
	}
	row := relation.Tuple{v}.Concat(k)
	s.data += int64(len(row))
	s.bytes += int64(row.SizeBytes())
	w := hashTuple(row, s.all, len(s.out.Parts))
	s.out.Parts[w] = append(s.out.Parts[w], row)
	return nil
}

// runIndexLookup fetches every constant's posting list in one batched
// cluster round (the point gets group by owning node).
func (e *executor) runIndexLookup(n *IndexLookup) (*PartRel, error) {
	if len(n.Args) > 0 {
		return nil, errUnbound
	}
	if e.store.Index == nil {
		return nil, errNoIndexCatalog(n.Index)
	}
	lists, gets, err := e.store.Index.LookupManyT(e.trace, n.Index, n.Values)
	if err != nil {
		return nil, err
	}
	e.gets.Add(int64(gets))
	sink, err := e.newPostingSink(n, n.lay, n.Index)
	if err != nil {
		return nil, err
	}
	for i, v := range n.Values {
		for _, k := range lists[i] {
			if err := sink.add(v, k); err != nil {
				return nil, err
			}
		}
	}
	return sink.rows(), nil
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

// runIndexRange performs the bounded ordered posting walk once (the walk is
// one cluster range scan; parallelizing it would not reduce its cost).
func (e *executor) runIndexRange(n *IndexRange) (*PartRel, error) {
	lo, hi, err := rangeBounds(n)
	if err != nil {
		return nil, err
	}
	limit, err := rangeWalkLimit(n)
	if err != nil {
		return nil, err
	}
	if e.store.Index == nil {
		return nil, errNoIndexCatalog(n.Index)
	}
	vals, keys, scanned, err := e.store.Index.RangeLimitT(e.trace, n.Index, lo, hi, n.LoIncl, n.HiIncl, limit)
	if err != nil {
		return nil, err
	}
	e.scanned.Add(int64(scanned))
	sink, err := e.newPostingSink(n, n.lay, n.Index)
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		if err := sink.add(vals[i], k); err != nil {
			return nil, err
		}
	}
	return sink.rows(), nil
}

// runExtend is the interleaved ∝: deduplicate the target keys across the
// whole input, fetch every needed block in one batched cluster round per
// owning node, then have workers expand their partitions against the shared
// read-only blocks — the query fetches only the blocks it needs, and pays
// one storage round per node instead of one per distinct key. Input rows
// with no matching block are joined away.
func (e *executor) runExtend(n *Extend) (*PartRel, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	lay, err := e.layoutOf(n, n.lay, in.Attrs, nil)
	if err != nil {
		return nil, err
	}
	keyIdx := lay.key
	shuffled := repartition(in, keyIdx, &e.shuffle)

	// Collect the distinct probe keys across all partitions (order is
	// deterministic: partition-major, first occurrence wins). Each row's
	// key is encoded once, into a buffer the rows share; at[w][i] is where
	// row i of partition w finds its key, and so its block.
	index := make(map[string]int32)
	var keys []relation.Tuple
	at := make([][]int32, len(shuffled.Parts))
	var buf []byte
	for w, part := range shuffled.Parts {
		at[w] = make([]int32, len(part))
		for i, row := range part {
			buf = buf[:0]
			for _, k := range keyIdx {
				buf = relation.AppendValue(buf, row[k])
			}
			k, ok := index[string(buf)]
			if !ok {
				k = int32(len(keys))
				index[string(buf)] = k
				keys = append(keys, row.Project(keyIdx))
			}
			at[w][i] = k
		}
	}
	blks, sizes, gets, err := e.store.FetchBlocksT(e.kv(), n.KV, keys, lay.cols, nil)
	if err != nil {
		return nil, err
	}
	e.gets.Add(int64(gets))
	fetched := make([][]relation.Tuple, len(keys))
	var hits, data, bytes int64
	for i, key := range keys {
		if blk := blks[i]; blk != nil {
			fetched[i] = blk.Expand()
			e.trace.CountBlocks(1)
			hits++
			countBlock(key, len(fetched[i]), lay.width, sizes[i], &data, &bytes)
		}
	}
	e.blocks.Add(hits)
	e.data.Add(data)
	e.bytes.Add(bytes)
	e.annotateCols(lay)

	out := NewPartRel(lay.attrs, e.workers)
	err = ForWorkers(e.workers, shuffled.Len(), func(w int) error {
		var local []relation.Tuple
		for i, row := range shuffled.Parts[w] {
			for _, r := range fetched[at[w][i]] {
				local = append(local, row.Concat(r))
			}
		}
		out.Parts[w] = local
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

func (e *executor) runJoin(n *Join) (*PartRel, error) {
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
	lIdx, rIdx := lay.key, lay.rkey
	ls := repartition(l, lIdx, &e.shuffle)
	rs := repartition(r, rIdx, &e.shuffle)
	out := NewPartRel(lay.attrs, e.workers)
	err = ForWorkers(e.workers, ls.Len()+rs.Len(), func(w int) error {
		index := make(map[string][]relation.Tuple)
		for _, row := range rs.Parts[w] {
			k := relation.KeyString(row.Project(rIdx))
			index[k] = append(index[k], row)
		}
		var local []relation.Tuple
		for _, row := range ls.Parts[w] {
			k := relation.KeyString(row.Project(lIdx))
			for _, rr := range index[k] {
				local = append(local, row.Concat(rr))
			}
		}
		out.Parts[w] = local
		return nil
	})
	return out, err
}

func (e *executor) runSelect(n *Select) (*PartRel, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	lay, err := e.layoutOf(n, n.lay, in.Attrs, nil)
	if err != nil {
		return nil, err
	}
	check := lay.check
	if check == nil {
		if check, err = bindPreds(n.Preds, lay.preds); err != nil {
			return nil, err
		}
	}
	out := NewPartRel(in.Attrs, e.workers)
	err = ForWorkers(e.workers, in.Len(), func(w int) error {
		var local []relation.Tuple
		for _, row := range in.Parts[w] {
			if check.ok(row) {
				local = append(local, row)
			}
		}
		out.Parts[w] = local
		return nil
	})
	return out, err
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

func (e *executor) runProject(n *Project) (*PartRel, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	lay, err := e.layoutOf(n, n.lay, in.Attrs, nil)
	if err != nil {
		return nil, err
	}
	idx := lay.key
	out := NewPartRel(lay.attrs, e.workers)
	err = ForWorkers(e.workers, in.Len(), func(w int) error {
		local := make([]relation.Tuple, len(in.Parts[w]))
		for i, row := range in.Parts[w] {
			local[i] = row.Project(idx)
		}
		out.Parts[w] = local
		return nil
	})
	return out, err
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
		for _, row := range shuffled.Parts[w] {
			k := relation.KeyString(row)
			if !seen[k] {
				seen[k] = true
				local = append(local, row)
			}
		}
		out.Parts[w] = local
		return nil
	})
	return out, err
}

// aligned evaluates both inputs of a set operation and reorders the right
// side's columns to the left side's attribute layout.
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
	ra := NewPartRel(l.Attrs, e.workers)
	for w, part := range r.Parts {
		for _, row := range part {
			ra.Parts[w] = append(ra.Parts[w], row.Project(lay.rkey))
		}
	}
	return l, ra, lay, nil
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
		drop := make(map[string]bool)
		for _, row := range rs.Parts[w] {
			drop[relation.KeyString(row)] = true
		}
		seen := make(map[string]bool)
		var local []relation.Tuple
		for _, row := range ls.Parts[w] {
			k := relation.KeyString(row)
			if !drop[k] && !seen[k] {
				seen[k] = true
				local = append(local, row)
			}
		}
		out.Parts[w] = local
		return nil
	})
	return out, err
}
