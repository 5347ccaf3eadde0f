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
	span := e.trace.StartOpLazy(OpName(p), func() string { return NodeLabel(p) })
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

// identity returns the positions 0..n-1: "partition by the whole row".
func identity(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// qualify prefixes attribute names with a query alias.
func qualify(alias string, attrs []string) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = alias + "." + a
	}
	return out
}

func (e *executor) runConst(n *Const) (*PartRel, error) {
	if len(n.Args) > 0 {
		return nil, errUnbound
	}
	out := NewPartRel(append([]string{}, n.KeyAttrs...), e.workers)
	all := identity(len(n.KeyAttrs))
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
// accounting size of its key and rows.
func countBlock(key relation.Tuple, rows []relation.Tuple, width int, data, bytes *int64) {
	*data += int64(len(rows)*width + len(key))
	*bytes += int64(key.SizeBytes())
	for _, r := range rows {
		*bytes += int64(r.SizeBytes())
	}
}

func (e *executor) runScan(n *ScanKV) (*PartRel, error) {
	kvSchema := e.store.Schema.ByName(n.KV)
	if kvSchema == nil {
		return nil, errUnknownKV(n.KV)
	}
	attrs := append(qualify(n.Alias, kvSchema.Key), qualify(n.Alias, kvSchema.Val)...)
	out := NewPartRel(attrs, e.workers)
	nodes := e.store.Cluster.NodeCount()
	// perNode records each storage node's row contribution for the span's
	// fan-out annotation; every node is walked by exactly one worker, so the
	// slots are written race-free.
	perNode := make([]int64, nodes)
	// Workers split the storage nodes; each worker scans its nodes and keeps
	// the rows locally — scan output starts partitioned by storage layout.
	err := ForWorkers(e.workers, func(w int) error {
		var local []relation.Tuple
		var blocks, data, bytes int64
		for node := w; node < nodes; node += e.workers {
			err := e.store.ScanInstanceNodeT(e.kv(), node, n.KV, func(key relation.Tuple, blk *baav.Block, _ *baav.BlockStats) bool {
				rows := blk.Expand()
				e.trace.CountBlocks(1)
				blocks++
				perNode[node] += int64(len(rows))
				countBlock(key, rows, len(kvSchema.Val), &data, &bytes)
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
	e.trace.AnnotateNodes(perNode, nil)
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

func (e *executor) newPostingSink(index, valAttr string, keyAttrs []string) *postingSink {
	attrs := append([]string{valAttr}, keyAttrs...)
	return &postingSink{e: e, index: index, keyWidth: len(keyAttrs), out: NewPartRel(attrs, e.workers), all: identity(len(attrs))}
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
	sink := e.newPostingSink(n.Index, n.ValAttr, n.KeyAttrs)
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
	sink := e.newPostingSink(n.Index, n.ValAttr, n.KeyAttrs)
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
// read-only cache — the query fetches only the blocks it needs, and pays
// one storage round per node instead of one per distinct key. Input rows
// with no matching block are joined away.
func (e *executor) runExtend(n *Extend) (*PartRel, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	kvSchema := e.store.Schema.ByName(n.KV)
	if kvSchema == nil {
		return nil, errUnknownKV(n.KV)
	}
	if len(n.KeyFrom) != len(kvSchema.Key) {
		return nil, fmt.Errorf("kba: extend on %s needs %d key attributes, got %v",
			n.KV, len(kvSchema.Key), n.KeyFrom)
	}
	keyIdx, err := in.Positions(n.KeyFrom)
	if err != nil {
		return nil, err
	}
	shuffled := repartition(in, keyIdx, &e.shuffle)

	// Collect the distinct probe keys across all partitions (order is
	// deterministic: partition-major, first occurrence wins).
	seen := make(map[string]bool)
	var keys []relation.Tuple
	for _, part := range shuffled.Parts {
		for _, row := range part {
			key := row.Project(keyIdx)
			ks := relation.KeyString(key)
			if !seen[ks] {
				seen[ks] = true
				keys = append(keys, key)
			}
		}
	}
	blks, _, gets, err := e.store.GetBlocksT(e.kv(), n.KV, keys)
	if err != nil {
		return nil, err
	}
	e.gets.Add(int64(gets))
	cache := make(map[string][]relation.Tuple, len(keys))
	var hits, data, bytes int64
	for i, key := range keys {
		var rows []relation.Tuple
		if blk := blks[i]; blk != nil {
			rows = blk.Expand()
			e.trace.CountBlocks(1)
			hits++
			countBlock(key, rows, len(kvSchema.Val), &data, &bytes)
		}
		cache[relation.KeyString(key)] = rows
	}
	e.blocks.Add(hits)
	e.data.Add(data)
	e.bytes.Add(bytes)

	outAttrs := append(append([]string{}, in.Attrs...), qualify(n.Alias, kvSchema.Val)...)
	out := NewPartRel(outAttrs, e.workers)
	err = ForWorkers(e.workers, func(w int) error {
		var local []relation.Tuple
		for _, row := range shuffled.Parts[w] {
			for _, r := range cache[relation.KeyString(row.Project(keyIdx))] {
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
	keyIdx, err := in.Positions(n.NewKey)
	if err != nil {
		return nil, err
	}
	return repartition(in, keyIdx, &e.shuffle), nil
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
	if len(n.LOn) != len(n.ROn) {
		return nil, fmt.Errorf("kba: join attribute lists differ in length")
	}
	lIdx, err := l.Positions(n.LOn)
	if err != nil {
		return nil, err
	}
	rIdx, err := r.Positions(n.ROn)
	if err != nil {
		return nil, err
	}
	ls := repartition(l, lIdx, &e.shuffle)
	rs := repartition(r, rIdx, &e.shuffle)
	out := NewPartRel(append(append([]string{}, l.Attrs...), r.Attrs...), e.workers)
	err = ForWorkers(e.workers, func(w int) error {
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
	check, err := CompilePreds(in.Attrs, n.Preds)
	if err != nil {
		return nil, err
	}
	out := NewPartRel(in.Attrs, e.workers)
	err = ForWorkers(e.workers, func(w int) error {
		var local []relation.Tuple
		for _, row := range in.Parts[w] {
			if check(row) {
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
	type check func(relation.Tuple) bool
	var checks []check
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	for _, p := range preds {
		if p.hasSlots() {
			return nil, fmt.Errorf("kba: predicate %s has unbound parameters (call Bind before executing)", p)
		}
		i, ok := pos[p.Attr]
		if !ok {
			return nil, fmt.Errorf("kba: predicate attribute %q not in %v", p.Attr, attrs)
		}
		switch {
		case len(p.In) > 0:
			set := make(map[string]bool, len(p.In))
			for _, v := range p.In {
				set[relation.KeyString(relation.Tuple{v})] = true
			}
			checks = append(checks, func(t relation.Tuple) bool {
				return set[relation.KeyString(relation.Tuple{t[i]})]
			})
		case p.RAttr != "":
			j, ok := pos[p.RAttr]
			if !ok {
				return nil, fmt.Errorf("kba: predicate attribute %q not in %v", p.RAttr, attrs)
			}
			op := p.Op
			checks = append(checks, func(t relation.Tuple) bool {
				return cmpOK(t[i], op, t[j])
			})
		case p.Lit != nil:
			op, lit := p.Op, *p.Lit
			checks = append(checks, func(t relation.Tuple) bool {
				return cmpOK(t[i], op, lit)
			})
		default:
			return nil, fmt.Errorf("kba: malformed predicate %v", p)
		}
	}
	return func(t relation.Tuple) bool {
		for _, c := range checks {
			if !c(t) {
				return false
			}
		}
		return true
	}, nil
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
	idx, err := in.Positions(n.Attrs)
	if err != nil {
		return nil, err
	}
	out := NewPartRel(append([]string{}, n.Attrs...), e.workers)
	err = ForWorkers(e.workers, func(w int) error {
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
	shuffled := repartition(in, identity(len(in.Attrs)), &e.shuffle)
	out := NewPartRel(in.Attrs, e.workers)
	err = ForWorkers(e.workers, func(w int) error {
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
func (e *executor) aligned(lp, rp Plan) (l, r *PartRel, err error) {
	if l, err = e.run(lp); err != nil {
		return nil, nil, err
	}
	if r, err = e.run(rp); err != nil {
		return nil, nil, err
	}
	rIdx, err := r.Positions(l.Attrs)
	if err != nil {
		return nil, nil, fmt.Errorf("kba: set operation over mismatched attributes: %v", err)
	}
	ra := NewPartRel(l.Attrs, e.workers)
	for w, part := range r.Parts {
		for _, row := range part {
			ra.Parts[w] = append(ra.Parts[w], row.Project(rIdx))
		}
	}
	return l, ra, nil
}

func (e *executor) runUnion(n *Union) (*PartRel, error) {
	l, r, err := e.aligned(n.L, n.R)
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
	l, r, err := e.aligned(n.L, n.R)
	if err != nil {
		return nil, err
	}
	all := identity(len(l.Attrs))
	ls := repartition(l, all, &e.shuffle)
	rs := repartition(r, all, &e.shuffle)
	out := NewPartRel(l.Attrs, e.workers)
	err = ForWorkers(e.workers, func(w int) error {
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
