package kv

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"zidian/internal/obs"
)

// Cluster is a hash-sharded collection of storage nodes: the distributed
// hash table (DHT) that SQL-over-NoSQL systems use as their storage layer.
// Keys are routed to nodes by FNV hash. All operations are safe for
// concurrent use; each node is guarded by its own RWMutex so concurrent
// readers of the same node proceed in parallel (gets are pure reads in
// every engine) and contend only with writers. Scans run under the per-node
// read lock too — the hash engine keeps its key order on the write path
// (the first read after a write fills its pending buffer's sorted view
// atomically), the LSM engine's merge-on-scan is a pure read, and the
// sorted engine overlays its write buffer on the sorted array without
// folding it — so scan-heavy mixes parallelize with gets.
type Cluster struct {
	nodes []*node

	// serviceDelayNanos, when non-zero, emulates the network a real
	// SQL-over-NoSQL deployment pays per storage round trip (the in-process
	// cluster is otherwise latency-free) as per-node service capacity: each
	// storage round at a node holds that node's service slot for the delay,
	// outside the node's data lock, so one node sustains at most 1/delay
	// rounds per second no matter how many statements are in flight. This
	// is the model under which horizontal read scaling is observable —
	// adding nodes adds aggregate service capacity, exactly like adding
	// region servers to an HBase or Cassandra deployment.
	serviceDelayNanos atomic.Int64
}

// SetServiceDelay installs an emulated per-node service time (zero
// disables): every storage round trip occupies the target node for d, so a
// node's throughput is capped at 1/d rounds per second and concurrent
// statements queue behind each other at hot nodes. The benches
// (zidian-bench -exp scaleout, -exp mixed) and `zidian-server -op-delay`
// use it to make node count a real capacity axis. Safe to change at
// runtime.
func (c *Cluster) SetServiceDelay(d time.Duration) { c.serviceDelayNanos.Store(int64(d)) }

// serve occupies the node's service slot for one emulated round.
func (n *node) serve(d time.Duration) {
	n.svc.Lock()
	time.Sleep(d)
	n.svc.Unlock()
}

// roundWait models one storage round trip to node ni: the round occupies
// the node's service slot for the delay — concurrent rounds to the same
// node queue, rounds to different nodes proceed in parallel — and the wait
// is attributed to the statement's trace counters when one is threaded
// through.
func (c *Cluster) roundWait(t *obs.KV, ni int) {
	if d := time.Duration(c.serviceDelayNanos.Load()); d > 0 {
		c.nodes[ni].serve(d)
		t.CountWait(d)
	}
}

// batchWait models one batched round issued to the nodes holding items in
// g concurrently, the way a real client library fans out per-node RPCs:
// each involved node's round occupies that node's service slot and the
// batch returns when the slowest completes, while the trace still charges
// one emulated RTT per node touched (the traffic the deployment pays).
func (c *Cluster) batchWait(t *obs.KV, g nodeGroups) {
	d := time.Duration(c.serviceDelayNanos.Load())
	if d <= 0 {
		return
	}
	touched, last := 0, 0
	for ni := range c.nodes {
		if len(g.of(ni)) > 0 {
			touched, last = touched+1, ni
		}
	}
	if touched == 1 {
		c.nodes[last].serve(d)
	} else {
		var wg sync.WaitGroup
		for ni, n := range c.nodes {
			if len(g.of(ni)) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				n.serve(d)
			}()
		}
		wg.Wait()
	}
	for range touched {
		t.CountWait(d)
	}
}

type node struct {
	mu      sync.RWMutex
	eng     Engine
	metrics Metrics
	// svc serializes emulated service rounds at this node (SetServiceDelay).
	// It is deliberately separate from mu: the service wait stands in for
	// the remote node's request queue and must not extend data-lock hold
	// times.
	svc sync.Mutex
}

// NewCluster builds a cluster of n nodes using the given engine kind.
func NewCluster(kind EngineKind, n int) *Cluster {
	if n < 1 {
		n = 1
	}
	c := &Cluster{nodes: make([]*node, n)}
	for i := range c.nodes {
		c.nodes[i] = &node{eng: NewEngine(kind)}
	}
	return c
}

// NodeCount returns the number of storage nodes.
func (c *Cluster) NodeCount() int { return len(c.nodes) }

// NodeFor returns the node index that owns key: FNV-1a 64 of the key,
// modulo the node count.
func (c *Cluster) NodeFor(key []byte) int {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range key {
		h = (h ^ uint64(b)) * prime64
	}
	return int(h % uint64(len(c.nodes)))
}

// Get retrieves the value stored under key, counting one get invocation.
func (c *Cluster) Get(key []byte) ([]byte, bool) { return c.GetRoutedT(nil, key, key) }

// GetRoutedT is Get with an explicit routing key and a per-statement trace
// sink (nil for untraced callers): the pair lives on the node that owns
// route rather than key — BaaV stores route all segments of one logical
// block by the block's key prefix so the block stays colocated — and the
// trace counts exactly what the node metrics count.
func (c *Cluster) GetRoutedT(t *obs.KV, route, key []byte) ([]byte, bool) {
	ni := c.NodeFor(route)
	c.roundWait(t, ni)
	n := c.nodes[ni]
	n.mu.RLock()
	v, ok := n.eng.Get(key)
	n.metrics.countGets(1, len(v))
	n.mu.RUnlock()
	t.CountGets(1, len(v))
	return v, ok
}

// Put stores value under key.
func (c *Cluster) Put(key, value []byte) { c.PutRouted(key, key, value) }

// PutRouted is Put with an explicit routing key. Statement writes and the
// bulk load go through ApplyBatch, which is where their trace accounting
// lives; this is the single-op form.
func (c *Cluster) PutRouted(route, key, value []byte) {
	ni := c.NodeFor(route)
	c.roundWait(nil, ni)
	n := c.nodes[ni]
	n.mu.Lock()
	n.eng.Put(key, value)
	n.metrics.countPut(len(key) + len(value))
	n.mu.Unlock()
}

// Delete removes key, reporting whether it was present.
func (c *Cluster) Delete(key []byte) bool { return c.DeleteRouted(key, key) }

// DeleteRouted is Delete with an explicit routing key.
func (c *Cluster) DeleteRouted(route, key []byte) bool {
	ni := c.NodeFor(route)
	c.roundWait(nil, ni)
	n := c.nodes[ni]
	n.mu.Lock()
	ok := n.eng.Delete(key)
	n.metrics.countDelete()
	n.mu.Unlock()
	return ok
}

// BatchOp is one mutation inside an ApplyBatch: a put of Value under Key
// (or a delete of Key when Delete is set), routed to the node that owns
// Route. Batching exists so a group commit, or a bulk load, can land many
// block/posting edits on a node for the cost of one round trip.
type BatchOp struct {
	Route  []byte
	Key    []byte
	Value  []byte
	Delete bool
}

// ApplyBatch applies a set of mutations grouped by owning node: each node
// involved pays one emulated round trip (batchWait) and one lock
// acquisition for all of its ops, instead of one per op. Every op counts
// into both the node metrics and the trace, so traced totals still equal
// the cluster-wide metric delta. Ops land in input order within
// each node; cross-node order is unspecified (the key space is disjoint by
// construction, so it cannot matter). How long each node's lock is held
// counts into its WriteHold: two clock reads per node per batch.
func (c *Cluster) ApplyBatch(t *obs.KV, ops []BatchOp) {
	if len(ops) == 0 {
		return
	}
	g := groupByNode(c, ops, func(op BatchOp) []byte { return op.Route })
	c.batchWait(t, g) // one concurrent round: per-node RTTs overlap
	for ni, n := range c.nodes {
		idxs := g.of(ni)
		if len(idxs) == 0 {
			continue
		}
		n.mu.Lock()
		start := time.Now()
		for _, i := range idxs {
			op := ops[i]
			if op.Delete {
				n.eng.Delete(op.Key)
				n.metrics.countDelete()
				t.CountDelete()
			} else {
				n.eng.Put(op.Key, op.Value)
				n.metrics.countPut(len(op.Key) + len(op.Value))
				t.CountPut(len(op.Key) + len(op.Value))
			}
		}
		n.metrics.writeHold.Add(int64(time.Since(start)))
		n.mu.Unlock()
	}
}

// GetRequest names one lookup inside a GetManyRouted: Key fetched from the
// node that owns Route.
type GetRequest struct {
	Route []byte
	Key   []byte
}

// GetResult is the answer to one GetRequest, aligned by index.
type GetResult struct {
	Value []byte
	OK    bool
}

// GetManyRouted resolves a set of routed lookups grouped by owning node:
// one emulated round trip and one read-lock acquisition per node per batch,
// and one Engine.GetMany per node, so the hash engine overlaps the probes of
// a node's keys. Results align with the request slice. The accounting
// matches GetRoutedT's per op, counted once per node.
func (c *Cluster) GetManyRouted(t *obs.KV, reqs []GetRequest) []GetResult {
	out := make([]GetResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	g := groupByNode(c, reqs, func(r GetRequest) []byte { return r.Route })
	c.batchWait(t, g) // one concurrent round: per-node RTTs overlap
	for ni, n := range c.nodes {
		idxs := g.of(ni)
		if len(idxs) == 0 {
			continue
		}
		n.mu.RLock()
		n.eng.GetMany(reqs, idxs, out)
		n.mu.RUnlock()
		read := 0
		for _, i := range idxs {
			read += len(out[i].Value)
		}
		n.metrics.countGets(len(idxs), read)
		t.CountGets(len(idxs), read)
	}
	return out
}

// nodeGroups holds a batch's item indexes grouped by owning node, each
// node's in input order: node n's are order[start[n]:start[n+1]].
type nodeGroups struct {
	order []int32
	start []int32
}

// of returns the indexes of the items node ni owns.
func (g nodeGroups) of(ni int) []int32 { return g.order[g.start[ni]:g.start[ni+1]] }

// groupByNode buckets item indexes by the node that owns each item's route
// with one counting pass: two allocations whatever the batch size.
func groupByNode[T any](c *Cluster, items []T, route func(T) []byte) nodeGroups {
	nodes := len(c.nodes)
	// owner[i] is item i's node; order is filled from it.
	idx := make([]int32, 2*len(items))
	owner, order := idx[:len(items)], idx[len(items):]
	// start[n+1] counts node n's items, then becomes its end; fill is each
	// node's next free slot.
	counts := make([]int32, 2*nodes+1)
	start, fill := counts[:nodes+1], counts[nodes+1:]
	for i, it := range items {
		ni := c.NodeFor(route(it))
		owner[i] = int32(ni)
		start[ni+1]++
	}
	for ni := 0; ni < nodes; ni++ {
		start[ni+1] += start[ni]
		fill[ni] = start[ni]
	}
	for i, ni := range owner {
		order[fill[ni]] = int32(i)
		fill[ni]++
	}
	return nodeGroups{order: order, start: start}
}

// Scan visits every pair whose key starts with prefix, node by node in key
// order within each node, until fn returns false. Every visited pair counts
// as one scan step (a next()+get in the paper's terms).
func (c *Cluster) Scan(prefix []byte, fn func(key, value []byte) bool) {
	c.ScanT(nil, prefix, fn)
}

// ScanT is Scan with a per-statement trace sink: the node-contiguous gather
// over the scatter pipeline (see scatter.go). Every node's seek round trip
// and engine walk runs concurrently, while delivery stays whole node streams
// in node order, so callers observe exactly the output of walking the nodes
// one after another with ScanNodeT. fn must not issue cluster operations.
//
// A one-node cluster walks its node on the calling goroutine: there is no
// second round trip for the pipeline to overlap, and its goroutine, chunk
// buffers and channel hand-offs measured 2.4-2.8x the inline walk (13.7 vs
// 4.9 µs over 100 pairs, 3.4 vs 1.4 ms over 20 000); it also keeps a
// one-worker plan on one node entirely on its caller's goroutine.
func (c *Cluster) ScanT(t *obs.KV, prefix []byte, fn func(key, value []byte) bool) {
	if len(c.nodes) == 1 {
		c.ScanNodeT(t, 0, prefix, fn)
		return
	}
	s := c.RangeScatterT(t, prefix)
	defer s.Cancel()
	for _, stream := range s.Streams {
		for chunk := range stream.C {
			for _, p := range chunk {
				if !fn(p.Key, p.Value) {
					return
				}
			}
		}
	}
}

// ScanRange visits every pair whose key k satisfies the window — k starts
// with prefix, lo <= k (when lo is non-nil) and k <= hi (when hi is
// non-nil), all bytewise — node by node in ascending key order within each
// node, until fn returns false. Keys below the window are never touched
// (the engines seek), and each node's walk stops at the window's upper
// fence without aborting the other nodes, so a posting-range lookup over a
// hash-sharded key space costs O(matching pairs) scan steps, not
// O(key space). Every visited pair counts as one scan step.
func (c *Cluster) ScanRange(prefix, lo, hi []byte, fn func(key, value []byte) bool) {
	for i := range c.nodes {
		if !c.ScanRangeNodeT(nil, i, prefix, lo, hi, fn) {
			return
		}
	}
}

// ScanRangeNodeT is the walk of one storage node every scan is built from:
// the node's pairs inside the window of ScanRange in ascending key order,
// reporting whether the walk reached the window's end (false: fn stopped it
// early). A node whose engine holds no keys under the prefix is skipped
// without the seek round trip; otherwise the walk pays one emulated seek
// round, takes the node's read lock and counts a scan step per pair the
// prefix fence admits — into the node metrics and the trace alike, so traced
// totals always equal the cluster-wide metric delta for the statement.
func (c *Cluster) ScanRangeNodeT(t *obs.KV, i int, prefix, lo, hi []byte, fn func(key, value []byte) bool) bool {
	n := c.nodes[i]
	if c.nodePrefixEmpty(n, prefix) {
		return true
	}
	start := prefix
	if bytes.Compare(lo, prefix) > 0 {
		start = lo
	}
	// An open upper side still gets a byte fence — the prefix successor —
	// so engines that snapshot their window (the LSM merge-on-scan) stay
	// bounded by the prefix instead of materializing the key-space tail.
	// The fence key itself lies outside the prefix; the HasPrefix check
	// below rejects it before it is counted or visited.
	if hi == nil {
		hi = prefixSuccessor(prefix)
	}
	stopped := false
	c.roundWait(t, i) // one emulated seek round trip per node
	n.mu.RLock()
	n.eng.ScanRange(start, hi, func(k, v []byte) bool {
		if !bytes.HasPrefix(k, prefix) {
			return false // past the prefix on this node; next node
		}
		n.metrics.countScanNext(len(v))
		t.CountScanNext(len(v))
		if !fn(k, v) {
			stopped = true
			return false
		}
		return true
	})
	n.mu.RUnlock()
	return !stopped
}

// prefixSuccessor returns the smallest byte string greater than every key
// carrying the prefix, or nil (unbounded) when no such string exists (the
// prefix is empty or all 0xFF).
func prefixSuccessor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xFF {
			out := make([]byte, i+1)
			copy(out, prefix[:i+1])
			out[i]++
			return out
		}
	}
	return nil
}

// ScanNode visits pairs with the prefix on one node only; parallel scan
// drivers partition work across nodes with it.
func (c *Cluster) ScanNode(i int, prefix []byte, fn func(key, value []byte) bool) {
	c.ScanNodeT(nil, i, prefix, fn)
}

// ScanNodeT is ScanNode with a per-statement trace sink: the node walk with
// the window open on both sides.
func (c *Cluster) ScanNodeT(t *obs.KV, i int, prefix []byte, fn func(key, value []byte) bool) {
	c.ScanRangeNodeT(t, i, prefix, nil, nil, fn)
}

// Metrics returns the aggregate snapshot across all nodes.
func (c *Cluster) Metrics() Snapshot {
	var total Snapshot
	for _, n := range c.nodes {
		total = total.Add(n.metrics.Snapshot())
	}
	return total
}

// NodeMetrics returns the snapshot for one node.
func (c *Cluster) NodeMetrics(i int) Snapshot { return c.nodes[i].metrics.Snapshot() }

// ResetMetrics zeroes all node counters.
func (c *Cluster) ResetMetrics() {
	for _, n := range c.nodes {
		n.metrics.Reset()
	}
}

// Len returns the total number of stored pairs.
func (c *Cluster) Len() int {
	total := 0
	for _, n := range c.nodes {
		n.mu.RLock()
		total += n.eng.Len()
		n.mu.RUnlock()
	}
	return total
}

// SizeBytes returns the total stored payload size.
func (c *Cluster) SizeBytes() int64 {
	var total int64
	for _, n := range c.nodes {
		n.mu.RLock()
		total += n.eng.SizeBytes()
		n.mu.RUnlock()
	}
	return total
}
