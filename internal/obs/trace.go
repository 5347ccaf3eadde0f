package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// KV accumulates kv-layer counters for one traced statement. Every method
// is safe on a nil receiver so untraced call paths stay allocation- and
// branch-cheap: the cluster threads a *KV through its routed operations and
// counts into it only when non-nil, mirroring exactly what the per-node
// Metrics count (so a trace's totals equal the cluster-wide delta for the
// statement). Fields are atomics because the executor's workers record
// concurrently.
type KV struct {
	gets, puts, deletes, scanNexts atomic.Int64
	bytesRead, bytesWritten        atomic.Int64
	waitNanos                      atomic.Int64 // emulated storage round-trip sleeps
}

// CountGets records gets point reads of bytes value bytes in all.
func (k *KV) CountGets(gets, bytes int) {
	if k == nil {
		return
	}
	k.gets.Add(int64(gets))
	k.bytesRead.Add(int64(bytes))
}

// CountPut records one write of n key+value bytes.
func (k *KV) CountPut(n int) {
	if k == nil {
		return
	}
	k.puts.Add(1)
	k.bytesWritten.Add(int64(n))
}

// CountDelete records one delete.
func (k *KV) CountDelete() {
	if k == nil {
		return
	}
	k.deletes.Add(1)
}

// CountScanNext records one scan step over n value bytes.
func (k *KV) CountScanNext(n int) {
	if k == nil {
		return
	}
	k.scanNexts.Add(1)
	k.bytesRead.Add(int64(n))
}

// CountWait records emulated round-trip time spent sleeping in the store.
func (k *KV) CountWait(d time.Duration) {
	if k == nil {
		return
	}
	k.waitNanos.Add(int64(d))
}

// Merge adds a snapshot's totals into the counters — a group-committed
// statement folds its batch's kv traffic into its own sink this way.
// Nil-safe like the counting methods.
func (k *KV) Merge(s KVSnapshot) {
	if k == nil {
		return
	}
	k.gets.Add(s.Gets)
	k.puts.Add(s.Puts)
	k.deletes.Add(s.Deletes)
	k.scanNexts.Add(s.ScanNexts)
	k.bytesRead.Add(s.BytesRead)
	k.bytesWritten.Add(s.BytesWritten)
	k.waitNanos.Add(s.WaitNanos)
}

// Snapshot returns the current totals; zero for a nil receiver.
func (k *KV) Snapshot() KVSnapshot {
	if k == nil {
		return KVSnapshot{}
	}
	return KVSnapshot{
		Gets:         k.gets.Load(),
		Puts:         k.puts.Load(),
		Deletes:      k.deletes.Load(),
		ScanNexts:    k.scanNexts.Load(),
		BytesRead:    k.bytesRead.Load(),
		BytesWritten: k.bytesWritten.Load(),
		WaitNanos:    k.waitNanos.Load(),
	}
}

// KVSnapshot is an immutable copy of KV counters.
type KVSnapshot struct {
	Gets         int64 `json:"gets"`
	Puts         int64 `json:"puts"`
	Deletes      int64 `json:"deletes"`
	ScanNexts    int64 `json:"scanNexts"`
	BytesRead    int64 `json:"bytesRead"`
	BytesWritten int64 `json:"bytesWritten"`
	WaitNanos    int64 `json:"waitNanos"`
}

// Sub returns s - o, the delta between two snapshots.
func (s KVSnapshot) Sub(o KVSnapshot) KVSnapshot {
	return KVSnapshot{
		Gets:         s.Gets - o.Gets,
		Puts:         s.Puts - o.Puts,
		Deletes:      s.Deletes - o.Deletes,
		ScanNexts:    s.ScanNexts - o.ScanNexts,
		BytesRead:    s.BytesRead - o.BytesRead,
		BytesWritten: s.BytesWritten - o.BytesWritten,
		WaitNanos:    s.WaitNanos - o.WaitNanos,
	}
}

// Ops is the total kv operation count across all op kinds.
func (s KVSnapshot) Ops() int64 { return s.Gets + s.Puts + s.Deletes + s.ScanNexts }

// Trace is the per-statement trace context. The server allocates one per
// traced statement and threads it through planner and executor; layers
// below the executor see only the embedded KV counters. All counter
// methods are nil-safe. The zero value records counters and operator spans;
// CountersOnly returns one that records counters alone, for statements
// whose operator tree nobody will read. The operator span stack is NOT
// synchronized: plan
// tree recursion is single-goroutine (the executor fans workers out only
// inside an operator and joins them before the operator's span finishes),
// so spans open and close on one goroutine.
type Trace struct {
	KV           KV
	postingReads atomic.Int64 // posting lists index range reads decoded
	blocks       atomic.Int64 // blocks fetched and decoded, equality lookups' posting lists among them

	// QueueWaitNanos and LockWaitNanos are written once by the server
	// before the executor runs (or after a failed acquire), never raced.
	QueueWaitNanos int64
	LockWaitNanos  int64

	// SnapshotSeqs records, per relation, the MVCC commit sequence the
	// statement's reads were pinned to. Written once when the snapshot is
	// pinned, before the executor runs; never raced.
	SnapshotSeqs map[string]uint64
	// CommitWaitNanos is the time a write statement spent queued in its
	// relation's group commit before its batch installed. Written by the
	// statement's own goroutine after the commit completes.
	CommitWaitNanos int64

	Root  *OpNode
	stack []*OpNode
	// noSpans turns StartOp and StartOpLazy into no-ops (see CountersOnly).
	noSpans bool
}

// CountersOnly returns a trace that counts kv operations, posting reads,
// block fetches, waits and snapshot sequences but opens no operator span:
// Root stays nil.
func CountersOnly() *Trace { return &Trace{noSpans: true} }

// Spans reports whether the trace records operator spans; false when nil.
func (t *Trace) Spans() bool { return t != nil && !t.noSpans }

// CountPostings records n index posting-list reads; nil-safe.
func (t *Trace) CountPostings(n int) {
	if t == nil {
		return
	}
	t.postingReads.Add(int64(n))
}

// CountBlocks records n block fetches; nil-safe.
func (t *Trace) CountBlocks(n int) {
	if t == nil {
		return
	}
	t.blocks.Add(int64(n))
}

// PostingReads returns the posting-list read total; 0 when nil.
func (t *Trace) PostingReads() int64 {
	if t == nil {
		return 0
	}
	return t.postingReads.Load()
}

// Blocks returns the block fetch total; 0 when nil.
func (t *Trace) Blocks() int64 {
	if t == nil {
		return 0
	}
	return t.blocks.Load()
}

// KVCounters returns the trace's kv counter sink, nil for a nil trace, so
// callers can pass it down without re-checking the trace itself.
func (t *Trace) KVCounters() *KV {
	if t == nil {
		return nil
	}
	return &t.KV
}

// OpNode is one operator's span in the executed plan tree: static identity
// (Name, Label), measured rows and wall time, the inclusive kv-op delta
// observed while the span was open, and — for parallel operators — the
// worker fan-out with per-worker row counts.
type OpNode struct {
	Name      string        `json:"name"`
	Label     string        `json:"label,omitempty"`
	Rows      int64         `json:"rows"`
	Wall      time.Duration `json:"wallNanos"`
	KV        KVSnapshot    `json:"kv"`
	Workers   int           `json:"workers,omitempty"`
	PerWorker []int64       `json:"perWorker,omitempty"`
	// Nodes and PerNode record the storage-node fan-out of a scan: how
	// many nodes the operator touched and the rows each node gave.
	Nodes   int     `json:"nodes,omitempty"`
	PerNode []int64 `json:"perNode,omitempty"`
	// Cols and Width, on ∝ and scan spans, are how many of the instance's
	// Width value attributes the operator materialized: Cols < Width marks a
	// column-pruned read. Width is 0 on every other span.
	Cols     int       `json:"cols,omitempty"`
	Width    int       `json:"width,omitempty"`
	Children []*OpNode `json:"children,omitempty"`

	start   time.Time
	startKV KVSnapshot
	// lazyLabel, when set, renders Label on demand (see StartOpLazy).
	lazyLabel func() string
}

// StartOp opens an operator span as a child of the innermost open span
// (or as the root). Returns nil on a nil or counters-only trace.
func (t *Trace) StartOp(name, label string) *OpNode {
	n := t.StartOpLazy(name, nil)
	if n != nil {
		n.Label = label
	}
	return n
}

// StartOpLazy is StartOp with the label rendering deferred until the tree is
// actually shown. Almost every statement's tree is dropped unread — only
// EXPLAIN ANALYZE renders it — while a label costs several allocations per
// operator, so hot executors pass a thunk instead of the string.
func (t *Trace) StartOpLazy(name string, label func() string) *OpNode {
	if !t.Spans() {
		return nil
	}
	n := &OpNode{Name: name, lazyLabel: label, start: time.Now(), startKV: t.KV.Snapshot()}
	if len(t.stack) == 0 {
		t.Root = n
	} else {
		p := t.stack[len(t.stack)-1]
		p.Children = append(p.Children, n)
	}
	t.stack = append(t.stack, n)
	return n
}

// ResolveLabels renders any deferred labels in the tree rooted at n. Callers
// that serialize an OpNode (JSON can't see a label thunk) must resolve
// first; RenderPlan does it itself.
func (n *OpNode) ResolveLabels() {
	if n == nil {
		return
	}
	if n.lazyLabel != nil {
		n.Label = n.lazyLabel()
		n.lazyLabel = nil
	}
	for _, c := range n.Children {
		c.ResolveLabels()
	}
}

// AnnotateNodes records a storage-node fan-out on the innermost open
// span: perNode holds each node's contribution to the operator's walk.
// Called by the scan while its operator's span is on top of the stack; safe
// no-op on a nil or span-less trace. Like the span stack itself it must be
// called from the driving goroutine only.
func (t *Trace) AnnotateNodes(perNode []int64) {
	if t == nil || len(t.stack) == 0 || len(perNode) == 0 {
		return
	}
	n := t.stack[len(t.stack)-1]
	n.Nodes = len(perNode)
	n.PerNode = perNode
}

// AnnotateCols records on the innermost open span that its operator
// materialized cols of its instance's width value attributes; the rules are
// AnnotateNodes'.
func (t *Trace) AnnotateCols(cols, width int) {
	if t == nil || len(t.stack) == 0 {
		return
	}
	n := t.stack[len(t.stack)-1]
	n.Cols, n.Width = cols, width
}

// FinishOp closes the span, recording its row count, wall time, and
// inclusive kv delta. No-op when the trace or span is nil.
func (t *Trace) FinishOp(n *OpNode, rows int) {
	if t == nil || n == nil {
		return
	}
	n.Rows = int64(rows)
	n.Wall = time.Since(n.start)
	n.KV = t.KV.Snapshot().Sub(n.startKV)
	if len(t.stack) > 0 && t.stack[len(t.stack)-1] == n {
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// RenderPlan renders an operator tree as indented lines, one per node.
// With analyze=false only the static shape (Name and Label) is shown; with
// analyze=true each line carries rows, wall time, the inclusive kv-op
// breakdown, and worker fan-out.
func RenderPlan(root *OpNode, analyze bool) []string {
	root.ResolveLabels()
	var out []string
	var walk func(n *OpNode, depth int)
	walk = func(n *OpNode, depth int) {
		if n == nil {
			return
		}
		var b strings.Builder
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Name)
		if n.Label != "" {
			b.WriteByte(' ')
			b.WriteString(n.Label)
		}
		if analyze {
			fmt.Fprintf(&b, " (rows=%d time=%s", n.Rows, fmtDur(n.Wall))
			if ops := n.KV.Ops(); ops > 0 {
				fmt.Fprintf(&b, " kvops=%d", ops)
				var parts []string
				if n.KV.Gets > 0 {
					parts = append(parts, fmt.Sprintf("gets=%d", n.KV.Gets))
				}
				if n.KV.ScanNexts > 0 {
					parts = append(parts, fmt.Sprintf("scan_next=%d", n.KV.ScanNexts))
				}
				if n.KV.Puts > 0 {
					parts = append(parts, fmt.Sprintf("puts=%d", n.KV.Puts))
				}
				if n.KV.Deletes > 0 {
					parts = append(parts, fmt.Sprintf("deletes=%d", n.KV.Deletes))
				}
				if len(parts) > 0 {
					fmt.Fprintf(&b, " [%s]", strings.Join(parts, " "))
				}
			}
			if n.KV.WaitNanos > 0 {
				fmt.Fprintf(&b, " rtt=%s", fmtDur(time.Duration(n.KV.WaitNanos)))
			}
			if n.Workers > 0 {
				fmt.Fprintf(&b, " workers=%d", n.Workers)
				if len(n.PerWorker) > 0 {
					fmt.Fprintf(&b, " per_worker=%s", fmtPerWorker(n.PerWorker))
				}
			}
			if n.Nodes > 0 {
				fmt.Fprintf(&b, " nodes=%d", n.Nodes)
				if len(n.PerNode) > 0 {
					fmt.Fprintf(&b, " per_node=%s", fmtPerWorker(n.PerNode))
				}
			}
			if n.Width > 0 {
				fmt.Fprintf(&b, " cols=%d/%d", n.Cols, n.Width)
			}
			b.WriteByte(')')
		}
		out = append(out, b.String())
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return out
}

// fmtPerWorker renders per-worker row counts compactly: the exact list for
// small fan-outs, min/median/max beyond eight workers.
func fmtPerWorker(rows []int64) string {
	if len(rows) <= 8 {
		parts := make([]string, len(rows))
		for i, r := range rows {
			parts[i] = fmt.Sprintf("%d", r)
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	sorted := append([]int64(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return fmt.Sprintf("[min=%d med=%d max=%d n=%d]",
		sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1], len(sorted))
}

// fmtDur rounds a duration for display so plan lines stay scannable.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}
