package zidian

import (
	"sort"
	"time"

	"zidian/internal/obs"
)

// Per-relation group commit. Writers never apply their own maintenance:
// they enqueue a logical operation with the relation's committer and wait.
// The first writer to find the committer idle becomes the leader; it drains
// the queue in arrival order, folds every queued operation into ONE store
// commit — one sequence bump, one batched cluster apply per node — and
// wakes the waiters. Writers that arrive while a batch is in flight queue
// up for the next round, so under contention the per-operation cost of the
// emulated storage round trips amortizes across the batch, and readers
// (which pin snapshots instead of taking locks) never wait at all.

// writeOp is one queued logical write: exactly one of insertRows,
// deleteTuple, or deleteWhere is set.
type writeOp struct {
	insertRows  []Tuple
	deleteTuple *Tuple
	deleteWhere func(Tuple) bool
	// deleteProbe, when set alongside deleteWhere, marks the predicate as a
	// key-equality conjunction: at most one tuple matches, so the committer
	// probes for it and stops instead of scanning the whole relation.
	deleteProbe *deleteProbe

	kvt      *obs.KV    // statement's kv sink; batch totals merge into it
	trace    *obs.Trace // receives CommitWaitNanos, may be nil
	enqueued time.Time
	done     chan writeOutcome
}

type writeOutcome struct {
	affected int
	err      error
}

// committer serializes and batches writes to one relation.
type committer struct {
	in  *Instance
	rel string

	mu      chan struct{} // 1-buffered semaphore guarding queue+leading
	queue   []*writeOp
	leading bool
}

func newCommitter(in *Instance, rel string) *committer {
	co := &committer{in: in, rel: rel, mu: make(chan struct{}, 1)}
	co.mu <- struct{}{}
	return co
}

// submit enqueues op and waits for its batch to commit. The calling
// goroutine leads the commit when no other leader is active.
func (co *committer) submit(op *writeOp) writeOutcome {
	op.done = make(chan writeOutcome, 1)
	op.enqueued = time.Now()
	<-co.mu
	co.queue = append(co.queue, op)
	lead := !co.leading
	if lead {
		co.leading = true
	}
	co.mu <- struct{}{}
	if lead {
		for {
			<-co.mu
			batch := co.queue
			co.queue = nil
			if len(batch) == 0 {
				co.leading = false
				co.mu <- struct{}{}
				break
			}
			co.mu <- struct{}{}
			co.commit(batch)
		}
	}
	out := <-op.done
	if op.trace != nil {
		op.trace.CommitWaitNanos = time.Since(op.enqueued).Nanoseconds()
	}
	return out
}

// commit applies one batch as a single store+index commit. Staging is
// all-or-nothing: any operation failing to stage aborts the whole batch
// (like a shared WAL write failing) with the relation rolled back and
// nothing written — every waiter sees the error.
func (co *committer) commit(batch []*writeOp) {
	in := co.in
	r := in.db.Relation(co.rel)
	batchKV := &obs.KV{}

	fail := func(err error) {
		for _, op := range batch {
			op.done <- writeOutcome{err: err}
		}
	}
	c, err := in.store.BeginCommit(co.rel)
	if err != nil {
		fail(err)
		return
	}
	defer c.Close()
	ic := in.indexes.BeginCommit(co.rel)

	// Seed the commit's block cache: one batched read round per node for
	// every block the batch can touch. deleteWhere tuples are evaluated
	// against the current relation — a best-effort prefetch; staging
	// re-reads lazily anything the loop below touches that isn't cached.
	var pre []Tuple
	for _, op := range batch {
		pre = append(pre, op.insertRows...)
		if op.deleteTuple != nil {
			pre = append(pre, *op.deleteTuple)
		}
		switch {
		case op.deleteProbe != nil:
			for _, u := range r.Tuples {
				if op.deleteProbe.match(u) {
					pre = append(pre, u)
					break
				}
			}
		case op.deleteWhere != nil:
			for _, u := range r.Tuples {
				if op.deleteWhere(u) {
					pre = append(pre, u)
				}
			}
		}
	}
	if err := c.Prefetch(batchKV, pre); err != nil {
		fail(err)
		return
	}

	// Stage in arrival order, mutating the relation as we go so later
	// operations in the batch see earlier ones; undo everything on abort.
	var undos []func()
	abort := func(err error) {
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
		fail(err)
	}
	stageDelete := func(at int) error {
		t := r.Tuples[at]
		if _, err := c.StageDelete(batchKV, t); err != nil {
			return err
		}
		if err := ic.StageDelete(batchKV, t); err != nil {
			return err
		}
		r.Tuples = append(r.Tuples[:at], r.Tuples[at+1:]...)
		undos = append(undos, func() {
			rest := append([]Tuple{t}, r.Tuples[at:]...)
			r.Tuples = append(r.Tuples[:at], rest...)
		})
		return nil
	}
	affected := make([]int, len(batch))
	for i, op := range batch {
		switch {
		case op.insertRows != nil:
			for _, row := range op.insertRows {
				if err := r.Insert(row); err != nil {
					abort(err)
					return
				}
				undos = append(undos, func() { r.Tuples = r.Tuples[:len(r.Tuples)-1] })
				if err := c.StageInsert(batchKV, row); err != nil {
					abort(err)
					return
				}
				if err := ic.StageInsert(batchKV, row); err != nil {
					abort(err)
					return
				}
			}
			affected[i] = len(op.insertRows)
		case op.deleteTuple != nil:
			for at, u := range r.Tuples {
				if u.Equal(*op.deleteTuple) {
					if err := stageDelete(at); err != nil {
						abort(err)
						return
					}
					affected[i] = 1
					break
				}
			}
		case op.deleteProbe != nil:
			// Key equality: the declared key is unique, so the first match
			// is the only match.
			for at, u := range r.Tuples {
				if op.deleteProbe.match(u) {
					if err := stageDelete(at); err != nil {
						abort(err)
						return
					}
					affected[i] = 1
					break
				}
			}
		case op.deleteWhere != nil:
			for at := 0; at < len(r.Tuples); {
				if !op.deleteWhere(r.Tuples[at]) {
					at++
					continue
				}
				if err := stageDelete(at); err != nil {
					abort(err)
					return
				}
				affected[i]++
			}
		}
	}

	// One cluster round for the whole batch: new block versions, tombstones,
	// and grown postings together. Install publishes the new sequence, then
	// the watermark decides what retired state can go right away.
	ops := append(c.Ops(), ic.Ops()...)
	in.store.Cluster.ApplyBatch(batchKV, ops)
	c.Install()
	ic.Apply(c.Seq())
	w := c.Reclaim(batchKV)
	// Posting shrinks whose sequence is still pinned stay pending; they are
	// retried on the relation's next commit, so an error here (a corrupt
	// posting) delays reclamation without failing the installed write.
	_ = in.indexes.ReclaimRemovals(batchKV, co.rel, w)

	if f := in.onCommit.Load(); f != nil {
		(*f)(len(batch))
	}
	snap := batchKV.Snapshot()
	for i, op := range batch {
		// A grouped write's trace carries its whole batch's kv traffic (the
		// shared commit is one physical event); single-op batches are exact.
		op.kvt.Merge(snap)
		op.done <- writeOutcome{affected: affected[i]}
	}
}

// snapshotIndex is the SecondaryIndex view a pinned statement executes
// against. Postings obey a superset invariant (see internal/index), so
// unlimited lookups and range walks are sound as-is: stale keys resolve to
// blocks that lack the row at the snapshot and drop out. The one unsound
// path is a pushed-down LIMIT — a stale key inside the first `limit`
// postings would displace a real one that the executor then never fetches.
// RangeLimitT therefore pushes the limit down only when the relation is
// quiescent (no commit in flight, nothing newer than the snapshot, no
// pending posting shrinks) before AND after the walk; on conflict it
// re-walks unlimited and trims, trading scan steps for soundness.
type snapshotIndex struct {
	in   *Instance
	snap map[string]uint64 // pinned sequences by relation
}

// quiescent reports whether rel has no write activity the pinned snapshot
// could miss: the installed sequence equals both the commit stamp (no
// commit in flight) and the pinned sequence, and no posting shrinks are
// pending.
func (si *snapshotIndex) quiescent(rel string) bool {
	seq := si.in.store.CommitSeq(rel)
	if si.in.store.CommitStamp(rel) != seq {
		return false
	}
	if pinned, ok := si.snap[rel]; ok && pinned != seq {
		return false
	}
	return si.in.indexes.PendingRemovals(rel) == 0
}

func (si *snapshotIndex) relOf(name string) string {
	if d, ok := si.in.indexes.DefOf(name); ok {
		return d.Rel
	}
	return ""
}

func (si *snapshotIndex) Lookup(name string, v Value) ([]Tuple, int, error) {
	return si.in.indexes.Lookup(name, v)
}

func (si *snapshotIndex) LookupManyT(t *obs.Trace, name string, vs []Value) ([][]Tuple, int, error) {
	return si.in.indexes.LookupManyT(t, name, vs)
}

func (si *snapshotIndex) Range(name string, lo, hi *Value, loIncl, hiIncl bool) ([]Value, []Tuple, int, error) {
	return si.in.indexes.Range(name, lo, hi, loIncl, hiIncl)
}

func (si *snapshotIndex) RangeLimitT(t *obs.Trace, name string, lo, hi *Value, loIncl, hiIncl bool, limit int) ([]Value, []Tuple, int, error) {
	rel := si.relOf(name)
	if limit >= 0 && si.quiescent(rel) {
		vals, keys, scanned, err := si.in.indexes.RangeLimitT(t, name, lo, hi, loIncl, hiIncl, limit)
		if err == nil && si.quiescent(rel) {
			return vals, keys, scanned, nil
		}
		if err != nil {
			return nil, nil, scanned, err
		}
		// A commit landed mid-walk: the limited result may have admitted a
		// stale posting in place of a real one. Fall through and re-walk.
	}
	vals, keys, scanned, err := si.in.indexes.RangeLimitT(t, name, lo, hi, loIncl, hiIncl, -1)
	if err == nil && limit >= 0 && len(keys) > limit {
		vals, keys = vals[:limit], keys[:limit]
	}
	return vals, keys, scanned, err
}

func (si *snapshotIndex) MaxPostings(name string) int {
	return si.in.indexes.MaxPostings(name)
}

// RenderSnapshotSeqs renders pinned sequences for EXPLAIN ANALYZE totals
// and the slow-query log: "REL:seq" pairs, sorted, comma-joined ("-" when
// the statement pinned nothing).
func RenderSnapshotSeqs(seqs map[string]uint64) string {
	if len(seqs) == 0 {
		return "-"
	}
	rels := make([]string, 0, len(seqs))
	for rel := range seqs {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	var b []byte
	for i, rel := range rels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, rel...)
		b = append(b, ':')
		b = appendUint(b, seqs[rel])
	}
	return string(b)
}

func appendUint(b []byte, v uint64) []byte {
	if v >= 10 {
		b = appendUint(b, v/10)
	}
	return append(b, byte('0'+v%10))
}
