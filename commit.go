package zidian

import (
	"sort"
	"time"

	"zidian/internal/obs"
	"zidian/internal/relation"
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

// writeOp is one queued logical write: insertRows for an insert, match
// for a delete.
type writeOp struct {
	insertRows []Tuple
	// match selects the tuples a delete removes. unique stops the delete at
	// the first match: Instance.Delete removes one copy of its tuple, and a
	// key-equality WHERE matches at most one tuple, so the committer stops
	// there instead of walking the rest of the relation.
	match  func(Tuple) bool
	unique bool

	kvt      *obs.KV    // statement's kv sink; batch totals merge into it
	trace    *obs.Trace // receives CommitWaitNanos, may be nil
	enqueued time.Time
	done     chan writeOutcome
}

type writeOutcome struct {
	affected int
	err      error
}

// victims hands visit, in order, the position in r.Tuples of each tuple op
// deletes: the first match only when op is unique. A visit that removes
// the tuple leaves the walk at the same position; an error ends it.
func (op *writeOp) victims(r *relation.Relation, visit func(at int) error) error {
	for at := 0; at < len(r.Tuples); {
		if !op.match(r.Tuples[at]) {
			at++
			continue
		}
		n := len(r.Tuples)
		if err := visit(at); err != nil || op.unique {
			return err
		}
		if len(r.Tuples) == n {
			at++
		}
	}
	return nil
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

// commit applies one batch as a single store commit. Staging is
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

	// Seed the commit's block cache: one batched read round per node for
	// every block and posting fragment the batch can touch. Deletes are
	// matched against the current relation — a best-effort prefetch;
	// staging re-reads lazily anything the loop below touches that isn't
	// cached.
	var pre []Tuple
	for _, op := range batch {
		pre = append(pre, op.insertRows...)
		if op.match != nil {
			op.victims(r, func(at int) error {
				pre = append(pre, r.Tuples[at])
				return nil
			})
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
	affected := make([]int, len(batch))
	for i, op := range batch {
		switch {
		case op.match != nil:
			err := op.victims(r, func(at int) error {
				t := r.Tuples[at]
				if _, err := c.StageDelete(batchKV, t); err != nil {
					return err
				}
				r.Tuples = append(r.Tuples[:at], r.Tuples[at+1:]...)
				undos = append(undos, func() {
					rest := append([]Tuple{t}, r.Tuples[at:]...)
					r.Tuples = append(r.Tuples[:at], rest...)
				})
				affected[i]++
				return nil
			})
			if err != nil {
				abort(err)
				return
			}
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
			}
			affected[i] = len(op.insertRows)
		}
	}

	// One cluster round for the whole batch: new block and posting
	// versions and tombstones together. Install publishes the new sequence,
	// then the watermark decides what retired state can go right away.
	in.store.Cluster.ApplyBatch(batchKV, c.Ops())
	c.Install()
	c.Reclaim(batchKV)

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
