package server

import "sync"

// The statement gate. Every statement passes one gate, in Server.serve:
// SELECT, INSERT, DELETE, prepare and plain EXPLAIN take it SHARED, and
// only DDL (CREATE/DROP INDEX) takes it exclusive. Readers pin MVCC snapshots inside
// the instance and writers ride their relation's group committer, which
// serializes conflicting writes itself, so the gate carries no isolation
// between statements. DDL is the exception: index backfill reads the
// relation's tuple slice and rewrites the posting space, so nothing may be
// in flight — and with no statements in flight there are no pinned
// snapshots to invalidate. A statement resolves its plan inside its own
// shared hold, so DDL sent through the server never lands between a plan
// and its run.
//
// The gate is a queue-fair (FIFO) readers-writer lock, not a sync.RWMutex:
// arrivals are admitted strictly in order, with consecutive readers
// batched. Under a flood of overlapping readers a sync.RWMutex never drains
// its readers, so a pending DDL could starve; under the fair gate the DDL's
// slot in the queue blocks readers that arrive after it, and it acquires as
// soon as the readers ahead of it finish. A statement holds the gate once
// and takes no other statement-level lock, so there is no lock order to
// keep and no upgrade path.

// gateWaiter is one queued acquisition on the fair gate.
type gateWaiter struct {
	exclusive bool
	ready     chan struct{}
}

// fairGate is a FIFO readers-writer lock: acquisitions are granted in
// arrival order, with runs of consecutive readers admitted together.
// active holds the reader count, or -1 while an exclusive holder runs.
type fairGate struct {
	mu     sync.Mutex
	active int
	queue  []*gateWaiter
}

// RLock acquires the gate shared, behind any earlier waiter.
func (g *fairGate) RLock() {
	g.mu.Lock()
	if len(g.queue) == 0 && g.active >= 0 {
		g.active++
		g.mu.Unlock()
		return
	}
	w := &gateWaiter{ready: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.mu.Unlock()
	<-w.ready
}

// RUnlock releases one shared hold.
func (g *fairGate) RUnlock() {
	g.mu.Lock()
	g.active--
	if g.active == 0 {
		g.wake()
	}
	g.mu.Unlock()
}

// Lock acquires the gate exclusively, behind any earlier waiter.
func (g *fairGate) Lock() {
	g.mu.Lock()
	if len(g.queue) == 0 && g.active == 0 {
		g.active = -1
		g.mu.Unlock()
		return
	}
	w := &gateWaiter{exclusive: true, ready: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.mu.Unlock()
	<-w.ready
}

// Unlock releases the exclusive hold.
func (g *fairGate) Unlock() {
	g.mu.Lock()
	g.active = 0
	g.wake()
	g.mu.Unlock()
}

// wake admits the queue head — and, for a reader head, the run of readers
// behind it — while the gate state allows. Called with mu held and the
// gate free (active == 0) or shared (active > 0, reader admission only).
func (g *fairGate) wake() {
	for len(g.queue) > 0 {
		head := g.queue[0]
		if head.exclusive {
			if g.active != 0 {
				return
			}
			g.active = -1
			g.pop()
			close(head.ready)
			return
		}
		if g.active < 0 {
			return
		}
		g.active++
		g.pop()
		close(head.ready)
	}
}

// pop removes the queue head in place, clearing the vacated tail slot so
// the backing array does not keep an admitted waiter (and its channel)
// reachable until some later enqueue overwrites it.
func (g *fairGate) pop() {
	n := copy(g.queue, g.queue[1:])
	g.queue[n] = nil
	g.queue = g.queue[:n]
}
