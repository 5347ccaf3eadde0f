package server

import (
	"sync"
	"testing"
	"time"
)

// tryAcquire runs acquire in a goroutine and reports whether it completed
// within the patience window, returning the release when it did. A blocked
// acquisition keeps waiting in the background and self-releases.
func tryAcquire(lock, unlock func()) (release func(), ok bool) {
	done := make(chan struct{})
	go func() { lock(); close(done) }()
	select {
	case <-done:
		return unlock, true
	case <-time.After(200 * time.Millisecond):
		go func() { <-done; unlock() }() // release once it eventually acquires
		return nil, false
	}
}

// TestGateSharedExclusive: reads and writes all share the gate — even on
// the same relation, since snapshots and the group committer provide the
// isolation — and DDL excludes both, in both directions.
func TestGateSharedExclusive(t *testing.T) {
	var g fairGate
	g.RLock() // a write in flight
	if rel, ok := tryAcquire(g.RLock, g.RUnlock); !ok {
		t.Fatal("the gate stalled a reader behind a writer")
	} else {
		rel()
	}
	if rel, ok := tryAcquire(g.RLock, g.RUnlock); !ok {
		t.Fatal("the gate stalled a second writer (the committer, not the gate, serializes)")
	} else {
		rel()
	}
	if rel, ok := tryAcquire(g.Lock, g.Unlock); ok {
		rel()
		t.Fatal("DDL was admitted while statements were in flight")
	}
	g.RUnlock() // the parked DDL acquires now and self-releases

	var g2 fairGate
	g2.Lock() // DDL in flight
	if rel, ok := tryAcquire(g2.RLock, g2.RUnlock); ok {
		rel()
		t.Fatal("a statement was admitted during DDL")
	}
	g2.Unlock()
}

// queuedWaiters reports how many acquisitions are parked on the gate.
func (g *fairGate) queuedWaiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queue)
}

// TestDDLGateFIFO pins the fairness bug fix: a pending DDL must acquire
// before readers that arrive AFTER it, no matter how many there are — under
// a plain RWMutex an overlapping reader flood starves the writer forever.
// The sequencing is deterministic: each phase waits until the previous
// acquisition is observably parked on the gate's queue before proceeding.
// Once the burst has drained, the queue's backing array must hold no
// admitted waiter: wake clears each slot it vacates.
func TestDDLGateFIFO(t *testing.T) {
	var g fairGate
	waitQueued := func(n int) {
		deadline := time.Now().Add(5 * time.Second)
		for g.queuedWaiters() < n {
			if time.Now().After(deadline) {
				t.Fatalf("gate queue never reached %d waiters", n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var order []string
	var mu sync.Mutex
	record := func(who string) {
		mu.Lock()
		order = append(order, who)
		mu.Unlock()
	}

	g.RLock() // in-flight reader: DDL must wait for it
	ddlDone := make(chan struct{}, 1)
	go func() {
		g.Lock()
		record("ddl")
		ddlDone <- struct{}{}
	}()
	waitQueued(1) // the DDL is parked behind the reader

	const lateReaders = 8
	readerDone := make(chan struct{}, lateReaders)
	for i := 0; i < lateReaders; i++ {
		go func() {
			g.RLock()
			record("reader")
			readerDone <- struct{}{}
		}()
	}
	waitQueued(1 + lateReaders) // every late reader parked behind the DDL

	select {
	case <-ddlDone:
		t.Fatal("DDL acquired while the earlier reader still held the gate")
	case <-readerDone:
		t.Fatal("a late-arriving reader jumped the queued DDL")
	default:
	}

	g.RUnlock() // drain the pre-DDL reader: the DDL must now acquire, alone
	<-ddlDone
	select {
	case <-readerDone:
		t.Fatal("a reader was admitted during DDL")
	default:
	}
	g.Unlock()

	// With the DDL gone the reader batch flows; all of it ordered after.
	for i := 0; i < lateReaders; i++ {
		<-readerDone
		g.RUnlock()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 1+lateReaders || order[0] != "ddl" {
		t.Fatalf("acquisition order = %v, want ddl first then %d readers", order, lateReaders)
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.queue) != 0 || g.active != 0 {
		t.Fatalf("gate not idle after the burst: %d queued, active=%d", len(g.queue), g.active)
	}
	for i, w := range g.queue[:cap(g.queue)] {
		if w != nil {
			t.Fatalf("queue backing slot %d of %d still holds an admitted waiter", i, cap(g.queue))
		}
	}
}
