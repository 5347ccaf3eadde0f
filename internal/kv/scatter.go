package kv

import (
	"bytes"
	"sync"

	"zidian/internal/obs"
)

// The scatter pipeline: the placement layer that turns "walk the cluster"
// into "walk every node at once". A logical scan names a key window;
// RangeScatterT fans it out as one streaming node walk (ScanRangeNodeT) per
// storage node, each in its own goroutine behind a bounded channel, and a
// gather step recombines the per-node streams. There is one pipeline and two
// gathers (a one-node cluster has nothing to overlap: both gathers then run
// the node's walk inline, see Cluster.walkSingle):
//
//   - Node-contiguous gather (ScanT): each node's stream is delivered
//     whole, in node order, exactly matching the output of walking the
//     nodes one after another. Callers that reassemble multi-pair records
//     from adjacent keys (BaaV multi-segment blocks — segments of one block
//     are colocated on the block's owner node) rely on streams never
//     interleaving at pair granularity. The win is overlap: every node's
//     emulated seek round trip and engine walk runs concurrently instead
//     of back to back.
//
//   - Ordered key-granularity merge (RangeMergeT): each key lives on
//     exactly one node and per-node streams arrive in ascending key order,
//     so popping the smallest stream head recombines them into one globally
//     ordered walk. The index range walk in internal/baav is this gather.
//
// Cancellation: when the consumer stops early (LIMIT, error), in-flight
// node walks observe the cancel between pairs and abort instead of
// walking their remainder into a buffer nobody reads.
//
// Contract: gather callbacks run while producer goroutines hold per-node
// read locks, so a scan callback must not issue cluster operations — a
// nested op behind a queued writer would deadlock. No current caller does
// (callbacks parse and collect); new callers collect first, operate after.

const (
	// scanChunk is how many pairs a node pipeline packs per channel send.
	scanChunk = 64
	// scanChanCap bounds the chunks a node stream may run ahead of the
	// gather step — backpressure, so a fast node cannot buffer its whole
	// keyspace while the consumer is busy elsewhere.
	scanChanCap = 4
)

// Pair is one key/value yielded by a node pipeline. Slices reference
// engine-owned storage; engines never mutate stored payloads in place
// (updates replace whole values), so pairs stay valid after delivery.
type Pair struct {
	Key   []byte
	Value []byte
}

// RangeStream is one node's ordered, bounded-window walk inside a
// RangeScatterT: pairs arrive in ascending key order on C until the walk
// ends or the scatter is canceled.
type RangeStream struct {
	C <-chan []Pair
}

// RangeScatter tracks the per-node pipelines of one scattered range walk.
type RangeScatter struct {
	// Streams has one ordered pair stream per storage node.
	Streams []RangeStream

	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// Cancel aborts every in-flight node walk and waits for the pipelines to
// exit. Safe to call more than once; always call it when done consuming.
func (s *RangeScatter) Cancel() {
	s.once.Do(func() { close(s.done) })
	s.wg.Wait()
}

// RangeScatterT starts one bounded range walk per storage node — the
// window semantics of ScanRangeNodeT: keys carrying prefix with
// lo <= k <= hi, ascending per node — each in its own goroutine behind a
// bounded channel, and returns the per-node streams for the caller to
// gather. cut, when non-nil, is the producer-side early stop: it runs in
// the node's goroutine after each pair is appended and stops that node's
// walk when it returns false — callers use it to cap how far a LIMIT-bound
// walk scans per node. Nodes with no keys under the prefix are skipped
// without a seek round trip. The caller must Cancel the scatter once it
// stops consuming.
func (c *Cluster) RangeScatterT(t *obs.KV, prefix, lo, hi []byte, cut func(node int, k, v []byte) bool) *RangeScatter {
	s := &RangeScatter{
		Streams: make([]RangeStream, len(c.nodes)),
		done:    make(chan struct{}),
	}
	for i := range c.nodes {
		ch := make(chan []Pair, scanChanCap)
		s.Streams[i] = RangeStream{C: ch}
		s.wg.Add(1)
		go func(i int, ch chan []Pair) {
			defer s.wg.Done()
			defer close(ch)
			var chunk []Pair
			flush := func() bool {
				if len(chunk) == 0 {
					return true
				}
				select {
				case ch <- chunk:
					chunk = nil
					return true
				case <-s.done:
					return false
				}
			}
			c.ScanRangeNodeT(t, i, prefix, lo, hi, func(k, v []byte) bool {
				select {
				case <-s.done:
					return false
				default:
				}
				if chunk == nil {
					chunk = make([]Pair, 0, scanChunk)
				}
				chunk = append(chunk, Pair{Key: k, Value: v})
				if cut != nil && !cut(i, k, v) {
					flush()
					return false
				}
				if len(chunk) == scanChunk {
					return flush()
				}
				return true
			})
			flush()
		}(i, ch)
	}
	return s
}

// RangeMergeT walks the window of RangeScatterT in global ascending key
// order: the ordered gather. It pops the smallest head among the live node
// streams, refills that stream, and repeats — node counts are small, so a
// linear min over stream heads beats a heap. fn receives the node each pair
// came from so callers can account fan-out, and stops the walk by returning
// false; the scatter is always canceled before returning, so an early stop
// aborts the in-flight node walks. fn must not issue cluster operations.
func (c *Cluster) RangeMergeT(t *obs.KV, prefix, lo, hi []byte, cut, fn func(node int, k, v []byte) bool) {
	if c.walkSingle(t, prefix, lo, hi, cut, fn) {
		return
	}
	s := c.RangeScatterT(t, prefix, lo, hi, cut)
	defer s.Cancel()
	chunks := make([][]Pair, len(s.Streams))
	at := make([]int, len(s.Streams))
	live := make([]bool, len(s.Streams))
	// refill ensures stream i has a head pair, blocking on its channel;
	// reports false once the stream is exhausted.
	refill := func(i int) bool {
		for at[i] >= len(chunks[i]) {
			chunk, ok := <-s.Streams[i].C
			if !ok {
				return false
			}
			chunks[i], at[i] = chunk, 0
		}
		return true
	}
	for i := range s.Streams {
		live[i] = refill(i)
	}
	for {
		min := -1
		for i := range live {
			if live[i] && (min < 0 || bytes.Compare(chunks[i][at[i]].Key, chunks[min][at[min]].Key) < 0) {
				min = i
			}
		}
		if min < 0 {
			return
		}
		p := chunks[min][at[min]]
		at[min]++
		if !fn(min, p.Key, p.Value) {
			return
		}
		live[min] = refill(min)
	}
}

// nodePrefixEmpty probes, under a brief read lock, whether the node's
// engine definitely holds no key carrying prefix. Engines answer
// conservatively (see Engine.PrefixEmpty); a false "maybe non-empty" only
// costs the seek round trip the probe exists to save.
func (c *Cluster) nodePrefixEmpty(n *node, prefix []byte) bool {
	n.mu.RLock()
	empty := n.eng.PrefixEmpty(prefix)
	n.mu.RUnlock()
	return empty
}
