package kv

import (
	"sync"

	"zidian/internal/obs"
)

// The scatter pipeline: the placement layer that turns "walk the cluster"
// into "walk every node at once". A logical scan names a key prefix;
// RangeScatterT fans it out as one streaming node walk (ScanNodeT) per
// storage node, each in its own goroutine behind a bounded channel, and the
// gather, ScanT, delivers each node's stream whole, in node order, exactly
// matching the output of walking the nodes one after another. Callers that
// reassemble multi-pair records from adjacent keys (BaaV multi-segment
// blocks — segments of one block are colocated on the block's owner node)
// rely on streams never interleaving at pair granularity. The win is
// overlap: every node's emulated seek round trip and engine walk runs
// concurrently instead of back to back. A one-node cluster has nothing to
// overlap: ScanT then runs the node's walk inline.
// No read needs a global key order across nodes: an index range reads its
// fragments by batched gets (internal/baav).
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

// RangeStream is one node's ordered walk inside a RangeScatterT: pairs
// arrive in ascending key order on C until the walk ends or the scatter is
// canceled.
type RangeStream struct {
	C <-chan []Pair
}

// RangeScatter tracks the per-node pipelines of one scattered walk.
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

// RangeScatterT starts one walk per storage node over the keys carrying
// prefix — ScanNodeT's, ascending per node — each in its own goroutine
// behind a bounded channel, and returns the per-node streams for the caller
// to gather. Nodes with no keys under the prefix are skipped without a seek
// round trip. The caller must Cancel the scatter once it stops consuming.
func (c *Cluster) RangeScatterT(t *obs.KV, prefix []byte) *RangeScatter {
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
			c.ScanNodeT(t, i, prefix, func(k, v []byte) bool {
				select {
				case <-s.done:
					return false
				default:
				}
				if chunk == nil {
					chunk = make([]Pair, 0, scanChunk)
				}
				chunk = append(chunk, Pair{Key: k, Value: v})
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
