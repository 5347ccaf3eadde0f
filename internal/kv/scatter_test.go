package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"zidian/internal/obs"
)

// The scatter differential suite: the gathers over the concurrent per-node
// pipeline must be observationally identical to walking the nodes one after
// another — byte-for-byte, across engines and node counts, under -race.

var scatterNodeCounts = []int{1, 2, 4, 8}

// ffPrefix has no successor: its scans run with an open upper fence.
var ffPrefix = []byte{0xFF, 0xFF}

// scatterFixture loads a deterministic keyspace: nPairs keys under prefix
// "blk/", plus decoys under "idx/" and "zzz/" that a prefix walk must never
// leak and a handful under the all-0xFF prefix. Values vary in size so chunk
// boundaries land at different offsets per node count.
func scatterFixture(kind EngineKind, nodes, nPairs int) *Cluster {
	c := NewCluster(kind, nodes)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < nPairs; i++ {
		k := []byte(fmt.Sprintf("blk/%05d", i))
		v := make([]byte, 1+rng.Intn(48))
		rng.Read(v)
		c.Put(k, v)
		c.Put([]byte(fmt.Sprintf("idx/%05d", i)), []byte{byte(i)})
	}
	c.Put([]byte("zzz/tail"), []byte("tail"))
	for i := 0; i < 9; i++ {
		c.Put(append(append([]byte{}, ffPrefix...), byte(i)), []byte{byte(i)})
	}
	return c
}

// collectPairs renders a pair sequence into one comparable byte string,
// preserving order.
func collectPairs(pairs []Pair) string {
	var b bytes.Buffer
	for _, p := range pairs {
		fmt.Fprintf(&b, "%q=%x\n", p.Key, p.Value)
	}
	return b.String()
}

// serialScan is the reference the gather must match: walk each node in node
// order, pairs in key order within the node.
func serialScan(c *Cluster, prefix []byte) []Pair {
	var out []Pair
	for i := 0; i < c.NodeCount(); i++ {
		c.ScanNodeT(nil, i, prefix, func(k, v []byte) bool {
			out = append(out, Pair{Key: k, Value: v})
			return true
		})
	}
	return out
}

// TestScanMatchesNodeOrderWalk: Scan delivers exactly the node-order
// concatenation of the per-node walks — for an ordinary prefix, the empty
// prefix (everything) and an all-0xFF prefix (no successor fence) — and a
// consumer that stops after k pairs has seen exactly the first k, with the
// in-flight node pipelines wound down (Cancel waits for them; a stuck
// producer hangs the test).
func TestScanMatchesNodeOrderWalk(t *testing.T) {
	for _, kind := range allKinds {
		for _, nodes := range scatterNodeCounts {
			c := scatterFixture(kind, nodes, 300)
			for _, prefix := range [][]byte{[]byte("blk/"), nil, ffPrefix} {
				ref := serialScan(c, prefix)
				if len(ref) == 0 {
					t.Fatalf("%v/%d nodes prefix %q: empty reference walk", kind, nodes, prefix)
				}
				for _, stop := range []int{-1, 0, 1, 63, 64, 65, 200} {
					var got []Pair
					c.Scan(prefix, func(k, v []byte) bool {
						got = append(got, Pair{Key: k, Value: v})
						return stop < 0 || len(got) < stop
					})
					wantN := stop
					if stop == 0 {
						wantN = 1 // fn sees the first pair, then stops
					}
					if stop < 0 || wantN > len(ref) {
						wantN = len(ref)
					}
					if collectPairs(got) != collectPairs(ref[:wantN]) {
						t.Fatalf("%v/%d nodes prefix %q stop=%d: walk is not the node-order walk's first %d pairs (got %d)",
							kind, nodes, prefix, stop, wantN, len(got))
					}
				}
			}
		}
	}
}

// TestTracedReadsEqualMetricsDelta: every read form counts into the trace
// exactly what it counts into the node metrics, so a statement's traced
// totals reconcile with the cluster-wide delta. A prefix no node holds is
// answered without a seek round or a scan step: every engine answers
// prefix-emptiness definitively, so with a service delay installed the
// absent-prefix forms accrue no wait at all.
func TestTracedReadsEqualMetricsDelta(t *testing.T) {
	present, absent := []byte("blk/"), []byte("nope/")
	keep := func(_, _ []byte) bool { return true }
	forms := []struct {
		name string
		run  func(c *Cluster, kvt *obs.KV, prefix []byte)
	}{
		{"GetRoutedT", func(c *Cluster, kvt *obs.KV, prefix []byte) {
			for i := 0; i < 40; i++ {
				k := append(append([]byte{}, prefix...), fmt.Sprintf("%05d", i*9)...)
				c.GetRoutedT(kvt, k, k)
			}
		}},
		{"GetManyRouted", func(c *Cluster, kvt *obs.KV, prefix []byte) {
			var reqs []GetRequest
			for i := 0; i < 40; i++ {
				k := append(append([]byte{}, prefix...), fmt.Sprintf("%05d", i*9)...)
				reqs = append(reqs, GetRequest{Route: k, Key: k})
			}
			c.GetManyRouted(kvt, reqs)
		}},
		{"ScanT", func(c *Cluster, kvt *obs.KV, prefix []byte) { c.ScanT(kvt, prefix, keep) }},
		{"ScanNodeT", func(c *Cluster, kvt *obs.KV, prefix []byte) {
			for i := 0; i < c.NodeCount(); i++ {
				c.ScanNodeT(kvt, i, prefix, keep)
			}
		}},
		{"ScanRangeNodeT", func(c *Cluster, kvt *obs.KV, prefix []byte) {
			lo := append(append([]byte{}, prefix...), "00100"...)
			hi := append(append([]byte{}, prefix...), "00199"...)
			for i := 0; i < c.NodeCount(); i++ {
				c.ScanRangeNodeT(kvt, i, prefix, lo, hi, keep)
			}
		}},
		{"RangeScatterT", func(c *Cluster, kvt *obs.KV, prefix []byte) {
			s := c.RangeScatterT(kvt, prefix)
			for _, stream := range s.Streams {
				for range stream.C {
				}
			}
			s.Cancel()
		}},
	}
	for _, kind := range allKinds {
		for _, nodes := range []int{1, 4} {
			c := scatterFixture(kind, nodes, 300)
			for _, f := range forms {
				for _, prefix := range [][]byte{present, absent} {
					skips := bytes.Equal(prefix, absent) && !strings.HasPrefix(f.name, "Get")
					if skips {
						c.SetServiceDelay(time.Millisecond)
					}
					kvt := &obs.KV{}
					before := c.Metrics()
					f.run(c, kvt, prefix)
					c.SetServiceDelay(0)
					d, tr := c.Metrics().Sub(before), kvt.Snapshot()
					if tr.Gets != d.Gets || tr.ScanNexts != d.ScanNexts || tr.BytesRead != d.BytesRead {
						t.Fatalf("%v/%d nodes %s(%q): trace %+v != metrics delta %+v", kind, nodes, f.name, prefix, tr, d)
					}
					switch {
					case skips && (d.ScanNexts != 0 || tr.WaitNanos != 0):
						t.Fatalf("%v/%d nodes %s: absent prefix took %d scan steps, %dns of seek rounds",
							kind, nodes, f.name, d.ScanNexts, tr.WaitNanos)
					case !skips && d.Gets+d.ScanNexts == 0:
						t.Fatalf("%v/%d nodes %s(%q): no traffic", kind, nodes, f.name, prefix)
					}
				}
			}
		}
	}
}

// TestRangeScatterStreamsMatchSerial: each node stream of a scattered walk
// must deliver exactly the pairs of that node's serial walk, in the same
// ascending order — for an ordinary prefix, the empty prefix (everything),
// an all-0xFF prefix (no successor fence) and a prefix no node holds.
func TestRangeScatterStreamsMatchSerial(t *testing.T) {
	for _, kind := range allKinds {
		for _, nodes := range scatterNodeCounts {
			c := scatterFixture(kind, nodes, 300)
			for _, prefix := range [][]byte{[]byte("blk/"), nil, ffPrefix, []byte("nope/")} {
				s := c.RangeScatterT(nil, prefix)
				for i := 0; i < nodes; i++ {
					var want []Pair
					c.ScanNodeT(nil, i, prefix, func(k, v []byte) bool {
						want = append(want, Pair{Key: k, Value: v})
						return true
					})
					var got []Pair
					for chunk := range s.Streams[i].C {
						got = append(got, chunk...)
					}
					if collectPairs(got) != collectPairs(want) {
						t.Fatalf("%v/%d nodes prefix %q node %d: stream diverged from serial walk (%d vs %d pairs)",
							kind, nodes, prefix, i, len(got), len(want))
					}
				}
				s.Cancel()
			}
		}
	}
}

// TestRangeScatterCancelMidStream: canceling with undrained streams must
// release every producer (Cancel blocks until the pipelines exit; a stuck
// producer hangs the test).
func TestRangeScatterCancelMidStream(t *testing.T) {
	for _, kind := range allKinds {
		c := scatterFixture(kind, 4, 2000)
		s := c.RangeScatterT(nil, []byte("blk/"))
		// Consume one chunk from one stream, then walk away.
		for range s.Streams[0].C {
			break
		}
		s.Cancel()
		// The cluster must be fully usable afterwards: locks released.
		c.Put([]byte("blk/99999"), []byte("post-cancel"))
		if _, ok := c.Get([]byte("blk/99999")); !ok {
			t.Fatalf("%v: cluster unusable after mid-stream cancel", kind)
		}
	}
}

// TestGetManyRoutedMatchesPointGets: the batched routed fetch must agree
// with one-at-a-time GetRoutedT on hits, misses, and routed (block-prefix)
// keys, while touching each owning node once.
func TestGetManyRoutedMatchesPointGets(t *testing.T) {
	for _, kind := range allKinds {
		for _, nodes := range scatterNodeCounts {
			c := scatterFixture(kind, nodes, 200)
			var reqs []GetRequest
			for i := 0; i < 250; i += 3 { // past 200: misses included
				k := []byte(fmt.Sprintf("blk/%05d", i))
				reqs = append(reqs, GetRequest{Route: k, Key: k})
			}
			got := c.GetManyRouted(nil, reqs)
			for i, r := range reqs {
				wantV, wantOK := c.GetRoutedT(nil, r.Route, r.Key)
				if got[i].OK != wantOK || !bytes.Equal(got[i].Value, wantV) {
					t.Fatalf("%v/%d nodes req %d (%q): batched (%x,%v) vs point (%x,%v)",
						kind, nodes, i, r.Key, got[i].Value, got[i].OK, wantV, wantOK)
				}
			}
		}
	}
}
