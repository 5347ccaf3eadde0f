package kv

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"zidian/internal/obs"
)

// distinctRoutes returns n routes that land on n distinct nodes of c, so a
// test can pin exactly how many nodes a batch touches.
func distinctRoutes(t *testing.T, c *Cluster, n int) [][]byte {
	t.Helper()
	routes := make([][]byte, 0, n)
	seen := make(map[int]bool)
	for i := 0; len(routes) < n && i < 10_000; i++ {
		r := []byte(fmt.Sprintf("route-%d", i))
		ni := c.NodeFor(r)
		if !seen[ni] {
			seen[ni] = true
			routes = append(routes, r)
		}
	}
	if len(routes) < n {
		t.Fatalf("could not find %d distinct-node routes", n)
	}
	return routes
}

func TestApplyBatchValuesAndAccounting(t *testing.T) {
	for _, kind := range []EngineKind{EngineHash, EngineLSM, EngineSorted} {
		t.Run(kind.String(), func(t *testing.T) {
			c := NewCluster(kind, 4)
			routes := distinctRoutes(t, c, 3)
			var ops []BatchOp
			for ri, r := range routes {
				for s := 0; s < 4; s++ {
					ops = append(ops, BatchOp{
						Route: r,
						Key:   []byte(fmt.Sprintf("%s/%d", r, s)),
						Value: []byte(fmt.Sprintf("v%d-%d", ri, s)),
					})
				}
			}
			var kvt obs.KV
			c.ApplyBatch(&kvt, ops)
			// Every op landed, colocated with its route.
			for _, op := range ops {
				v, ok := c.GetRoutedT(nil, op.Route, op.Key)
				if !ok || string(v) != string(op.Value) {
					t.Fatalf("key %q = %q, %v; want %q", op.Key, v, ok, op.Value)
				}
				owner := c.NodeFor(op.Route)
				found := false
				c.ScanNode(owner, op.Key, func(_, _ []byte) bool { found = true; return false })
				if !found {
					t.Fatalf("key %q not on its route's node", op.Key)
				}
			}
			// Trace put count equals the op count and matches the cluster
			// metrics (same conservation the traced single-op paths keep).
			snap := kvt.Snapshot()
			if snap.Puts != int64(len(ops)) {
				t.Fatalf("trace puts = %d, want %d", snap.Puts, len(ops))
			}
			// Batched deletes remove the pairs and count per op.
			var dels []BatchOp
			for _, op := range ops[:5] {
				dels = append(dels, BatchOp{Route: op.Route, Key: op.Key, Delete: true})
			}
			c.ApplyBatch(&kvt, dels)
			if got := kvt.Snapshot().Deletes; got != 5 {
				t.Fatalf("trace deletes = %d, want 5", got)
			}
			if _, ok := c.GetRoutedT(nil, ops[0].Route, ops[0].Key); ok {
				t.Fatal("batched delete left the pair")
			}
			if m := c.Metrics(); m.Puts != int64(len(ops)) || m.Deletes != 5 {
				t.Fatalf("cluster metrics = %+v", m)
			}
		})
	}
}

func TestApplyBatchChargesOneDelayPerNode(t *testing.T) {
	for _, kind := range []EngineKind{EngineHash, EngineLSM, EngineSorted} {
		t.Run(kind.String(), func(t *testing.T) {
			c := NewCluster(kind, 4)
			routes := distinctRoutes(t, c, 3)
			delay := 2 * time.Millisecond
			c.SetServiceDelay(delay)
			// 30 ops spread over exactly 3 nodes: the batch must pay 3 RTTs,
			// not 30.
			var ops []BatchOp
			for i := 0; i < 30; i++ {
				r := routes[i%3]
				ops = append(ops, BatchOp{
					Route: r,
					Key:   []byte(fmt.Sprintf("%s/k%02d", r, i)),
					Value: []byte("v"),
				})
			}
			var kvt obs.KV
			c.ApplyBatch(&kvt, ops)
			if got, want := kvt.Snapshot().WaitNanos, int64(3*delay); got != want {
				t.Fatalf("batched apply waited %d ns, want exactly %d (3 nodes x 1 RTT)", got, want)
			}

			// The multi-get pays the same per-node accounting.
			var reqs []GetRequest
			for _, op := range ops {
				reqs = append(reqs, GetRequest{Route: op.Route, Key: op.Key})
			}
			var gt obs.KV
			res := c.GetManyRouted(&gt, reqs)
			for i, r := range res {
				if !r.OK || string(r.Value) != "v" {
					t.Fatalf("result %d = %+v", i, r)
				}
			}
			if got, want := gt.Snapshot().WaitNanos, int64(3*delay); got != want {
				t.Fatalf("batched get waited %d ns, want exactly %d", got, want)
			}
			if got := gt.Snapshot().Gets; got != int64(len(reqs)) {
				t.Fatalf("trace gets = %d, want %d", got, len(reqs))
			}
		})
	}
}

func TestGetManyRoutedAlignmentAndMisses(t *testing.T) {
	c := NewCluster(EngineHash, 4)
	c.PutRouted([]byte("r1"), []byte("r1/a"), []byte("A"))
	c.PutRouted([]byte("r2"), []byte("r2/b"), []byte("B"))
	res := c.GetManyRouted(nil, []GetRequest{
		{Route: []byte("r2"), Key: []byte("r2/b")},
		{Route: []byte("r1"), Key: []byte("r1/missing")},
		{Route: []byte("r1"), Key: []byte("r1/a")},
	})
	if !res[0].OK || string(res[0].Value) != "B" {
		t.Fatalf("res[0] = %+v", res[0])
	}
	if res[1].OK {
		t.Fatalf("res[1] should miss, got %+v", res[1])
	}
	if !res[2].OK || string(res[2].Value) != "A" {
		t.Fatalf("res[2] = %+v", res[2])
	}
	// Empty batches are free.
	var kvt obs.KV
	c.SetServiceDelay(time.Millisecond)
	c.ApplyBatch(&kvt, nil)
	if out := c.GetManyRouted(&kvt, nil); len(out) != 0 {
		t.Fatalf("empty multi-get returned %d results", len(out))
	}
	if w := kvt.Snapshot().WaitNanos; w != 0 {
		t.Fatalf("empty batches waited %d ns", w)
	}
}

// TestServiceDelayQueuesPerNode pins the one property the emulated network
// has: a round occupies its node for the delay, so two concurrent rounds to
// the same node queue behind each other while rounds to different nodes
// overlap. It is what makes node count a capacity axis in -exp scaleout.
func TestServiceDelayQueuesPerNode(t *testing.T) {
	c := NewCluster(EngineHash, 4)
	routes := distinctRoutes(t, c, 2)
	const delay = 50 * time.Millisecond
	c.SetServiceDelay(delay)
	pair := func(a, b []byte) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for _, r := range [][]byte{a, b} {
			wg.Add(1)
			go func(r []byte) {
				defer wg.Done()
				c.GetRoutedT(nil, r, r)
			}(r)
		}
		wg.Wait()
		return time.Since(start)
	}
	if d := pair(routes[0], routes[0]); d < 2*delay {
		t.Fatalf("two rounds to one node took %v, want >= %v (they must queue)", d, 2*delay)
	}
	if d := pair(routes[0], routes[1]); d >= 2*delay {
		t.Fatalf("two rounds to different nodes took %v, want < %v (they must overlap)", d, 2*delay)
	}
	// Zero switches the emulation off: no wait is charged.
	c.SetServiceDelay(0)
	var kvt obs.KV
	c.GetRoutedT(&kvt, routes[0], routes[0])
	if w := kvt.Snapshot().WaitNanos; w != 0 {
		t.Fatalf("zero delay charged %d ns", w)
	}
}
