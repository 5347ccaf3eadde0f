package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"zidian/internal/obs"
)

func TestClusterRoutingIsStable(t *testing.T) {
	c := NewCluster(EngineHash, 4)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key%d", i))
		n1 := c.NodeFor(k)
		n2 := c.NodeFor(k)
		if n1 != n2 {
			t.Fatal("routing must be deterministic")
		}
		if n1 < 0 || n1 >= 4 {
			t.Fatalf("node %d out of range", n1)
		}
	}
}

func TestClusterGetPutDelete(t *testing.T) {
	c := NewCluster(EngineHash, 3)
	c.Put([]byte("a"), []byte("1"))
	if v, ok := c.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("get = %q,%v", v, ok)
	}
	if _, ok := c.Get([]byte("zzz")); ok {
		t.Fatal("missing key must miss")
	}
	if !c.Delete([]byte("a")) || c.Delete([]byte("a")) {
		t.Fatal("delete semantics")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestClusterScanVisitsAllNodes(t *testing.T) {
	c := NewCluster(EngineHash, 4)
	want := make(map[string]bool)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("p/%02d", i)
		c.Put([]byte(k), []byte("v"))
		want[k] = true
	}
	c.Put([]byte("q/other"), []byte("v"))
	got := make(map[string]bool)
	c.Scan([]byte("p/"), func(k, _ []byte) bool { got[string(k)] = true; return true })
	if len(got) != len(want) {
		t.Fatalf("scan visited %d keys, want %d", len(got), len(want))
	}
	// Early termination stops the whole scan.
	n := 0
	c.Scan([]byte("p/"), func(_, _ []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestSizeReadsShareTheNodeLock: Len and SizeBytes are pure reads on every
// engine, so they must proceed while a reader holds a node's shared lock (a
// scan callback parked mid-walk) instead of queueing behind it as a writer.
func TestSizeReadsShareTheNodeLock(t *testing.T) {
	for _, kind := range allKinds {
		c := NewCluster(kind, 2)
		for i := 0; i < 16; i++ {
			c.Put([]byte(fmt.Sprintf("p/%02d", i)), []byte("v"))
		}
		parked, release := make(chan struct{}), make(chan struct{})
		scanDone := make(chan struct{})
		go func() {
			defer close(scanDone)
			c.ScanNode(c.NodeFor([]byte("p/00")), []byte("p/"), func(_, _ []byte) bool {
				close(parked)
				<-release
				return false
			})
		}()
		<-parked
		sized := make(chan int64, 1)
		go func() { sized <- int64(c.Len()) + c.SizeBytes() }()
		select {
		case got := <-sized:
			if got <= 16 {
				t.Errorf("%v: Len+SizeBytes = %d", kind, got)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%v: Len/SizeBytes blocked behind a reader holding the node's shared lock", kind)
		}
		close(release)
		<-scanDone
	}
}

func TestClusterScanNodePartition(t *testing.T) {
	c := NewCluster(EngineHash, 4)
	for i := 0; i < 64; i++ {
		c.Put([]byte(fmt.Sprintf("p/%02d", i)), []byte("v"))
	}
	total := 0
	for i := 0; i < c.NodeCount(); i++ {
		c.ScanNode(i, []byte("p/"), func(_, _ []byte) bool { total++; return true })
	}
	if total != 64 {
		t.Fatalf("per-node scans visited %d", total)
	}
}

func TestClusterMetrics(t *testing.T) {
	c := NewCluster(EngineHash, 2)
	c.Put([]byte("a"), []byte("12345"))
	c.Put([]byte("b"), []byte("1"))
	c.Get([]byte("a"))
	c.Get([]byte("missing"))
	c.Scan(nil, func(_, _ []byte) bool { return true })
	m := c.Metrics()
	if m.Puts != 2 {
		t.Fatalf("puts = %d", m.Puts)
	}
	if m.Gets != 2 {
		t.Fatalf("gets = %d", m.Gets)
	}
	if m.ScanNexts != 2 {
		t.Fatalf("scanNexts = %d", m.ScanNexts)
	}
	if m.BytesRead < 5 {
		t.Fatalf("bytesRead = %d", m.BytesRead)
	}
	c.ResetMetrics()
	if c.Metrics() != (Snapshot{}) {
		t.Fatal("reset must zero metrics")
	}
	// Per-node metrics sum to the aggregate.
	c.Get([]byte("a"))
	var sum Snapshot
	for i := 0; i < c.NodeCount(); i++ {
		sum = sum.Add(c.NodeMetrics(i))
	}
	if sum != c.Metrics() {
		t.Fatal("per-node metrics must sum to aggregate")
	}
}

func TestClusterConcurrentAccess(t *testing.T) {
	c := NewCluster(EngineLSM, 4)
	for i := 0; i < 256; i++ {
		c.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("k%04d", (i*7+w)%256))
				if _, ok := c.Get(k); !ok {
					t.Errorf("missing %s", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Metrics().Gets; got != 8*500 {
		t.Fatalf("gets = %d", got)
	}
}

func TestSnapshotArithmetic(t *testing.T) {
	a := Snapshot{Gets: 10, Puts: 5, BytesRead: 100}
	b := Snapshot{Gets: 4, Puts: 1, BytesRead: 40}
	d := a.Sub(b)
	if d.Gets != 6 || d.Puts != 4 || d.BytesRead != 60 {
		t.Fatalf("sub = %+v", d)
	}
	s := b.Add(b)
	if s.Gets != 8 || s.BytesRead != 80 {
		t.Fatalf("add = %+v", s)
	}
}

func TestNewClusterClampsSize(t *testing.T) {
	c := NewCluster(EngineHash, 0)
	if c.NodeCount() != 1 {
		t.Fatalf("node count = %d", c.NodeCount())
	}
}

func TestCostModelQueryTime(t *testing.T) {
	m := ProfileKStore
	scanHeavy := Snapshot{ScanNexts: 1_000_000, BytesRead: 1 << 26}
	getLight := Snapshot{Gets: 100, BytesRead: 1 << 12}
	tScan := m.QueryUS(scanHeavy, 0, 4, 4)
	tGet := m.QueryUS(getLight, 0, 4, 4)
	if tGet >= tScan {
		t.Fatalf("get-light query (%f) should be faster than scan-heavy (%f)", tGet, tScan)
	}
	// More storage nodes reduce scan-heavy time.
	if m.QueryUS(scanHeavy, 0, 8, 4) >= tScan {
		t.Fatal("more nodes must not slow down")
	}
	// Cost models map to engine kinds.
	if ProfileHStore.EngineKind() != EngineLSM ||
		ProfileKStore.EngineKind() != EngineSorted ||
		ProfileCStore.EngineKind() != EngineHash {
		t.Fatal("profile/engine mapping")
	}
	if len(Profiles()) != 3 {
		t.Fatal("three standard profiles")
	}
	if m.QueryUS(Snapshot{}, 0, 0, 0) <= 0 {
		t.Fatal("setup cost must be positive even for empty queries")
	}
}

func TestClusterRoutedOps(t *testing.T) {
	c := NewCluster(EngineHash, 4)
	route := []byte("block-7")
	// All segments of one logical block share the route and colocate.
	for seg := 0; seg < 5; seg++ {
		c.PutRouted(route, []byte(fmt.Sprintf("block-7/%d", seg)), []byte("v"))
	}
	owner := c.NodeFor(route)
	found := 0
	c.ScanNode(owner, []byte("block-7/"), func(_, _ []byte) bool { found++; return true })
	if found != 5 {
		t.Fatalf("segments scattered: %d of 5 on the owner node", found)
	}
	if v, ok := c.GetRoutedT(nil, route, []byte("block-7/3")); !ok || string(v) != "v" {
		t.Fatalf("routed get = %q %v", v, ok)
	}
	if !c.DeleteRouted(route, []byte("block-7/3")) {
		t.Fatal("routed delete")
	}
	if _, ok := c.GetRoutedT(nil, route, []byte("block-7/3")); ok {
		t.Fatal("deleted segment visible")
	}
}

// scanPair is one key/value a walk delivered. Its slices are the engine's
// windows (see Engine), which keep their bytes after delivery.
type scanPair struct{ Key, Value []byte }

var clusterNodeCounts = []int{1, 2, 4, 8}

// ffPrefix has no successor: its scans run with an open upper fence.
var ffPrefix = []byte{0xFF, 0xFF}

// clusterFixture loads a deterministic keyspace: nPairs keys under prefix
// "blk/", plus decoys under "idx/" and "zzz/" that a prefix walk must never
// leak and a handful under the all-0xFF prefix. Values vary in size.
func clusterFixture(kind EngineKind, nodes, nPairs int) *Cluster {
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
func collectPairs(pairs []scanPair) string {
	var b bytes.Buffer
	for _, p := range pairs {
		fmt.Fprintf(&b, "%q=%x\n", p.Key, p.Value)
	}
	return b.String()
}

// serialScan is the reference a cluster scan must match: walk each node in
// node order, pairs in key order within the node.
func serialScan(c *Cluster, prefix []byte) []scanPair {
	var out []scanPair
	for i := 0; i < c.NodeCount(); i++ {
		c.ScanNodeT(nil, i, prefix, func(k, v []byte) bool {
			out = append(out, scanPair{Key: k, Value: v})
			return true
		})
	}
	return out
}

// TestScanMatchesNodeOrderWalk: Scan delivers exactly the node-order
// concatenation of the per-node walks — for an ordinary prefix, the empty
// prefix (everything) and an all-0xFF prefix (no successor fence) — and a
// consumer that stops after k pairs has seen exactly the first k, on every
// engine and node count.
func TestScanMatchesNodeOrderWalk(t *testing.T) {
	for _, kind := range allKinds {
		for _, nodes := range clusterNodeCounts {
			c := clusterFixture(kind, nodes, 300)
			for _, prefix := range [][]byte{[]byte("blk/"), nil, ffPrefix} {
				ref := serialScan(c, prefix)
				if len(ref) == 0 {
					t.Fatalf("%v/%d nodes prefix %q: empty reference walk", kind, nodes, prefix)
				}
				for _, stop := range []int{-1, 0, 1, 63, 64, 65, 200} {
					var got []scanPair
					c.Scan(prefix, func(k, v []byte) bool {
						got = append(got, scanPair{Key: k, Value: v})
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
	}
	for _, kind := range allKinds {
		for _, nodes := range []int{1, 4} {
			c := clusterFixture(kind, nodes, 300)
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

// TestGetManyRoutedMatchesPointGets: the batched routed fetch must agree
// with one-at-a-time GetRoutedT on hits, misses, and routed (block-prefix)
// keys, while touching each owning node once.
func TestGetManyRoutedMatchesPointGets(t *testing.T) {
	for _, kind := range allKinds {
		for _, nodes := range clusterNodeCounts {
			c := clusterFixture(kind, nodes, 200)
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
