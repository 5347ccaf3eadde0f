package kv

import (
	"fmt"
	"sync"
	"testing"
	"time"
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
