package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceConcurrentRecording hammers one trace's counters from many
// goroutines — the executor's worker pattern — and checks the
// totals. Run under -race this is the trace-recording race test.
func TestTraceConcurrentRecording(t *testing.T) {
	tr := &Trace{}
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kv := tr.KVCounters()
			for i := 0; i < perWorker; i++ {
				kv.CountGets(1, 10)
				kv.CountScanNext(20)
				kv.CountPut(5)
				kv.CountDelete()
				kv.CountWait(time.Microsecond)
				tr.CountPostings(2)
				tr.CountBlocks(1)
			}
		}()
	}
	wg.Wait()
	s := tr.KV.Snapshot()
	n := int64(workers * perWorker)
	if s.Gets != n || s.ScanNexts != n || s.Puts != n || s.Deletes != n {
		t.Fatalf("counters = %+v, want %d each", s, n)
	}
	if s.BytesRead != 30*n || s.BytesWritten != 5*n {
		t.Fatalf("bytes = read %d written %d, want %d / %d", s.BytesRead, s.BytesWritten, 30*n, 5*n)
	}
	if s.WaitNanos != n*int64(time.Microsecond) {
		t.Fatalf("waitNanos = %d, want %d", s.WaitNanos, n*int64(time.Microsecond))
	}
	if tr.PostingReads() != 2*n || tr.Blocks() != n {
		t.Fatalf("postings = %d blocks = %d, want %d / %d", tr.PostingReads(), tr.Blocks(), 2*n, n)
	}
	if s.Ops() != 4*n {
		t.Fatalf("ops = %d, want %d", s.Ops(), 4*n)
	}
}

// TestTraceNilSafe: every method on a nil trace and nil KV is a no-op, so
// the untraced path costs only nil checks.
func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	var kv *KV
	kv.CountGets(1, 1)
	kv.CountPut(1)
	kv.CountDelete()
	kv.CountScanNext(1)
	kv.CountWait(time.Second)
	if s := kv.Snapshot(); s != (KVSnapshot{}) {
		t.Fatalf("nil KV snapshot = %+v", s)
	}
	tr.CountPostings(1)
	tr.CountBlocks(1)
	if tr.PostingReads() != 0 || tr.Blocks() != 0 || tr.KVCounters() != nil {
		t.Fatal("nil trace leaked state")
	}
	n := tr.StartOp("Scan", "")
	if n != nil {
		t.Fatal("nil trace opened a span")
	}
	tr.FinishOp(n, 0) // must not panic
	if lines := RenderPlan(nil, true); len(lines) != 0 {
		t.Fatalf("RenderPlan(nil) = %v", lines)
	}
}

// TestTraceSpanTree: spans nest into a tree, record inclusive kv deltas,
// and render with indentation.
func TestTraceSpanTree(t *testing.T) {
	tr := &Trace{}
	root := tr.StartOp("HashJoin", "S.nationkey = N.nationkey")
	left := tr.StartOp("IndexLookup", "NATION(name)")
	tr.KVCounters().CountGets(1, 100)
	tr.FinishOp(left, 1)
	right := tr.StartOp("ScanRange", "SUPPLIER")
	tr.KVCounters().CountScanNext(50)
	tr.KVCounters().CountScanNext(50)
	tr.FinishOp(right, 2)
	tr.FinishOp(root, 2)

	if tr.Root != root || len(root.Children) != 2 {
		t.Fatalf("tree shape wrong: root=%v children=%d", tr.Root, len(root.Children))
	}
	if left.KV.Gets != 1 || left.KV.ScanNexts != 0 {
		t.Fatalf("left span kv = %+v", left.KV)
	}
	if right.KV.ScanNexts != 2 || right.KV.Gets != 0 {
		t.Fatalf("right span kv = %+v", right.KV)
	}
	// The root's inclusive delta covers both children.
	if root.KV.Gets != 1 || root.KV.ScanNexts != 2 {
		t.Fatalf("root inclusive kv = %+v", root.KV)
	}

	plain := RenderPlan(tr.Root, false)
	if len(plain) != 3 {
		t.Fatalf("plain render = %v", plain)
	}
	if plain[0] != "HashJoin S.nationkey = N.nationkey" {
		t.Fatalf("root line = %q", plain[0])
	}
	if !strings.HasPrefix(plain[1], "  IndexLookup") || !strings.HasPrefix(plain[2], "  ScanRange") {
		t.Fatalf("children not indented: %v", plain)
	}
	analyzed := RenderPlan(tr.Root, true)
	if !strings.Contains(analyzed[0], "rows=2") || !strings.Contains(analyzed[0], "kvops=3") {
		t.Fatalf("analyzed root line = %q", analyzed[0])
	}
	if !strings.Contains(analyzed[1], "gets=1") || !strings.Contains(analyzed[2], "scan_next=2") {
		t.Fatalf("analyzed child lines = %v", analyzed[1:])
	}
}
