package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"zidian"
)

// stmtVerbs are every verb the serving layer records.
var stmtVerbs = []string{
	verbSelect, verbInsert, verbDelete, verbDDL,
	verbExplain, verbExplainAnalyze, verbShow,
}

// TestStmtStatsServerConservation drives concurrent mixed traffic through a
// server whose statement registry is far smaller than the distinct-template
// count — forcing LRU evictions — on all three kv engines, and requires the
// registry to conserve every statement: the per-template sums (including the
// _evicted fold) must equal the global verb counters and the merged latency
// histogram exactly. Run under -race this is also the registry's data-race
// probe inside the real serving path.
func TestStmtStatsServerConservation(t *testing.T) {
	for _, eng := range []string{"hash", "lsm", "sorted"} {
		t.Run(eng, func(t *testing.T) {
			db, bv := mixedDB(t)
			inst, err := zidian.Open(db, bv, zidian.Options{Engine: eng, Nodes: 4, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			// Capacity 8 vs ~27 distinct templates (15 reads, 6 writes, 6 DDL)
			// guarantees evictions while traffic is still arriving.
			srv := New(inst, Config{MaxConcurrent: 8, QueueDepth: 256, StmtStatsCapacity: 8})
			ctx := context.Background()
			for _, ddl := range mixedDDL() {
				if _, err := srv.Exec(ctx, ddl); err != nil {
					t.Fatal(err)
				}
			}

			errs := make(chan error, 16)
			var wg sync.WaitGroup
			for w := range mixedRels {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for _, stmt := range mixedWriteOps(w) {
						if _, err := srv.Exec(ctx, stmt); err != nil {
							select {
							case errs <- fmt.Errorf("writer %d: %v", w, err):
							default:
							}
							return
						}
					}
				}(w)
			}
			suite := mixedReadSuite()
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						q := suite[(r+i)%len(suite)]
						if _, _, _, err := srv.Query(ctx, q); err != nil {
							select {
							case errs <- fmt.Errorf("reader %d: %v", r, err):
							default:
							}
							return
						}
					}
				}(r)
			}
			wg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			// A SHOW mid-stream counts as a statement itself.
			if _, err := srv.Exec(ctx, "show statements"); err != nil {
				t.Fatal(err)
			}

			snap := srv.obs.stmts.Snapshot()
			if snap.Evictions == 0 {
				t.Fatalf("no evictions with capacity %d — test lost its point", snap.Capacity)
			}
			var calls, errN, totalNanos, kvOps int64
			entries := snap.Statements
			if snap.Evicted != nil {
				entries = append(entries, *snap.Evicted)
			}
			for _, e := range entries {
				calls += e.Calls
				errN += e.Errors
				totalNanos += e.TotalNanos
				kvOps += e.KVOps
			}

			var wantCalls int64
			for _, v := range stmtVerbs {
				wantCalls += srv.obs.queries.With(v).Value()
			}
			if calls != wantCalls {
				t.Fatalf("registry holds %d calls, verb counters hold %d", calls, wantCalls)
			}
			if errN != 0 {
				t.Fatalf("registry recorded %d errors on an error-free run", errN)
			}
			merged := srv.obs.latency.MergedSnapshot()
			if merged.Count != calls {
				t.Fatalf("latency histogram holds %d observations, registry %d calls", merged.Count, calls)
			}
			if merged.SumNanos != totalNanos {
				t.Fatalf("latency histogram sums %dns, registry %dns — same wall must feed both", merged.SumNanos, totalNanos)
			}
			if kvOps <= 0 {
				t.Fatalf("registry recorded no kv ops across %d calls", calls)
			}

			// TopTemplates must conserve calls too (it folds the evicted
			// bucket and merges verbs).
			var topCalls int64
			for _, tt := range srv.obs.stmts.TopTemplates(snap.Tracked + 1) {
				topCalls += tt.Calls
			}
			if topCalls != calls {
				t.Fatalf("TopTemplates sums %d calls, registry %d", topCalls, calls)
			}
		})
	}
}

// TestOperatorSpansOnlyWhereRead: an operator tree is recorded for the one
// verb whose answer is the tree. An ordinary read runs under a trace that
// counts and opens no span — Root stays nil — and its counters lose nothing
// for it: the kv totals of either trace equal the cluster's own deltas over
// the statement.
func TestOperatorSpansOnlyWhereRead(t *testing.T) {
	db, bv := mixedDB(t)
	inst, err := zidian.Open(db, bv, zidian.Options{Nodes: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(inst, Config{})
	ctx := context.Background()
	for _, ddl := range mixedDDL() {
		if _, err := srv.Exec(ctx, ddl); err != nil {
			t.Fatal(err)
		}
	}
	cluster := inst.Store().Cluster
	for _, sql := range mixedReadSuite() {
		p, err := inst.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, verb := range []string{verbSelect, verbExplainAnalyze} {
			c := srv.obs.begin(verb)
			before := cluster.Metrics()
			if verb == verbSelect {
				_, _, err = p.RunTraced(c.Trace())
			} else {
				_, _, _, err = p.Analyze(c.Trace())
			}
			if err != nil {
				t.Fatalf("%s %q: %v", verb, sql, err)
			}
			delta := cluster.Metrics().Sub(before)
			if got := c.trace.Root != nil; got != (verb == verbExplainAnalyze) {
				t.Fatalf("%s %q: operator tree recorded = %v", verb, sql, got)
			}
			kv := c.trace.KV.Snapshot()
			if kv.Ops() == 0 {
				t.Fatalf("%s %q: the trace counted no kv operation", verb, sql)
			}
			if kv.Gets != delta.Gets || kv.ScanNexts != delta.ScanNexts || kv.BytesRead != delta.BytesRead {
				t.Fatalf("%s %q: trace counted gets=%d scan_next=%d bytes=%d, the cluster gets=%d scan_next=%d bytes=%d",
					verb, sql, kv.Gets, kv.ScanNexts, kv.BytesRead, delta.Gets, delta.ScanNexts, delta.BytesRead)
			}
			if c.trace.SnapshotSeqs == nil {
				t.Fatalf("%s %q: no snapshot sequences on the trace", verb, sql)
			}
		}
	}
}
