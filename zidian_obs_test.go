package zidian

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"zidian/internal/obs"
)

// obsSuite: query shapes covering every traced access path — point lookup,
// chain join, index lookup, ordered posting-range walk, aggregation.
var obsSuite = []string{
	"select I.sku, I.qty from ITEM I where I.item_id = 42",
	"select I.item_id from ITEM I where I.sku = 'SKU-00010'",
	"select I.item_id, I.qty from ITEM I where I.sku between 'SKU-00010' and 'SKU-00019'",
	"select COUNT(*), MAX(I.qty) from ITEM I where I.sku between 'SKU-00030' and 'SKU-00039'",
	"select I.item_id from ITEM I where I.qty >= 48",
}

// TestAnalyzeTraceMatchesClusterDelta is the acceptance invariant: for every
// traced statement the trace's kv counters equal the cluster-wide metrics
// delta, per op kind, on all three storage engines. Run under -race this
// also exercises concurrent trace recording through the parallel executor.
func TestAnalyzeTraceMatchesClusterDelta(t *testing.T) {
	for _, eng := range gridEngines {
		db, bv := rangeItemsDB(t)
		inst, err := Open(db, bv, Options{Engine: eng, Nodes: 4, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, ddl := range rangeSuiteDDL {
			if _, err := inst.Exec(ddl); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range obsSuite {
			p, err := inst.Prepare(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", eng, q, err)
			}
			before := inst.Store().Cluster.Metrics()
			_, _, tr, err := p.Analyze(nil)
			if err != nil {
				t.Fatalf("%s: %s: %v", eng, q, err)
			}
			delta := inst.Store().Cluster.Metrics().Sub(before)
			s := tr.KV.Snapshot()
			if s.Gets != delta.Gets || s.Puts != delta.Puts ||
				s.Deletes != delta.Deletes || s.ScanNexts != delta.ScanNexts {
				t.Fatalf("%s: %s:\ntrace   gets=%d puts=%d deletes=%d scan=%d\ncluster gets=%d puts=%d deletes=%d scan=%d",
					eng, q, s.Gets, s.Puts, s.Deletes, s.ScanNexts,
					delta.Gets, delta.Puts, delta.Deletes, delta.ScanNexts)
			}
			if s.BytesRead != delta.BytesRead || s.BytesWritten != delta.BytesWritten {
				t.Fatalf("%s: %s: trace bytes %d/%d, cluster %d/%d",
					eng, q, s.BytesRead, s.BytesWritten, delta.BytesRead, delta.BytesWritten)
			}
		}
	}
}

var kvOpsRe = regexp.MustCompile(`kv_ops=(\d+)`)

// TestExplainAnalyzeStatement: EXPLAIN ANALYZE through Exec returns one row
// per plan line — headline, annotated tree, totals — and the totals line's
// kv-op count matches the cluster delta for the statement.
func TestExplainAnalyzeStatement(t *testing.T) {
	for _, eng := range gridEngines {
		db, bv := rangeItemsDB(t)
		inst, err := Open(db, bv, Options{Engine: eng, Nodes: 4, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Exec("create index ix_item_sku on ITEM(sku)"); err != nil {
			t.Fatal(err)
		}
		before := inst.Store().Cluster.Metrics()
		r, err := inst.Exec("explain analyze select I.item_id from ITEM I where I.sku = 'SKU-00010'")
		if err != nil {
			t.Fatal(err)
		}
		delta := inst.Store().Cluster.Metrics().Sub(before)
		if len(r.Result.Cols) != 1 || r.Result.Cols[0] != "plan" {
			t.Fatalf("%s: cols = %v", eng, r.Result.Cols)
		}
		if len(r.Result.Rows) < 3 {
			t.Fatalf("%s: plan rows = %d, want headline + tree + totals", eng, len(r.Result.Rows))
		}
		headline := r.Result.Rows[0][0].Str
		if !strings.HasPrefix(headline, "[scan-free, bounded] ") || !strings.Contains(headline, "∝ ix_item_sku on") {
			t.Fatalf("%s: headline = %q", eng, headline)
		}
		var totals string
		for _, row := range r.Result.Rows {
			if strings.HasPrefix(row[0].Str, "totals:") {
				totals = row[0].Str
			}
		}
		if totals == "" {
			t.Fatalf("%s: no totals line in %v", eng, r.Result.Rows)
		}
		m := kvOpsRe.FindStringSubmatch(totals)
		if m == nil {
			t.Fatalf("%s: totals line has no kv_ops: %q", eng, totals)
		}
		kvOps, _ := strconv.ParseInt(m[1], 10, 64)
		wantOps := delta.Gets + delta.Puts + delta.Deletes + delta.ScanNexts
		if kvOps != wantOps {
			t.Fatalf("%s: totals kv_ops=%d, cluster delta=%d", eng, kvOps, wantOps)
		}
		// A rendered operator line carries runtime annotations.
		tree := r.Result.Rows[1][0].Str
		if !strings.Contains(tree, "rows=") || !strings.Contains(tree, "time=") {
			t.Fatalf("%s: tree line unannotated: %q", eng, tree)
		}
		// The ∝ line says how many of item_full's three values the plan
		// read — one, the sku its residual σ rechecks; item_id is the key —
		// and plain EXPLAIN says nothing of it.
		var extend string
		for _, row := range r.Result.Rows {
			if strings.Contains(row[0].Str, "Extend ∝ item_full ") {
				extend = row[0].Str
			}
		}
		if !strings.Contains(extend, " cols=1/3)") {
			t.Fatalf("%s: ∝ line does not report cols=1/3: %q", eng, extend)
		}
		plain, err := inst.Explain("select I.item_id from ITEM I where I.sku = 'SKU-00010'")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plain, "cols=") {
			t.Fatalf("%s: plain EXPLAIN changed: %s", eng, plain)
		}
	}
}

// TestTracedPointLookupScanFree: a block point lookup performs zero scan
// steps — the scan-freeness the paper's middleware exists to deliver,
// asserted through the per-statement trace instead of the plan text.
func TestTracedPointLookupScanFree(t *testing.T) {
	db, bv := rangeItemsDB(t)
	inst, err := Open(db, bv, Options{Nodes: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, err := inst.Prepare("select I.sku, I.qty from ITEM I where I.item_id = ?")
	if err != nil {
		t.Fatal(err)
	}
	tr := &obs.Trace{}
	res, stats, err := p.RunTraced(tr, Int(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !stats.ScanFree {
		t.Fatalf("rows=%d scanFree=%v", len(res.Rows), stats.ScanFree)
	}
	s := tr.KV.Snapshot()
	if s.ScanNexts != 0 {
		t.Fatalf("point lookup took %d scan steps, want 0", s.ScanNexts)
	}
	if s.Gets == 0 {
		t.Fatal("trace recorded no gets for a point lookup")
	}
}

// TestTracedLimitPushdownBounded: `range LIMIT k` stays O(k) in posting
// gets, with no scan step, asserted through the trace (the regression
// the LIMIT pushdown fixed, pinned via the observability layer).
func TestTracedLimitPushdownBounded(t *testing.T) {
	db, bv := rangeItemsDB(t)
	inst, err := Open(db, bv, Options{Nodes: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Exec("create index ix_item_sku on ITEM(sku)"); err != nil {
		t.Fatal(err)
	}
	p, err := inst.Prepare("select I.item_id, I.qty from ITEM I where I.sku between 'SKU-00050' and 'SKU-00149' limit 8")
	if err != nil {
		t.Fatal(err)
	}
	tr := &obs.Trace{}
	res, _, err := p.RunTraced(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(res.Rows))
	}
	// 8 gets fetch the rows' blocks; the rest fetch posting fragments.
	s := tr.KV.Snapshot()
	if postingGets := s.Gets - 8; s.ScanNexts != 0 || postingGets > 16 {
		t.Fatalf("bound read traced %d posting gets and %d scan steps, want O(limit) <= 16 and none", postingGets, s.ScanNexts)
	}
	// Control: the unbounded window reads the whole range.
	full, err := inst.Prepare("select I.item_id, I.qty from ITEM I where I.sku between 'SKU-00050' and 'SKU-00149'")
	if err != nil {
		t.Fatal(err)
	}
	ftr := &obs.Trace{}
	fres, _, err := full.RunTraced(ftr)
	if err != nil {
		t.Fatal(err)
	}
	if fgets := ftr.KV.Snapshot().Gets - 400; len(fres.Rows) != 400 || ftr.PostingReads() < 100 || fgets < 100 {
		t.Fatalf("control: rows=%d posting lists=%d posting gets=%d, expected the whole range", len(fres.Rows), ftr.PostingReads(), fgets)
	}
}
