package zidian

import (
	"strings"
	"testing"
)

// TestRangeLimitPushdown: `... BETWEEN ? AND ? LIMIT k` stops the range
// read after O(k) posting gets instead of fetching the whole range —
// asserted through the store's get and scan-next metrics, not just the plan
// text — and the k rows are the same on every engine and under
// parameterized bounds.
func TestRangeLimitPushdown(t *testing.T) {
	const q = "select I.item_id, I.qty from ITEM I where I.sku between 'SKU-00050' and 'SKU-00149' limit 8"
	const full = "select I.item_id, I.qty from ITEM I where I.sku between 'SKU-00050' and 'SKU-00149'"
	var reference string
	for _, eng := range gridEngines {
		db, bv := rangeItemsDB(t)
		inst, err := Open(db, bv, Options{Engine: eng, Nodes: 4, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Exec("create index ix_item_sku on ITEM(sku)"); err != nil {
			t.Fatal(err)
		}
		plan, err := inst.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "index-range") || !strings.Contains(plan, "limit 8") {
			t.Fatalf("%s: LIMIT not pushed into the range walk: %s", eng, plan)
		}

		// The unbounded window spans 100 posting lists of 4 postings, one
		// fragment each; the bound read needs ~2 of them. Every row costs
		// the get of its block besides.
		before := inst.Store().Cluster.Metrics()
		res, _, err := inst.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		delta := inst.Store().Cluster.Metrics().Sub(before)
		if len(res.Rows) != 8 {
			t.Fatalf("%s: rows = %d, want 8", eng, len(res.Rows))
		}
		if postingGets := delta.Gets - 8; delta.ScanNexts != 0 || postingGets > 16 {
			t.Fatalf("%s: bound read took %d posting gets and %d scan steps, want O(limit) <= 16 and none", eng, postingGets, delta.ScanNexts)
		}
		before = inst.Store().Cluster.Metrics()
		fullRes, _, err := inst.Query(full)
		if err != nil {
			t.Fatal(err)
		}
		fullDelta := inst.Store().Cluster.Metrics().Sub(before)
		if len(fullRes.Rows) != 400 || fullDelta.Gets-400 < 100 {
			t.Fatalf("%s: control read fetched %d posting fragments for %d rows, expected the whole range",
				eng, fullDelta.Gets-400, len(fullRes.Rows))
		}

		// The limited answer is a subset of the range, deterministic across
		// engines, and identical under `?` bounds and `LIMIT ?`.
		fullSet := make(map[string]bool, len(fullRes.Rows))
		for _, row := range fullRes.Rows {
			fullSet[renderResult(&Result{Cols: res.Cols, Rows: []Tuple{row}})] = true
		}
		for _, row := range res.Rows {
			if !fullSet[renderResult(&Result{Cols: res.Cols, Rows: []Tuple{row}})] {
				t.Fatalf("%s: limited row %v not in the range answer", eng, row)
			}
		}
		got := renderResult(res)
		if reference == "" {
			reference = got
		} else if got != reference {
			t.Fatalf("%s: limited answer diverges across engines:\n%s\nvs\n%s", eng, got, reference)
		}
		tmpl, params := paramize(t, q)
		p, err := inst.Prepare(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		parRes, _, err := p.Run(params...)
		if err != nil {
			t.Fatal(err)
		}
		if renderResult(parRes) != reference {
			t.Fatalf("%s: parameterized limited answer diverges", eng)
		}
	}
}

// TestRangeLimitNotPushedWhenUnsound: plan shapes where a walked posting
// may not reach the output keep the limit at the result stage.
func TestRangeLimitNotPushedWhenUnsound(t *testing.T) {
	db, bv := rangeItemsDB(t)
	inst, err := Open(db, bv, Options{Nodes: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range rangeSuiteDDL {
		if _, err := inst.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	unsound := []string{
		// ORDER BY reorders before the limit applies.
		"select I.item_id from ITEM I where I.sku between 'SKU-00050' and 'SKU-00149' order by I.item_id limit 8",
		// An extra predicate can drop walked postings.
		"select I.item_id from ITEM I where I.sku between 'SKU-00050' and 'SKU-00149' and I.qty > 25 limit 8",
		// DISTINCT collapses rows.
		"select distinct I.qty from ITEM I where I.sku between 'SKU-00050' and 'SKU-00149' limit 8",
		// Aggregation reshapes the row set entirely.
		"select COUNT(*) from ITEM I where I.sku between 'SKU-00050' and 'SKU-00149' limit 8",
	}
	for _, q := range unsound {
		plan, err := inst.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "limit") {
			t.Fatalf("limit pushed into an unsound shape %q: %s", q, plan)
		}
	}
}

// TestOneSidedRangeCostUsesValueBounds: with per-index min/max maintained,
// a highly selective one-sided literal range flips from the shape-only scan
// (1/3 of the entries assumed matched) to the index-range walk, while an
// unselective one keeps the scan and a `?` bound stays shape-only (the
// template discipline: a slot must plan identically for every literal).
func TestOneSidedRangeCostUsesValueBounds(t *testing.T) {
	db, bv := rangeItemsDB(t) // qty spans 0..49, fan 16, 800 pk-keyed blocks
	inst, err := Open(db, bv, Options{Nodes: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	scanRes, _, err := inst.Query("select I.item_id from ITEM I where I.qty >= 48")
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range rangeSuiteDDL {
		if _, err := inst.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := inst.Explain("select I.item_id from ITEM I where I.qty >= 48")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index-range") {
		t.Fatalf("selective one-sided literal range still scans: %s", plan)
	}
	res, _, err := inst.Query("select I.item_id from ITEM I where I.qty >= 48")
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(res) != renderResult(scanRes) {
		t.Fatal("index-served one-sided range diverges from the scan answer")
	}

	plan, err = inst.Explain("select I.item_id from ITEM I where I.qty >= 5")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "index-range") {
		t.Fatalf("unselective one-sided range took the walk against the cost model: %s", plan)
	}

	p, err := inst.Prepare("select I.item_id from ITEM I where I.qty >= ?")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p.Plan(), "IndexRange") {
		t.Fatalf("`?` bound planned value-dependently: %s", p.Plan())
	}
	parRes, _, err := p.Run(Int(48))
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(parRes) != renderResult(scanRes) {
		t.Fatal("parameterized one-sided range diverges")
	}
}
