package baav_test

import (
	"testing"

	"zidian/internal/kv"
	"zidian/internal/relation"
)

// TestValueBoundsMaintenance: the per-index min/max the planner's range
// costing consults widens on insert and decays on delete — draining every
// posting of the extreme value must retighten the bound, exactly like
// MaxPosting's histogram decay.
func TestValueBoundsMaintenance(t *testing.T) {
	st := itemStore(t, kv.EngineHash, 3)
	tuples := itemTuples(40) // qty cycles 0..4
	if _, err := st.CreateIndex("ix_qty", "ITEM", "qty", tuples); err != nil {
		t.Fatal(err)
	}
	wantBounds := func(lo, hi int64) {
		t.Helper()
		gotLo, gotHi, ok := st.Indexes().ValueBounds("ix_qty")
		if !ok || gotLo.Int != lo || gotHi.Int != hi {
			t.Fatalf("ValueBounds = (%s, %s, %v), want (%d, %d)", gotLo, gotHi, ok, lo, hi)
		}
	}
	wantBounds(0, 4)

	// Widen both sides.
	if err := insertTuple(st, relation.Tuple{relation.Int(100), relation.String("S99"), relation.Int(-3)}); err != nil {
		t.Fatal(err)
	}
	if err := insertTuple(st, relation.Tuple{relation.Int(101), relation.String("S99"), relation.Int(9)}); err != nil {
		t.Fatal(err)
	}
	wantBounds(-3, 9)

	// Drain the extremes: the bounds must decay back.
	if err := deleteTuple(st, relation.Tuple{relation.Int(100), relation.String("S99"), relation.Int(-3)}); err != nil {
		t.Fatal(err)
	}
	if err := deleteTuple(st, relation.Tuple{relation.Int(101), relation.String("S99"), relation.Int(9)}); err != nil {
		t.Fatal(err)
	}
	wantBounds(0, 4)

	// Drain qty 4 entirely (tuples 4, 9, 14, ... carry it).
	for _, tp := range tuples {
		if tp[2].Int == 4 {
			if err := deleteTuple(st, tp); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantBounds(0, 3)

	if _, _, ok := st.Indexes().ValueBounds("nope"); ok {
		t.Fatal("unknown index reported bounds")
	}
}

// TestRangeLimitStreaming: a bound LIMIT stops the range read after O(limit)
// gets and no scan step, and the kept entries are exactly the prefix of the
// unbounded read's (value, key) order.
func TestRangeLimitStreaming(t *testing.T) {
	for _, kind := range []kv.EngineKind{kv.EngineHash, kv.EngineLSM, kv.EngineSorted} {
		st := itemStore(t, kind, 4)
		// 200 tuples → 10 sku values × 20 postings each.
		if _, err := st.CreateIndex("ix_sku", "ITEM", "sku", itemTuples(200)); err != nil {
			t.Fatal(err)
		}
		lo, hi := relation.String("S00"), relation.String("S09")
		fullVals, fullKeys, fullScanned, err := st.Index.Range("ix_sku", &lo, &hi, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(fullKeys) != 200 || fullScanned != 10 {
			t.Fatalf("full range: %d keys over %d lists", len(fullKeys), fullScanned)
		}
		const limit = 7
		before := st.Cluster.Metrics()
		vals, keys, scanned, err := st.Index.RangeLimitT(nil, "ix_sku", &lo, &hi, true, true, limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != limit {
			t.Fatalf("limited range returned %d keys, want %d", len(keys), limit)
		}
		// The first posting list (one fragment of 20 entries ≥ limit)
		// carries the limit: one list read, by one get.
		if d := st.Cluster.Metrics().Sub(before); scanned != 1 || d.Gets != 1 || d.ScanNexts != 0 {
			t.Fatalf("limited read: %d lists, %d gets, %d scan steps, want 1, 1 and 0", scanned, d.Gets, d.ScanNexts)
		}
		for i := range keys {
			if !relation.Equal(keys[i][0], fullKeys[i][0]) || !relation.Equal(vals[i], fullVals[i]) {
				t.Fatalf("limited entry %d = (%s, %s), want prefix of full walk (%s, %s)",
					i, vals[i], keys[i], fullVals[i], fullKeys[i])
			}
		}
		// Zero limit short-circuits; negative is unbounded.
		if _, zk, zs, err := st.Index.RangeLimitT(nil, "ix_sku", &lo, &hi, true, true, 0); err != nil || len(zk) != 0 || zs != 0 {
			t.Fatalf("zero limit: %d keys, %d scanned, %v", len(zk), zs, err)
		}
	}
}
