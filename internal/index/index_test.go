package index_test

import (
	"fmt"
	"reflect"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/relation"
)

func itemSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema("ITEM", []relation.Attr{
		{Name: "id", Kind: relation.KindInt},
		{Name: "sku", Kind: relation.KindString},
		{Name: "qty", Kind: relation.KindInt},
	}, []string{"id"})
}

func itemTuples(n int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.Tuple{
			relation.Int(int64(i)),
			relation.String(fmt.Sprintf("S%02d", i%10)),
			relation.Int(int64(i % 5)),
		}
	}
	return out
}

// itemStore maps an empty ITEM relation onto a store of one pk-keyed KV
// schema: the tests hand each index its tuples, and a commit edits blocks
// and postings alike.
func itemStore(t testing.TB, kind kv.EngineKind, nodes int) *baav.Store {
	t.Helper()
	db := relation.NewDatabase()
	db.Add(relation.NewRelation(itemSchema(t)))
	schema := baav.MustSchema(baav.RelSchemas(db), baav.KVSchema{Name: "item_full", Rel: "ITEM", Key: []string{"id"}, Val: []string{"sku", "qty"}})
	st, err := baav.Map(db, schema, kv.NewCluster(kind, nodes), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// commit runs one commit on ITEM the way the group committer does: stage,
// apply the batch, install, reclaim.
func commit(st *baav.Store, stage func(c *baav.Commit) error) error {
	c, err := st.BeginCommit("ITEM")
	if err != nil {
		return err
	}
	defer c.Close()
	if err := stage(c); err != nil {
		return err
	}
	st.Cluster.ApplyBatch(nil, c.Ops())
	c.Install()
	c.Reclaim(nil)
	return nil
}

// insertTuple and deleteTuple commit one tuple each.
func insertTuple(st *baav.Store, t relation.Tuple) error {
	return commit(st, func(c *baav.Commit) error { return c.StageInsert(nil, t) })
}

func deleteTuple(st *baav.Store, t relation.Tuple) error {
	return commit(st, func(c *baav.Commit) error {
		_, err := c.StageDelete(nil, t)
		return err
	})
}

func stats(t *testing.T, st *baav.Store, name string) baav.IndexStats {
	t.Helper()
	s, ok := st.Indexes().Stats(name)
	if !ok {
		t.Fatalf("no index %q", name)
	}
	return s
}

func lookupIDs(t *testing.T, st *baav.Store, name string, v relation.Value) []int64 {
	t.Helper()
	keys, gets, err := st.Index.Lookup(name, v)
	if err != nil {
		t.Fatal(err)
	}
	if gets != 1 {
		t.Fatalf("lookup issued %d gets, want 1", gets)
	}
	out := make([]int64, len(keys))
	for i, k := range keys {
		out[i] = k[0].Int
	}
	return out
}

func TestCreateBackfillLookup(t *testing.T) {
	st := itemStore(t, kv.EngineHash, 3)
	n, err := st.CreateIndex("ix_sku", "ITEM", "sku", itemTuples(40))
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("backfilled %d, want 40", n)
	}
	ids := lookupIDs(t, st, "ix_sku", relation.String("S03"))
	if len(ids) != 4 {
		t.Fatalf("posting for S03 = %v, want 4 ids", ids)
	}
	for i, id := range ids {
		if id%10 != 3 {
			t.Fatalf("posting %d = %d, not a S03 item", i, id)
		}
		if i > 0 && ids[i-1] >= id {
			t.Fatalf("posting not sorted: %v", ids)
		}
	}
	if ids := lookupIDs(t, st, "ix_sku", relation.String("NOPE")); len(ids) != 0 {
		t.Fatalf("posting for absent value = %v", ids)
	}
	name, key, ok := st.Indexes().IndexOn("ITEM", "sku")
	if !ok || name != "ix_sku" || len(key) != 1 || key[0] != "id" {
		t.Fatalf("IndexOn = %q %v %v", name, key, ok)
	}
	if _, _, ok := st.Indexes().IndexOn("ITEM", "qty"); ok {
		t.Fatal("IndexOn reported an index that does not exist")
	}
	if s := stats(t, st, "ix_sku"); s.Entries != 10 || s.Postings != 40 || s.MaxPosting != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if st.Indexes().AvgPostings("ix_sku") != 4 {
		t.Fatalf("avg postings = %d", st.Indexes().AvgPostings("ix_sku"))
	}
}

func TestMaintenance(t *testing.T) {
	st := itemStore(t, kv.EngineHash, 2)
	if _, err := st.CreateIndex("ix_sku", "ITEM", "sku", itemTuples(20)); err != nil {
		t.Fatal(err)
	}
	add := relation.Tuple{relation.Int(100), relation.String("S03"), relation.Int(1)}
	if err := insertTuple(st, add); err != nil {
		t.Fatal(err)
	}
	if ids := lookupIDs(t, st, "ix_sku", relation.String("S03")); len(ids) != 3 || ids[2] != 100 {
		t.Fatalf("after insert: %v", ids)
	}
	// Duplicate insert of the same block key is a no-op.
	if err := insertTuple(st, add); err != nil {
		t.Fatal(err)
	}
	if ids := lookupIDs(t, st, "ix_sku", relation.String("S03")); len(ids) != 3 {
		t.Fatalf("after duplicate insert: %v", ids)
	}
	if err := deleteTuple(st, add); err != nil {
		t.Fatal(err)
	}
	if ids := lookupIDs(t, st, "ix_sku", relation.String("S03")); len(ids) != 2 {
		t.Fatalf("after delete: %v", ids)
	}
	// Deleting the last posting of a value removes the pair entirely.
	for _, id := range []int64{4, 14} {
		if err := deleteTuple(st, relation.Tuple{relation.Int(id), relation.String("S04"), relation.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if ids := lookupIDs(t, st, "ix_sku", relation.String("S04")); len(ids) != 0 {
		t.Fatalf("after draining S04: %v", ids)
	}
	s := stats(t, st, "ix_sku")
	if s.Entries != 9 {
		t.Fatalf("entries after drain = %d, want 9", s.Entries)
	}
	// A tuple too short to carry the indexed attribute fails at staging,
	// before anything is written.
	if err := insertTuple(st, relation.Tuple{relation.Int(7)}); err == nil {
		t.Fatal("short tuple staged without an arity error")
	}
	if after := stats(t, st, "ix_sku"); after.Postings != s.Postings {
		t.Fatalf("failed staging changed postings: %d -> %d", s.Postings, after.Postings)
	}
}

func TestDropRemovesPairs(t *testing.T) {
	st := itemStore(t, kv.EngineHash, 2)
	c := st.Cluster
	base := c.Len()
	if _, err := st.CreateIndex("ix_sku", "ITEM", "sku", itemTuples(30)); err != nil {
		t.Fatal(err)
	}
	if c.Len() <= base {
		t.Fatal("create wrote no pairs")
	}
	// Versions a commit retires, and a drained fragment's tombstone, go
	// with the index too.
	if err := insertTuple(st, relation.Tuple{relation.Int(100), relation.String("S01"), relation.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if rel, err := st.DropIndex("ix_sku"); err != nil || rel != "ITEM" {
		t.Fatalf("drop: %q, %v", rel, err)
	}
	if got := c.Len(); got != base+1 {
		t.Fatalf("pairs after drop = %d, want %d: the base pairs and the inserted block", got, base+1)
	}
	if _, _, ok := st.Indexes().IndexOn("ITEM", "sku"); ok {
		t.Fatal("dropped index still in catalog")
	}
	if _, err := st.DropIndex("ix_sku"); err == nil {
		t.Fatal("double drop succeeded")
	}
	// The attribute is indexable again, and the name.
	if _, err := st.CreateIndex("ix_sku", "ITEM", "sku", itemTuples(10)); err != nil {
		t.Fatal(err)
	}
	if ids := lookupIDs(t, st, "ix_sku", relation.String("S01")); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("recreated posting = %v", ids)
	}
}

func TestCreateValidation(t *testing.T) {
	db := relation.NewDatabase()
	db.Add(relation.NewRelation(itemSchema(t)))
	db.Add(relation.NewRelation(relation.MustSchema("NOKEY", []relation.Attr{{Name: "a", Kind: relation.KindInt}}, nil)))
	schema := baav.MustSchema(baav.RelSchemas(db), baav.KVSchema{Name: "item_full", Rel: "ITEM", Key: []string{"id"}, Val: []string{"sku", "qty"}})
	st, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 1), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateIndex("ix", "ITEM", "nope", nil); err == nil {
		t.Fatal("indexing an unknown attribute succeeded")
	}
	if _, err := st.CreateIndex("ix", "ITEM", "sku", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateIndex("ix", "ITEM", "qty", nil); err == nil {
		t.Fatal("duplicate index name succeeded")
	}
	if _, err := st.CreateIndex("ix2", "ITEM", "sku", nil); err == nil {
		t.Fatal("double-indexing one attribute succeeded")
	}
	if _, err := st.CreateIndex("ix3", "NOKEY", "a", nil); err == nil {
		t.Fatal("indexing a keyless relation succeeded")
	}
	if _, err := st.CreateIndex("ix4", "NOPE", "a", nil); err == nil {
		t.Fatal("indexing an unknown relation succeeded")
	}
}

// rangeIDs runs a Range over ix_sku-style indexes and flattens the posted
// ids, checking vals/keys stay parallel.
func rangeIDs(t *testing.T, st *baav.Store, name string, lo, hi *relation.Value, loIncl, hiIncl bool) []int64 {
	t.Helper()
	vals, keys, _, err := st.Index.Range(name, lo, hi, loIncl, hiIncl)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(keys) {
		t.Fatalf("Range returned %d vals, %d keys", len(vals), len(keys))
	}
	out := make([]int64, len(keys))
	for i, k := range keys {
		out[i] = k[0].Int
	}
	return out
}

// TestRangeOrderedWalk checks the ordered posting walk on every engine
// kind: bounds, inclusivity, unbounded sides, empty windows, and the
// deterministic (value, key) output order.
func TestRangeOrderedWalk(t *testing.T) {
	for _, kind := range []kv.EngineKind{kv.EngineHash, kv.EngineLSM, kv.EngineSorted} {
		t.Run(kind.String(), func(t *testing.T) {
			st := itemStore(t, kind, 3)
			c := st.Cluster
			if _, err := st.CreateIndex("ix_sku", "ITEM", "sku", itemTuples(40)); err != nil {
				t.Fatal(err)
			}
			lo, hi := relation.String("S03"), relation.String("S05")

			// Closed range: S03, S04, S05 → 12 ids, each id%10 in [3,5].
			ids := rangeIDs(t, st, "ix_sku", &lo, &hi, true, true)
			if len(ids) != 12 {
				t.Fatalf("closed range ids = %v", ids)
			}
			for _, id := range ids {
				if id%10 < 3 || id%10 > 5 {
					t.Fatalf("id %d outside [S03, S05]", id)
				}
			}

			// Scan cost is the number of matched posting lists, not the
			// whole posting space.
			c.ResetMetrics()
			_, _, scanned, err := st.Index.Range("ix_sku", &lo, &hi, true, true)
			if err != nil {
				t.Fatal(err)
			}
			if scanned != 3 {
				t.Fatalf("scanned %d posting lists, want 3", scanned)
			}
			if got := c.Metrics().ScanNexts; got != 3 {
				t.Fatalf("cluster scan steps = %d, want 3 (bounded walk)", got)
			}

			// Open ends exclude their boundary value.
			if ids := rangeIDs(t, st, "ix_sku", &lo, &hi, false, true); len(ids) != 8 {
				t.Fatalf("(S03, S05] ids = %v", ids)
			}
			if ids := rangeIDs(t, st, "ix_sku", &lo, &hi, true, false); len(ids) != 8 {
				t.Fatalf("[S03, S05) ids = %v", ids)
			}
			if ids := rangeIDs(t, st, "ix_sku", &lo, &hi, false, false); len(ids) != 4 {
				t.Fatalf("(S03, S05) ids = %v", ids)
			}

			// Unbounded sides.
			if ids := rangeIDs(t, st, "ix_sku", &lo, nil, true, true); len(ids) != 28 {
				t.Fatalf("[S03, +inf) ids = %v", ids)
			}
			if ids := rangeIDs(t, st, "ix_sku", nil, &hi, true, true); len(ids) != 24 {
				t.Fatalf("(-inf, S05] ids = %v", ids)
			}
			if ids := rangeIDs(t, st, "ix_sku", nil, nil, true, true); len(ids) != 40 {
				t.Fatalf("full range ids = %v", ids)
			}

			// Empty windows: inverted bounds and a gap between values.
			if ids := rangeIDs(t, st, "ix_sku", &hi, &lo, true, true); len(ids) != 0 {
				t.Fatalf("inverted range ids = %v", ids)
			}
			gapLo, gapHi := relation.String("S03a"), relation.String("S03z")
			if ids := rangeIDs(t, st, "ix_sku", &gapLo, &gapHi, true, true); len(ids) != 0 {
				t.Fatalf("gap range ids = %v", ids)
			}

			// Output is merged into encoded (value, key) order regardless of
			// sharding.
			vals, keys, _, err := st.Index.Range("ix_sku", &lo, &hi, true, true)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(vals); i++ {
				if relation.Compare(vals[i-1], vals[i]) > 0 {
					t.Fatalf("values out of order at %d: %v", i, vals)
				}
				if relation.Compare(vals[i-1], vals[i]) == 0 && keys[i-1][0].Int >= keys[i][0].Int {
					t.Fatalf("keys out of order within value at %d", i)
				}
			}

			if _, _, _, err := st.Index.Range("nope", &lo, &hi, true, true); err == nil {
				t.Fatal("Range on unknown index succeeded")
			}
		})
	}
}

// TestRangeSeesMaintenance: postings added and removed by incremental
// maintenance are visible to the ordered walk (including, on the sorted
// engine, writes still sitting in the unmerged buffer).
func TestRangeSeesMaintenance(t *testing.T) {
	st := itemStore(t, kv.EngineSorted, 2)
	if _, err := st.CreateIndex("ix_sku", "ITEM", "sku", itemTuples(20)); err != nil {
		t.Fatal(err)
	}
	if err := insertTuple(st, relation.Tuple{relation.Int(200), relation.String("S03x"), relation.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if err := deleteTuple(st, relation.Tuple{relation.Int(4), relation.String("S04"), relation.Int(4)}); err != nil {
		t.Fatal(err)
	}
	lo, hi := relation.String("S03"), relation.String("S04")
	ids := rangeIDs(t, st, "ix_sku", &lo, &hi, true, true)
	// S03: {3, 13}, S03x: {200}, S04: {14} (4 deleted).
	want := map[int64]bool{3: true, 13: true, 200: true, 14: true}
	if len(ids) != len(want) {
		t.Fatalf("ids after maintenance = %v", ids)
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected id %d in %v", id, ids)
		}
	}
}

// TestMaxPostingDecay: the delete path must shrink MaxPosting once the
// longest list shrinks, so the planner's boundedness check recovers after a
// heavy-delete workload (pre-fix, MaxPosting only ever grew).
func TestMaxPostingDecay(t *testing.T) {
	st := itemStore(t, kv.EngineHash, 2)
	// One hot value with 30 postings, nine values with 1 each.
	var tuples []relation.Tuple
	for i := 0; i < 30; i++ {
		tuples = append(tuples, relation.Tuple{relation.Int(int64(i)), relation.String("HOT"), relation.Int(0)})
	}
	for i := 0; i < 9; i++ {
		tuples = append(tuples, relation.Tuple{relation.Int(int64(100 + i)), relation.String(fmt.Sprintf("C%d", i)), relation.Int(0)})
	}
	if _, err := st.CreateIndex("ix_sku", "ITEM", "sku", tuples); err != nil {
		t.Fatal(err)
	}
	if got := st.Index.MaxPostings("ix_sku"); got != 30 {
		t.Fatalf("MaxPostings = %d, want 30", got)
	}
	// Drain the hot value down to 2 postings.
	for i := 0; i < 28; i++ {
		if err := deleteTuple(st, relation.Tuple{relation.Int(int64(i)), relation.String("HOT"), relation.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Index.MaxPostings("ix_sku"); got != 2 {
		t.Fatalf("MaxPostings after drain = %d, want 2 (stale ceiling not recomputed)", got)
	}
	if s := stats(t, st, "ix_sku"); s.Entries != 10 || s.Postings != 11 {
		t.Fatalf("stats after drain = %+v", s)
	}
	// Growth after decay re-raises it.
	for i := 0; i < 3; i++ {
		if err := insertTuple(st, relation.Tuple{relation.Int(int64(300 + i)), relation.String("C0"), relation.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Index.MaxPostings("ix_sku"); got != 4 {
		t.Fatalf("MaxPostings after regrowth = %d, want 4", got)
	}
	// Deleting a non-longest list must not trigger a recompute visible as a
	// wrong maximum.
	if err := deleteTuple(st, relation.Tuple{relation.Int(101), relation.String("C1"), relation.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if got := st.Index.MaxPostings("ix_sku"); got != 4 {
		t.Fatalf("MaxPostings after unrelated delete = %d, want 4", got)
	}
}

// TestReadFormsAgree holds the one-implementation posting reads across
// engines and node counts: Lookup answers what LookupManyT answers at the
// same index of a batch — present and missing postings alike — for the same
// gets; Range is RangeLimitT unbounded; a limited walk is a prefix of it
// whose scan cost one node's stream bounds exactly as four nodes' do; and
// every form's traced kv totals equal the cluster metrics delta, with one
// posting read per decoded list.
func TestReadFormsAgree(t *testing.T) {
	for _, kind := range []kv.EngineKind{kv.EngineHash, kv.EngineLSM, kv.EngineSorted} {
		for _, nodes := range []int{1, 4} {
			st := itemStore(t, kind, nodes)
			c := st.Cluster
			// 200 tuples → 10 sku values × 20 postings each.
			if _, err := st.CreateIndex("ix_sku", "ITEM", "sku", itemTuples(200)); err != nil {
				t.Fatal(err)
			}
			// traced runs a read form and checks its trace against the
			// cluster-wide metrics delta.
			traced := func(form string, run func(tr *obs.Trace)) obs.KVSnapshot {
				t.Helper()
				tr := &obs.Trace{}
				before := c.Metrics()
				run(tr)
				d, got := c.Metrics().Sub(before), tr.KV.Snapshot()
				if got.Gets != d.Gets || got.ScanNexts != d.ScanNexts || got.BytesRead != d.BytesRead || d.Gets+d.ScanNexts == 0 {
					t.Fatalf("%v/%d nodes %s: trace %+v vs metrics delta %+v", kind, nodes, form, got, d)
				}
				if tr.PostingReads() == 0 {
					t.Fatalf("%v/%d nodes %s: no posting reads traced", kind, nodes, form)
				}
				return got
			}

			vs := []relation.Value{relation.String("S03"), relation.String("nope"), relation.String("S07")}
			var outs [][]relation.Tuple
			var gets int
			var err error
			if got := traced("LookupManyT", func(tr *obs.Trace) {
				outs, gets, err = st.Index.LookupManyT(tr, "ix_sku", vs)
				if tr.PostingReads() != 2 {
					t.Fatalf("%v/%d nodes LookupManyT: %d posting reads, want 2", kind, nodes, tr.PostingReads())
				}
			}); err != nil || got.Gets != int64(gets) || gets != len(vs) {
				t.Fatalf("%v/%d nodes LookupManyT: traced %d gets, reported %d, err %v", kind, nodes, got.Gets, gets, err)
			}
			for i, v := range vs {
				before := c.Metrics()
				keys, g, err := st.Index.Lookup("ix_sku", v)
				if err != nil {
					t.Fatal(err)
				}
				if d := c.Metrics().Sub(before); g != 1 || d.Gets != 1 {
					t.Fatalf("%v/%d nodes Lookup(%s): %d gets (metrics %d), want 1", kind, nodes, v, g, d.Gets)
				}
				if !reflect.DeepEqual(keys, outs[i]) || (len(keys) == 0) != (i == 1) {
					t.Fatalf("%v/%d nodes Lookup(%s) = %v, batch answered %v", kind, nodes, v, keys, outs[i])
				}
			}

			lo, hi := relation.String("S02"), relation.String("S08")
			fullVals, fullKeys, fullScanned, err := st.Index.Range("ix_sku", &lo, &hi, true, false)
			if err != nil || len(fullKeys) != 120 || fullScanned != 6 {
				t.Fatalf("%v/%d nodes Range: %d keys over %d lists, err %v", kind, nodes, len(fullKeys), fullScanned, err)
			}
			for _, limit := range []int{-1, 1, 20, 21, 119} {
				var vals []relation.Value
				var keys []relation.Tuple
				var scanned int
				got := traced(fmt.Sprint("RangeLimitT/", limit), func(tr *obs.Trace) {
					vals, keys, scanned, err = st.Index.RangeLimitT(tr, "ix_sku", &lo, &hi, true, false, limit)
					if err != nil || tr.PostingReads() != int64(scanned) {
						t.Fatalf("%v/%d nodes limit %d: %d posting reads, %d scanned, err %v", kind, nodes, limit, tr.PostingReads(), scanned, err)
					}
				})
				want := limit
				if limit < 0 {
					want = len(fullKeys)
				}
				if !reflect.DeepEqual(keys, fullKeys[:want]) || !reflect.DeepEqual(vals, fullVals[:want]) {
					t.Fatalf("%v/%d nodes limit %d: not the first %d postings of the unbounded walk", kind, nodes, limit, want)
				}
				// A node stops after the list that carries it to limit
				// entries: the scan is bounded per node, cancellation timing
				// aside. The excluded hi fence key costs each walk one step.
				perNode := int64(fullScanned + 1)
				if limit > 0 {
					perNode = int64((limit + 19) / 20)
				}
				if got.ScanNexts > int64(nodes)*perNode || int64(scanned) > got.ScanNexts {
					t.Fatalf("%v/%d nodes limit %d: %d scan steps for %d lists merged, bound %d per node",
						kind, nodes, limit, got.ScanNexts, scanned, perNode)
				}
				if nodes == 1 && limit > 0 && got.ScanNexts != perNode {
					t.Fatalf("%v/1 node limit %d: %d scan steps, want exactly %d", kind, limit, got.ScanNexts, perNode)
				}
			}
		}
	}
}

// TestRangeLimitWalksListsLazily: under a limit a posting list is walked
// only as far as the limit reaches — at the merge and at the producer-side
// cut — so what a LIMIT k walk allocates does not grow with the length of
// the lists it stops in. The answer and the lists visited are those of the
// unlimited walk's first k.
func TestRangeLimitWalksListsLazily(t *testing.T) {
	const limit = 5
	lo, hi := relation.String("S00"), relation.String("S09")
	var allocs [2]float64
	for i, n := range []int{400, 40000} { // 40 and 4 000 postings per list
		st := itemStore(t, kv.EngineSorted, 3)
		if _, err := st.CreateIndex("ix_sku", "ITEM", "sku", itemTuples(n)); err != nil {
			t.Fatal(err)
		}
		_, want, _, err := st.Index.RangeLimitT(nil, "ix_sku", &lo, &hi, true, true, -1)
		if err != nil {
			t.Fatal(err)
		}
		_, got, scanned, err := st.Index.RangeLimitT(nil, "ix_sku", &lo, &hi, true, true, limit)
		if err != nil {
			t.Fatal(err)
		}
		if scanned != 1 || !reflect.DeepEqual(got, want[:limit]) {
			t.Fatalf("%d tuples: limit %d visited %d lists and returned %v, want 1 list and %v", n, limit, scanned, got, want[:limit])
		}
		allocs[i] = testing.AllocsPerRun(20, func() {
			if _, _, _, err := st.Index.RangeLimitT(nil, "ix_sku", &lo, &hi, true, true, limit); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[1] > allocs[0]+10 {
		t.Fatalf("LIMIT %d walk: %.0f allocations over 40-posting lists, %.0f over 4 000-posting lists", limit, allocs[0], allocs[1])
	}
}
