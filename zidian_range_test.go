package zidian

import (
	"fmt"
	"strings"
	"testing"

	"zidian/internal/core"
	"zidian/internal/kba"
	"zidian/internal/parallel"
	"zidian/internal/ra"
)

// rangeItemsDB builds the ITEM fixture: 800 rows, 200 distinct skus (fan 4),
// 50 distinct qtys (fan 16), 200 distinct prices (fan 4), pk-keyed full
// schema.
func rangeItemsDB(t *testing.T) (*Database, *BaaVSchema) {
	t.Helper()
	db := NewDatabase()
	schema := MustRelSchema("ITEM", []Attr{
		{Name: "item_id", Kind: KindInt},
		{Name: "sku", Kind: KindString},
		{Name: "qty", Kind: KindInt},
		{Name: "price", Kind: KindFloat},
	}, []string{"item_id"})
	rel := NewRelation(schema)
	for i := 0; i < 800; i++ {
		rel.MustInsert(Tuple{
			Int(int64(i)),
			String(fmt.Sprintf("SKU-%05d", i/4)),
			Int(int64(i % 50)),
			Float(float64(100+i%200) / 10),
		})
	}
	db.Add(rel)
	bv, err := NewBaaVSchema(db, KVSchema{
		Name: "item_full", Rel: "ITEM", Key: []string{"item_id"},
		Val: []string{"sku", "qty", "price"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, bv
}

// rangeSuite: the dedicated range workload — two-sided closed/open/half-open
// bounds, one-sided comparisons, empty windows (inverted bounds and gaps),
// string and int attributes, and ranges composed with other predicates.
var rangeSuite = []string{
	"select I.item_id, I.qty from ITEM I where I.sku between 'SKU-00010' and 'SKU-00019'",
	"select I.item_id from ITEM I where I.sku >= 'SKU-00190' and I.sku < 'SKU-00195'",
	"select I.item_id from ITEM I where I.sku > 'SKU-00010' and I.sku <= 'SKU-00012'",
	"select I.item_id from ITEM I where I.sku > 'SKU-00010' and I.sku < 'SKU-00011'",
	"select I.item_id from ITEM I where I.sku between 'SKU-00150' and 'SKU-00050'",
	"select I.item_id from ITEM I where I.sku > 'SKU-00180'",
	"select I.item_id from ITEM I where I.sku <= 'SKU-00003'",
	"select I.item_id, I.price from ITEM I where I.qty between 10 and 12",
	"select I.item_id, I.qty from ITEM I where I.price between 10 and 20",
	"select I.item_id from ITEM I where I.qty >= 48",
	"select I.sku, I.qty from ITEM I where I.sku between 'SKU-00020' and 'SKU-00024' and I.qty > 25",
	"select COUNT(*), MIN(I.qty), MAX(I.qty) from ITEM I where I.sku between 'SKU-00030' and 'SKU-00039'",
	"select I.item_id from ITEM I where I.sku between 'SKU-00040' and 'SKU-00044' order by I.item_id limit 7",
}

var rangeSuiteDDL = []string{
	"create index ix_item_sku on ITEM(sku)",
	"create index ix_item_qty on ITEM(qty)",
	"create index ix_item_price on ITEM(price)",
}

// TestRangeBoundedWalk asserts the access-path change is real, not just
// plan text: Explain reports index-range, and the store's scan-next metrics
// confirm the walk visits the matched posting lists instead of the
// instance.
func TestRangeBoundedWalk(t *testing.T) {
	const q = "select I.item_id, I.qty from ITEM I where I.sku between 'SKU-00100' and 'SKU-00109'"
	for _, eng := range gridEngines {
		db, bv := rangeItemsDB(t)
		inst, err := Open(db, bv, Options{Engine: eng, Nodes: 4, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		before := inst.Store().Cluster.Metrics()
		if _, _, err := inst.Query(q); err != nil {
			t.Fatal(err)
		}
		scanDelta := inst.Store().Cluster.Metrics().Sub(before)
		if scanDelta.ScanNexts < 800 {
			t.Fatalf("%s: full scan visited %d pairs, expected >= 800", eng, scanDelta.ScanNexts)
		}

		if _, err := inst.Exec("create index ix_item_sku on ITEM(sku)"); err != nil {
			t.Fatal(err)
		}
		plan, err := inst.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "index-range") || !strings.Contains(plan, "IndexRange") {
			t.Fatalf("%s: Explain lacks index-range: %s", eng, plan)
		}
		before = inst.Store().Cluster.Metrics()
		res, _, err := inst.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		delta := inst.Store().Cluster.Metrics().Sub(before)
		if len(res.Rows) != 40 {
			t.Fatalf("%s: rows = %d, want 40", eng, len(res.Rows))
		}
		// 10 matched posting lists; everything else arrives via gets.
		if delta.ScanNexts > 20 {
			t.Fatalf("%s: bounded walk took %d scan steps, want ~10", eng, delta.ScanNexts)
		}
		if delta.Gets < 40 {
			t.Fatalf("%s: expected one get per matched block, got %d", eng, delta.Gets)
		}

		// The same plan at every worker count (one worker is sequential
		// execution) answers what the reference evaluator answers, and its
		// logical stats count the posting walk, not an instance scan.
		bound, err := ra.Parse(q, inst.db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ra.Evaluate(bound, inst.db)
		if err != nil {
			t.Fatal(err)
		}
		info, err := inst.checker.Plan(bound)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			got, m, err := parallel.RunKBA(info, inst.store, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: range answer at p=%d differs from the reference", eng, workers)
			}
			if m.ScanBlocks != 10 {
				t.Fatalf("%s: walk at p=%d visited %d posting lists, want 10", eng, workers, m.ScanBlocks)
			}
		}
	}
}

// TestIndexTrafficCounted: the executor's one counter set accounts index
// traffic — posting bytes of lookups and range walks, the posting lists a
// walk steps over, the blocks ∝ fetches — and core.Answer reports exactly
// what RunKBA at one worker reports. (Before the executors were unified the
// serving path dropped posting bytes, walk steps and block hits.)
func TestIndexTrafficCounted(t *testing.T) {
	db, bv := rangeItemsDB(t)
	inst, err := Open(db, bv, Options{Engine: "hash", Nodes: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Exec("create index ix_item_sku on ITEM(sku)"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql, node string
		walked    bool
	}{
		{"select I.item_id, I.qty from ITEM I where I.sku = 'SKU-00042'", "Extend ∝ ix_item_sku", false},
		{"select I.item_id, I.qty from ITEM I where I.sku between 'SKU-00050' and 'SKU-00059'", "IndexRange ix_item_sku", true},
	} {
		q, err := ra.Parse(c.sql, inst.db)
		if err != nil {
			t.Fatal(err)
		}
		info, err := inst.checker.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		_, seq, err := core.Answer(info, inst.store)
		if err != nil {
			t.Fatal(err)
		}
		_, m, err := parallel.RunKBA(info, inst.store, 1)
		if err != nil {
			t.Fatal(err)
		}
		if *seq != m.ExecStats {
			t.Fatalf("%q: Answer counts %+v, RunKBA at one worker %+v", c.sql, *seq, m.ExecStats)
		}
		if m.Gets == 0 || m.Blocks == 0 || m.DataValues == 0 {
			t.Fatalf("%q: fetched blocks not counted: %+v", c.sql, m.ExecStats)
		}
		if (m.ScanBlocks > 0) != c.walked {
			t.Fatalf("%q: walked posting lists = %d", c.sql, m.ScanBlocks)
		}
		// The postings alone: the plan's index read — the ∝ over the index
		// with its seed, or the range leaf — run by itself.
		var leaf kba.Plan
		var find func(p kba.Plan)
		find = func(p kba.Plan) {
			if strings.HasPrefix(kba.OpName(p)+" "+kba.NodeLabel(p), c.node) {
				leaf = p
			}
			for _, ch := range p.Children() {
				find(ch)
			}
		}
		find(info.Root)
		if leaf == nil {
			t.Fatalf("%q: plan %s has no %s", c.sql, info.Root, c.node)
		}
		_, postings, err := kba.Run(leaf, inst.store, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if postings.BytesRead == 0 || postings.BytesRead >= m.BytesRead {
			t.Fatalf("%q: posting bytes %d of %d total", c.sql, postings.BytesRead, m.BytesRead)
		}
	}
}

// TestFetchAllOverIndexes: the retrieve-then-join strawman answers an
// index plan as the interleaved executor does. A ∝ over the index stays a
// batch of gets; the ∝ over the instance is flattened.
func TestFetchAllOverIndexes(t *testing.T) {
	db, bv := rangeItemsDB(t)
	inst, err := Open(db, bv, Options{Engine: "hash", Nodes: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Exec("create index ix_item_sku on ITEM(sku)"); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"select I.item_id, I.qty from ITEM I where I.sku = 'SKU-00042'",
		"select I.item_id, I.qty from ITEM I where I.sku between 'SKU-00050' and 'SKU-00059'",
	} {
		info, err := inst.checker.Plan(ra.MustParse(src, inst.db))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := parallel.RunKBA(info, inst.store, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := parallel.RunKBAFetchAll(info, inst.store, 4)
		if err != nil || !got.Equal(want) {
			t.Fatalf("%s: fetch-all answered %v (err %v), interleaved %v", info.Root, got, err, want)
		}
	}
}

// TestRangeSpansBufferedSortedWrites: rows inserted after index creation
// sit in the sorted engine's unmerged write buffer; a range spanning them
// must see them on every engine, with identical answers.
func TestRangeSpansBufferedSortedWrites(t *testing.T) {
	const q = "select I.item_id, I.sku from ITEM I where I.sku between 'SKU-90000' and 'SKU-90009'"
	var reference string
	for _, eng := range gridEngines {
		db, bv := rangeItemsDB(t)
		inst, err := Open(db, bv, Options{Engine: eng, Nodes: 2, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Exec("create index ix_item_sku on ITEM(sku)"); err != nil {
			t.Fatal(err)
		}
		// Fresh band of skus, written through incremental maintenance after
		// the backfill — on the sorted engine these postings stay in the
		// write buffer (well under the fold threshold).
		for i := 0; i < 30; i++ {
			if err := inst.Insert("ITEM", Tuple{
				Int(int64(10000 + i)), String(fmt.Sprintf("SKU-%05d", 90000+i/3)),
				Int(int64(i)), Float(1.5),
			}); err != nil {
				t.Fatal(err)
			}
		}
		// And a deletion inside the band must be invisible to the walk.
		if err := inst.Delete("ITEM", Tuple{
			Int(10001), String("SKU-90000"), Int(1), Float(1.5),
		}); err != nil {
			t.Fatal(err)
		}
		res, stats, err := inst.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stats.Plan, "IndexRange") {
			t.Fatalf("%s: buffered-band query not index-served: %s", eng, stats.Plan)
		}
		if len(res.Rows) != 29 {
			t.Fatalf("%s: rows = %d, want 29 (30 inserts − 1 delete)", eng, len(res.Rows))
		}
		got := renderResult(res)
		if reference == "" {
			reference = got
		} else if got != reference {
			t.Fatalf("%s: buffered-band answer differs:\n%s\nvs\n%s", eng, got, reference)
		}
	}
}

// TestRangeKindMismatchLiterals: literal predicate values whose numeric
// kind differs from the indexed column's must still answer identically on
// the key-encoded access paths. Compare treats int/float numerically, but
// the key codec partitions by kind tag, so an unaligned fence or probe
// would silently miss every stored posting: ra.Bind coerces lossless
// literals to the column kind, and the planner rounds a non-integral float
// fence over an int column inward.
func TestRangeKindMismatchLiterals(t *testing.T) {
	cases := []struct {
		sql  string
		want int    // expected row count
		path string // substring the post-DDL plan must contain
	}{
		// Non-integral float bounds over the int qty column (fan 16 per
		// value): ints in [44.5, 47.5] are {45, 46, 47}.
		{"select I.item_id from ITEM I where I.qty between 44.5 and 47.5", 48, "IndexRange"},
		// Integral float bounds coerce losslessly.
		{"select I.item_id from ITEM I where I.qty between 45.0 and 47.0", 48, "IndexRange"},
		// Int bounds over the float price column: price = (100 + i%200)/10,
		// so [10, 12] matches i%200 ∈ {0..20}, 4 rows each.
		{"select I.item_id from ITEM I where I.price between 10 and 12", 84, "IndexRange"},
		// Equality with an integral float over an int column takes the
		// lookup path, a ∝ over the index, and must still find the postings.
		{"select I.item_id from ITEM I where I.qty = 44.0", 16, "∝ ix_item_qty on"},
		// Lossy float equality matches nothing — on every path.
		{"select I.item_id from ITEM I where I.qty = 44.5", 0, ""},
	}
	for _, eng := range gridEngines {
		db, bv := rangeItemsDB(t)
		inst, err := Open(db, bv, Options{Engine: eng, Nodes: 4, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		scans := make([]*Result, len(cases))
		for i, c := range cases {
			res, _, err := inst.Query(c.sql)
			if err != nil {
				t.Fatalf("%s scan %q: %v", eng, c.sql, err)
			}
			if len(res.Rows) != c.want {
				t.Fatalf("%s scan %q: rows = %d, want %d", eng, c.sql, len(res.Rows), c.want)
			}
			scans[i] = res
		}
		for _, ddl := range rangeSuiteDDL {
			if _, err := inst.Exec(ddl); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range cases {
			res, stats, err := inst.Query(c.sql)
			if err != nil {
				t.Fatalf("%s indexed %q: %v", eng, c.sql, err)
			}
			if c.path != "" && !strings.Contains(stats.Plan, c.path) {
				t.Fatalf("%s %q: expected %s path, got %s", eng, c.sql, c.path, stats.Plan)
			}
			if renderResult(res) != renderResult(scans[i]) {
				t.Fatalf("%s %q: indexed answer (%d rows) differs from scan (%d rows); plan %s",
					eng, c.sql, len(res.Rows), len(scans[i].Rows), stats.Plan)
			}
		}
	}
}

// TestFacadeIndexEligibilityAfterDeletes: the planner's boundedness check
// compares an index's longest posting list against the degree bound. A
// heavy-delete workload that shrinks the longest list must restore
// eligibility (pre-fix, Stats.MaxPosting never decreased, so the check
// stayed pessimistic forever).
func TestFacadeIndexEligibilityAfterDeletes(t *testing.T) {
	db := NewDatabase()
	schema := MustRelSchema("EV", []Attr{
		{Name: "id", Kind: KindInt},
		{Name: "tag", Kind: KindString},
	}, []string{"id"})
	rel := NewRelation(schema)
	// One hot tag with 30 rows, twenty cold tags with 2 rows each.
	for i := 0; i < 30; i++ {
		rel.MustInsert(Tuple{Int(int64(i)), String("HOT")})
	}
	for i := 0; i < 40; i++ {
		rel.MustInsert(Tuple{Int(int64(100 + i)), String(fmt.Sprintf("COLD-%02d", i/2))})
	}
	db.Add(rel)
	bv, err := NewBaaVSchema(db, KVSchema{Name: "ev_full", Rel: "EV", Key: []string{"id"}, Val: []string{"tag"}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Open(db, bv, Options{MaxBoundedDegree: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Exec("create index ix_ev_tag on EV(tag)"); err != nil {
		t.Fatal(err)
	}
	const q = "select E.id from EV E where E.tag = 'COLD-03'"
	_, stats, err := inst.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats.Plan, "∝ ix_ev_tag on") {
		t.Fatalf("expected an index plan: %s", stats.Plan)
	}
	if stats.Bounded {
		t.Fatalf("hot posting (30) above the degree bound (8) must make the plan unbounded")
	}
	// Heavy-delete workload: drain the hot tag.
	for i := 0; i < 28; i++ {
		if err := inst.Delete("EV", Tuple{Int(int64(i)), String("HOT")}); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := inst.IndexStats("ix_ev_tag")
	if !ok || st.MaxPosting != 2 {
		t.Fatalf("MaxPosting after drain = %d (ok=%v), want 2", st.MaxPosting, ok)
	}
	_, stats, err = inst.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Bounded {
		t.Fatalf("index did not regain eligibility after deletes: %+v", st)
	}
}
