package baav

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/relation"
)

// paperDB builds the paper's Example 1 database.
func paperDB() *relation.Database {
	db := relation.NewDatabase()
	nation := relation.NewRelation(relation.MustSchema("NATION",
		[]relation.Attr{{Name: "nationkey", Kind: relation.KindInt}, {Name: "name", Kind: relation.KindString}},
		[]string{"nationkey"}))
	nation.MustInsert(relation.Tuple{relation.Int(1), relation.String("GERMANY")})
	nation.MustInsert(relation.Tuple{relation.Int(2), relation.String("FRANCE")})
	db.Add(nation)

	supplier := relation.NewRelation(relation.MustSchema("SUPPLIER",
		[]relation.Attr{{Name: "suppkey", Kind: relation.KindInt}, {Name: "nationkey", Kind: relation.KindInt}},
		[]string{"suppkey"}))
	supplier.MustInsert(relation.Tuple{relation.Int(10), relation.Int(1)})
	supplier.MustInsert(relation.Tuple{relation.Int(11), relation.Int(1)})
	supplier.MustInsert(relation.Tuple{relation.Int(12), relation.Int(2)})
	db.Add(supplier)
	return db
}

// paperSchema is Example 1's BaaV schema restricted to the two relations.
func paperSchema(db *relation.Database) *Schema {
	return MustSchema(RelSchemas(db),
		KVSchema{Name: "SUPPLIER_by_nation", Rel: "SUPPLIER", Key: []string{"nationkey"}, Val: []string{"suppkey"}},
		KVSchema{Name: "NATION_by_name", Rel: "NATION", Key: []string{"name"}, Val: []string{"nationkey"}},
	)
}

func TestSchemaValidation(t *testing.T) {
	db := paperDB()
	rels := RelSchemas(db)
	bad := []KVSchema{
		{Name: "", Rel: "NATION", Key: []string{"name"}, Val: []string{"nationkey"}},
		{Name: "x", Rel: "NOPE", Key: []string{"name"}, Val: []string{"nationkey"}},
		{Name: "x", Rel: "NATION", Key: nil, Val: []string{"nationkey"}},
		{Name: "x", Rel: "NATION", Key: []string{"name"}, Val: nil},
		{Name: "x", Rel: "NATION", Key: []string{"bogus"}, Val: []string{"nationkey"}},
		{Name: "x", Rel: "NATION", Key: []string{"name"}, Val: []string{"name"}},
	}
	for i, kvs := range bad {
		if _, err := NewSchema(rels, kvs); err == nil {
			t.Fatalf("case %d: expected error for %v", i, kvs)
		}
	}
	if _, err := NewSchema(rels,
		KVSchema{Name: "a", Rel: "NATION", Key: []string{"name"}, Val: []string{"nationkey"}},
		KVSchema{Name: "a", Rel: "NATION", Key: []string{"nationkey"}, Val: []string{"name"}},
	); err == nil {
		t.Fatal("duplicate names must be rejected")
	}
	s := paperSchema(db)
	if s.ByName("NATION_by_name") == nil || s.ByName("zzz") != nil {
		t.Fatal("ByName")
	}
	if got := s.ForRelation("SUPPLIER"); len(got) != 1 {
		t.Fatalf("ForRelation = %v", got)
	}
	if got := s.Names(); len(got) != 2 || got[0] != "NATION_by_name" {
		t.Fatalf("Names = %v", got)
	}
}

func TestBlockAddRemoveCompression(t *testing.T) {
	b := &Block{}
	b.Add(relation.Tuple{relation.Int(1)}, true)
	b.Add(relation.Tuple{relation.Int(1)}, true)
	b.Add(relation.Tuple{relation.Int(2)}, true)
	if b.Distinct() != 2 || b.Rows() != 3 {
		t.Fatalf("distinct=%d rows=%d", b.Distinct(), b.Rows())
	}
	if !b.Remove(relation.Tuple{relation.Int(1)}) || b.Rows() != 2 {
		t.Fatalf("remove: rows=%d", b.Rows())
	}
	if !b.Remove(relation.Tuple{relation.Int(1)}) || b.Distinct() != 1 {
		t.Fatalf("remove to zero: distinct=%d", b.Distinct())
	}
	if b.Remove(relation.Tuple{relation.Int(9)}) {
		t.Fatal("removing a missing tuple must fail")
	}
	exp := b.Expand()
	if len(exp) != 1 || exp[0][0].Int != 2 {
		t.Fatalf("expand = %v", exp)
	}
}

func TestBlockUncompressed(t *testing.T) {
	b := &Block{}
	b.Add(relation.Tuple{relation.Int(1)}, false)
	b.Add(relation.Tuple{relation.Int(1)}, false)
	if b.Distinct() != 2 || b.Rows() != 2 {
		t.Fatalf("uncompressed keeps duplicates: distinct=%d", b.Distinct())
	}
}

func TestBlockCodecRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, withStats := range []bool{false, true} {
			b := &Block{}
			for i := 0; i < 10; i++ {
				b.Add(relation.Tuple{relation.Int(int64(i % 4)), relation.String(fmt.Sprint(i % 3))}, compress)
			}
			var stats *BlockStats
			if withStats {
				stats = b.ComputeStats(2)
			}
			enc := EncodeBlock(b, stats, 2)
			got, gotStats, err := DecodeBlock(enc, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows() != b.Rows() || got.Distinct() != b.Distinct() {
				t.Fatalf("compress=%v: rows %d->%d distinct %d->%d",
					compress, b.Rows(), got.Rows(), b.Distinct(), got.Distinct())
			}
			if withStats {
				if gotStats == nil || gotStats.Rows != b.Rows() {
					t.Fatalf("stats = %+v", gotStats)
				}
				if !gotStats.Attrs[0].Valid || gotStats.Attrs[1].Valid {
					t.Fatalf("stats validity = %+v", gotStats.Attrs)
				}
				// Fast path agrees.
				var fast BlockStats
				if ok, err := readStats(enc, 2, &fast); err != nil || !ok {
					t.Fatalf("fast stats: %v %v", ok, err)
				}
				if fast.Rows != gotStats.Rows || fast.Attrs[0].Sum != gotStats.Attrs[0].Sum {
					t.Fatalf("fast stats mismatch: %+v vs %+v", fast, gotStats)
				}
			} else if gotStats != nil {
				t.Fatal("unexpected stats")
			}
		}
	}
}

func TestComputeStatsValues(t *testing.T) {
	b := &Block{}
	b.Add(relation.Tuple{relation.Int(5), relation.Float(1.5)}, true)
	b.Add(relation.Tuple{relation.Int(5), relation.Float(1.5)}, true)
	b.Add(relation.Tuple{relation.Int(2), relation.Float(4.0)}, true)
	st := b.ComputeStats(2)
	if st.Rows != 3 {
		t.Fatalf("rows = %d", st.Rows)
	}
	a := st.Attrs[0]
	if a.Min != 2 || a.Max != 5 || a.Sum != 12 { // 5*2 + 2
		t.Fatalf("attr0 stats = %+v", a)
	}
	if st.Attrs[1].Sum != 1.5*2+4.0 {
		t.Fatalf("attr1 sum = %v", st.Attrs[1].Sum)
	}
}

func TestDecodeBlockCorrupt(t *testing.T) {
	if _, _, err := DecodeBlock(nil, 1); err == nil {
		t.Fatal("empty must fail")
	}
	if _, _, err := DecodeBlock([]byte{0, 5}, 1); err == nil {
		t.Fatal("truncated tuples must fail")
	}
	if _, err := readStats(nil, 1, &BlockStats{}); err == nil {
		t.Fatal("empty stats must fail")
	}
	if ok, err := readStats([]byte{0, 0}, 1, &BlockStats{}); err != nil || ok {
		t.Fatal("no-stats block yields no stats")
	}
}

func newTestStore(t *testing.T, opts Options) (*Store, *relation.Database) {
	t.Helper()
	db := paperDB()
	cluster := kv.NewCluster(kv.EngineHash, 3)
	st, err := Map(db, paperSchema(db), cluster, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, db
}

func TestMapAndGetBlock(t *testing.T) {
	st, _ := newTestStore(t, DefaultOptions())
	blk, stats, gets, err := st.GetBlock("SUPPLIER_by_nation", relation.Tuple{relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if gets != 1 {
		t.Fatalf("gets = %d", gets)
	}
	if blk == nil || blk.Distinct() != 2 {
		t.Fatalf("block = %+v", blk)
	}
	if stats == nil || stats.Rows != 2 || stats.Attrs[0].Min != 10 || stats.Attrs[0].Max != 11 {
		t.Fatalf("stats = %+v", stats)
	}
	// Missing key.
	blk, _, gets, err = st.GetBlock("SUPPLIER_by_nation", relation.Tuple{relation.Int(99)})
	if err != nil || blk != nil || gets != 1 {
		t.Fatalf("missing block: %v %d %v", blk, gets, err)
	}
	// The paper's point lookup: one get fetches the whole GERMANY block.
	blk, _, _, err = st.GetBlock("NATION_by_name", relation.Tuple{relation.String("GERMANY")})
	if err != nil || blk == nil || blk.Rows() != 1 || blk.Tuples[0][0].Int != 1 {
		t.Fatalf("germany block = %+v err=%v", blk, err)
	}
	if _, _, _, err := st.GetBlock("zzz", nil); err == nil {
		t.Fatal("unknown schema must error")
	}
}

func TestScanInstance(t *testing.T) {
	st, _ := newTestStore(t, DefaultOptions())
	seen := map[string]int64{}
	err := st.ScanInstance("SUPPLIER_by_nation", func(key relation.Tuple, blk *Block, stats *BlockStats) bool {
		seen[key.String()] = blk.Rows()
		if stats == nil {
			t.Fatal("stats enabled but missing")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen["(1)"] != 2 || seen["(2)"] != 1 {
		t.Fatalf("seen = %v", seen)
	}
	// Early stop.
	n := 0
	if err := st.ScanInstance("SUPPLIER_by_nation", func(relation.Tuple, *Block, *BlockStats) bool {
		n++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestScanStatsFastPath(t *testing.T) {
	st, _ := newTestStore(t, DefaultOptions())
	var total int64
	err := st.ScanStatsT(nil, "SUPPLIER_by_nation", func(h *HeaderBlock) bool {
		if h.Stats != nil {
			total += h.Stats.Rows
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Fatalf("total rows from stats = %d", total)
	}
}

func TestSegmentation(t *testing.T) {
	db := paperDB()
	// Grow the supplier relation so one nation's block needs segments.
	sup := db.Relation("SUPPLIER")
	for i := 0; i < 100; i++ {
		sup.MustInsert(relation.Tuple{relation.Int(int64(1000 + i)), relation.Int(1)})
	}
	cluster := kv.NewCluster(kv.EngineHash, 3)
	opts := Options{SegmentThreshold: 16, Compress: true, Stats: true}
	st, err := Map(db, paperSchema(db), cluster, opts)
	if err != nil {
		t.Fatal(err)
	}
	blk, stats, gets, err := st.GetBlock("SUPPLIER_by_nation", relation.Tuple{relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if blk.Distinct() != 102 {
		t.Fatalf("distinct = %d", blk.Distinct())
	}
	wantSegs := (102 + 15) / 16
	if gets != wantSegs {
		t.Fatalf("gets = %d want %d (one per segment)", gets, wantSegs)
	}
	if stats == nil || stats.Rows != 102 {
		t.Fatalf("merged stats = %+v", stats)
	}
	// Scan reassembles segmented blocks too.
	total := 0
	if err := st.ScanInstance("SUPPLIER_by_nation", func(_ relation.Tuple, b *Block, _ *BlockStats) bool {
		total += b.Distinct()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if total != 103 {
		t.Fatalf("scan total = %d", total)
	}
	if st.Degree("SUPPLIER_by_nation") != 102 {
		t.Fatalf("degree = %d", st.Degree("SUPPLIER_by_nation"))
	}
}

func TestIncrementalMaintenance(t *testing.T) {
	st, _ := newTestStore(t, DefaultOptions())
	// Insert a new supplier in nation 1 and a supplier in a new nation.
	if err := insertTuple(st, "SUPPLIER", relation.Tuple{relation.Int(13), relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := insertTuple(st, "SUPPLIER", relation.Tuple{relation.Int(14), relation.Int(3)}); err != nil {
		t.Fatal(err)
	}
	blk, _, _, _ := st.GetBlock("SUPPLIER_by_nation", relation.Tuple{relation.Int(1)})
	if blk.Distinct() != 3 {
		t.Fatalf("after insert: %d", blk.Distinct())
	}
	blk, _, _, _ = st.GetBlock("SUPPLIER_by_nation", relation.Tuple{relation.Int(3)})
	if blk == nil || blk.Distinct() != 1 {
		t.Fatalf("new block: %+v", blk)
	}
	// Delete one supplier; deleting the last tuple removes the block.
	if err := deleteTuple(st, "SUPPLIER", relation.Tuple{relation.Int(14), relation.Int(3)}); err != nil {
		t.Fatal(err)
	}
	blk, _, _, _ = st.GetBlock("SUPPLIER_by_nation", relation.Tuple{relation.Int(3)})
	if blk != nil {
		t.Fatalf("block should be gone: %+v", blk)
	}
	// Deleting a non-existent tuple is a no-op.
	if err := deleteTuple(st, "SUPPLIER", relation.Tuple{relation.Int(99), relation.Int(9)}); err != nil {
		t.Fatal(err)
	}
	// Errors.
	if err := insertTuple(st, "NOPE", relation.Tuple{}); err == nil {
		t.Fatal("unknown relation")
	}
	if err := insertTuple(st, "SUPPLIER", relation.Tuple{relation.Int(1)}); err == nil {
		t.Fatal("arity mismatch")
	}
}

func TestRelationalRoundTrip(t *testing.T) {
	st, db := newTestStore(t, DefaultOptions())
	rel, err := st.Relational("SUPPLIER_by_nation")
	if err != nil {
		t.Fatal(err)
	}
	// Same multiset of (nationkey, suppkey) pairs as the base relation.
	want := map[string]int{}
	for _, t2 := range db.Relation("SUPPLIER").Tuples {
		want[relation.KeyString(relation.Tuple{t2[1], t2[0]})]++
	}
	got := map[string]int{}
	for _, t2 := range rel.Tuples {
		got[relation.KeyString(t2)]++
	}
	if len(got) != len(want) {
		t.Fatalf("flattening: got %d keys want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("flattening multiset mismatch")
		}
	}
}

func TestComputeDegree(t *testing.T) {
	st, _ := newTestStore(t, DefaultOptions())
	d, err := st.ComputeDegree("SUPPLIER_by_nation")
	if err != nil || d != 2 {
		t.Fatalf("degree = %d err=%v", d, err)
	}
	if st.Degree("") != 2 {
		t.Fatalf("store degree = %d", st.Degree(""))
	}
}

// TestQuickMaintenanceMatchesRemap drives random inserts/deletes and checks
// that incremental maintenance produces the same store contents as remapping
// the database from scratch (the paper's O(|Δ|·deg) maintenance invariant).
func TestQuickMaintenanceMatchesRemap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := paperDB()
		cluster := kv.NewCluster(kv.EngineHash, 2)
		st, err := Map(db, paperSchema(db), cluster, DefaultOptions())
		if err != nil {
			return false
		}
		live := append([]relation.Tuple{}, db.Relation("SUPPLIER").Tuples...)
		for i := 0; i < 30; i++ {
			if r.Intn(2) == 0 || len(live) == 0 {
				tp := relation.Tuple{relation.Int(int64(r.Intn(20))), relation.Int(int64(r.Intn(4)))}
				live = append(live, tp)
				if err := insertTuple(st, "SUPPLIER", tp); err != nil {
					return false
				}
			} else {
				j := r.Intn(len(live))
				tp := live[j]
				live = append(live[:j], live[j+1:]...)
				if err := deleteTuple(st, "SUPPLIER", tp); err != nil {
					return false
				}
			}
		}
		// Rebuild from scratch and compare flattened contents.
		db2 := paperDB()
		sup := relation.NewRelation(db2.Relation("SUPPLIER").Schema)
		for _, tp := range live {
			sup.MustInsert(tp)
		}
		db2.Add(sup)
		st2, err := Map(db2, paperSchema(db2), kv.NewCluster(kv.EngineHash, 2), DefaultOptions())
		if err != nil {
			return false
		}
		r1, err1 := st.Relational("SUPPLIER_by_nation")
		r2, err2 := st2.Relational("SUPPLIER_by_nation")
		if err1 != nil || err2 != nil {
			return false
		}
		c1 := map[string]int{}
		for _, tp := range r1.Tuples {
			c1[relation.KeyString(tp)]++
		}
		c2 := map[string]int{}
		for _, tp := range r2.Tuples {
			c2[relation.KeyString(tp)]++
		}
		if len(c1) != len(c2) {
			return false
		}
		for k, n := range c1 {
			if c2[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsMerge(t *testing.T) {
	a := &BlockStats{Rows: 2, Attrs: []AttrStats{{Valid: true, Min: 1, Max: 5, Sum: 6}}}
	b := &BlockStats{Rows: 3, Attrs: []AttrStats{{Valid: true, Min: 0, Max: 4, Sum: 7}}}
	a.Merge(b)
	if a.Rows != 5 || a.Attrs[0].Min != 0 || a.Attrs[0].Max != 5 || a.Attrs[0].Sum != 13 {
		t.Fatalf("merged = %+v", a)
	}
	// Invalid attribute poisons the merge.
	c := &BlockStats{Rows: 1, Attrs: []AttrStats{{Valid: false}}}
	a.Merge(c)
	if a.Attrs[0].Valid {
		t.Fatal("invalid attr must poison")
	}
	// Merge into a fresh accumulator adopts the first operand.
	fresh := &BlockStats{}
	fresh.Merge(b)
	if fresh.Rows != 3 || !fresh.Attrs[0].Valid || fresh.Attrs[0].Sum != 7 {
		t.Fatalf("fresh merge = %+v", fresh)
	}
	fresh.Merge(nil) // no-op
	if fresh.Rows != 3 {
		t.Fatal("nil merge must be a no-op")
	}
}

func TestInstanceStats(t *testing.T) {
	st, _ := newTestStore(t, DefaultOptions())
	if got := st.InstanceBlocks("SUPPLIER_by_nation"); got != 2 {
		t.Fatalf("blocks = %d", got)
	}
	if got := st.RelationRows("SUPPLIER"); got != 3 {
		t.Fatalf("rows = %d", got)
	}
	if !st.HasBlockStats() {
		t.Fatal("default options carry stats")
	}
	b, err := st.InstanceBytes("SUPPLIER_by_nation")
	if err != nil || b <= 0 {
		t.Fatalf("bytes = %d err=%v", b, err)
	}
	if _, err := st.InstanceBytes("nope"); err == nil {
		t.Fatal("unknown instance must error")
	}
	// Maintenance keeps the counters in sync.
	if err := insertTuple(st, "SUPPLIER", relation.Tuple{relation.Int(40), relation.Int(9)}); err != nil {
		t.Fatal(err)
	}
	if st.InstanceBlocks("SUPPLIER_by_nation") != 3 || st.RelationRows("SUPPLIER") != 4 {
		t.Fatalf("after insert: blocks=%d rows=%d",
			st.InstanceBlocks("SUPPLIER_by_nation"), st.RelationRows("SUPPLIER"))
	}
	if err := deleteTuple(st, "SUPPLIER", relation.Tuple{relation.Int(40), relation.Int(9)}); err != nil {
		t.Fatal(err)
	}
	if st.InstanceBlocks("SUPPLIER_by_nation") != 2 || st.RelationRows("SUPPLIER") != 3 {
		t.Fatalf("after delete: blocks=%d rows=%d",
			st.InstanceBlocks("SUPPLIER_by_nation"), st.RelationRows("SUPPLIER"))
	}
}

// TestReadFormsAgree holds the one-implementation read path across engines
// and node counts, over a store whose nation-1 block is segmented, whose
// nation-2 block is tombstoned (a pinned snapshot keeps the tombstone
// materialized) and which has no nation-99 block:
//
//   - GetBlock answers what GetBlocksT answers at the same index of a batch,
//     with the same gets;
//   - every read form's traced kv totals equal the cluster metrics delta;
//   - ScanInstance visits the node-order concatenation of ScanInstanceNodeT;
//   - Prefetch issues no get for a batch whose blocks are all absent or
//     tombstoned at the commit's base sequence (readers probe, commits do
//     not), and staging after it issues none either.
func TestReadFormsAgree(t *testing.T) {
	const name = "SUPPLIER_by_nation"
	for _, kind := range []kv.EngineKind{kv.EngineHash, kv.EngineLSM, kv.EngineSorted} {
		for _, nodes := range []int{1, 4} {
			db := paperDB()
			sup := db.Relation("SUPPLIER")
			for i := 0; i < 100; i++ {
				sup.MustInsert(relation.Tuple{relation.Int(int64(1000 + i)), relation.Int(int64(1 + 2*(i%3)))})
			}
			cluster := kv.NewCluster(kind, nodes)
			st, err := Map(db, paperSchema(db), cluster, Options{SegmentThreshold: 16, Compress: true, Stats: true})
			if err != nil {
				t.Fatal(err)
			}
			snap := st.PinSnapshot([]string{"SUPPLIER"})
			if err := deleteTuple(st, "SUPPLIER", relation.Tuple{relation.Int(12), relation.Int(2)}); err != nil {
				t.Fatal(err)
			}
			// traced runs a read form and checks its trace against the
			// cluster-wide metrics delta, returning the traced gets.
			traced := func(form string, run func(kvt *obs.KV)) int64 {
				t.Helper()
				kvt := &obs.KV{}
				before := cluster.Metrics()
				run(kvt)
				d, tr := cluster.Metrics().Sub(before), kvt.Snapshot()
				if tr.Gets != d.Gets || tr.ScanNexts != d.ScanNexts || tr.BytesRead != d.BytesRead || d.Gets+d.ScanNexts == 0 {
					t.Fatalf("%v/%d nodes %s: trace %+v vs metrics delta %+v", kind, nodes, form, tr, d)
				}
				return tr.Gets
			}

			keys := []relation.Tuple{{relation.Int(1)}, {relation.Int(99)}, {relation.Int(2)}, {relation.Int(3)}}
			wantGets := []int{3, 1, 1, 3} // 36 and 33 tuples at 16 per segment; one probe each for absent and tombstoned
			var blks []*Block
			var statss []*BlockStats
			var gets int
			if got := traced("GetBlocksT", func(kvt *obs.KV) {
				blks, statss, gets, err = st.GetBlocksT(kvt, name, keys)
			}); err != nil || got != int64(gets) {
				t.Fatalf("%v/%d nodes GetBlocksT: traced %d gets, reported %d, err %v", kind, nodes, got, gets, err)
			}
			sum := 0
			for i, key := range keys {
				before := cluster.Metrics()
				blk, stats, g, err := st.GetBlock(name, key)
				if err != nil {
					t.Fatal(err)
				}
				if d := cluster.Metrics().Sub(before); g != wantGets[i] || d.Gets != int64(g) {
					t.Fatalf("%v/%d nodes GetBlock(%v): gets %d (metrics %d), want %d", kind, nodes, key, g, d.Gets, wantGets[i])
				}
				if !reflect.DeepEqual(blk, blks[i]) || !reflect.DeepEqual(stats, statss[i]) {
					t.Fatalf("%v/%d nodes GetBlock(%v) = %+v, batch answered %+v", kind, nodes, key, blk, blks[i])
				}
				if (blk == nil) != (wantGets[i] == 1) {
					t.Fatalf("%v/%d nodes GetBlock(%v): block %+v", kind, nodes, key, blk)
				}
				sum += g
			}
			if sum != gets {
				t.Fatalf("%v/%d nodes: batch issued %d gets, one-key calls %d", kind, nodes, gets, sum)
			}
			if blk, _, g, err := st.AtSnapshot(snap).GetBlock(name, keys[2]); err != nil || blk == nil || g != 1 {
				t.Fatalf("%v/%d nodes: pinned read of the tombstoned block = %+v, %d gets, %v", kind, nodes, blk, g, err)
			}

			var perNode, whole []string
			traced("ScanInstanceNodeT", func(kvt *obs.KV) {
				for node := 0; node < nodes; node++ {
					if err := st.ScanInstanceNodeT(kvt, node, name, nil, func(key relation.Tuple, blk *Block, _ int64) bool {
						perNode = append(perNode, fmt.Sprint(key, blk.Rows()))
						return true
					}); err != nil {
						t.Fatal(err)
					}
				}
			})
			if err := st.ScanInstance(name, func(key relation.Tuple, blk *Block, _ *BlockStats) bool {
				whole = append(whole, fmt.Sprint(key, blk.Rows()))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(whole) != 3 || !reflect.DeepEqual(whole, perNode) {
				t.Fatalf("%v/%d nodes: ScanInstance %v, node-order walk %v", kind, nodes, whole, perNode)
			}
			// The header walk visits the blocks ScanInstance does, once each,
			// segments merged, and decodes each to what ScanInstance read.
			var headers []string
			traced("ScanStatsT", func(kvt *obs.KV) {
				if err := st.ScanStatsT(kvt, name, func(h *HeaderBlock) bool {
					key, _, err := relation.DecodeTuple(h.Key, 1)
					if err != nil {
						t.Fatal(err)
					}
					blk, err := h.Decode()
					if err != nil {
						t.Fatal(err)
					}
					if blk.Rows() != h.Stats.Rows {
						t.Fatalf("%v/%d nodes: block %v decodes to %d rows, header says %d", kind, nodes, key, blk.Rows(), h.Stats.Rows)
					}
					headers = append(headers, fmt.Sprint(key, h.Stats.Rows))
					return true
				}); err != nil {
					t.Fatal(err)
				}
			})
			if !reflect.DeepEqual(headers, whole) {
				t.Fatalf("%v/%d nodes: ScanStatsT %v, ScanInstance %v", kind, nodes, headers, whole)
			}

			c, err := st.BeginCommit("SUPPLIER")
			if err != nil {
				t.Fatal(err)
			}
			kvt := &obs.KV{}
			fresh := []relation.Tuple{
				{relation.Int(50), relation.Int(98)},
				{relation.Int(51), relation.Int(99)},
				{relation.Int(52), relation.Int(2)},
			}
			before := cluster.Metrics()
			if err := c.Prefetch(kvt, fresh); err != nil {
				t.Fatal(err)
			}
			for _, row := range fresh {
				if err := c.StageInsert(kvt, row); err != nil {
					t.Fatal(err)
				}
			}
			if d := cluster.Metrics().Sub(before); d.Gets != 0 || kvt.Snapshot().Gets != 0 {
				t.Fatalf("%v/%d nodes: prefetch+stage over absent blocks issued %d gets", kind, nodes, d.Gets)
			}
			c.Close()
			snap.Release()
		}
	}
}
