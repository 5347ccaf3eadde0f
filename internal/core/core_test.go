package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/kba"
	"zidian/internal/kv"
	"zidian/internal/ra"
	"zidian/internal/relation"
)

// fixture builds the paper's Example 1 schema with a randomized instance of
// moderate size, its BaaV schema ~R1, and the mapped store.
func fixture(t testing.TB, seed int64) (*relation.Database, *baav.Store, *Checker) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()

	names := []string{"GERMANY", "FRANCE", "KENYA", "PERU", "JAPAN"}
	nation := relation.NewRelation(relation.MustSchema("NATION",
		[]relation.Attr{{Name: "nationkey", Kind: relation.KindInt}, {Name: "name", Kind: relation.KindString}},
		[]string{"nationkey"}))
	for i, n := range names {
		nation.MustInsert(relation.Tuple{relation.Int(int64(i + 1)), relation.String(n)})
	}
	db.Add(nation)

	supplier := relation.NewRelation(relation.MustSchema("SUPPLIER",
		[]relation.Attr{{Name: "suppkey", Kind: relation.KindInt}, {Name: "nationkey", Kind: relation.KindInt}},
		[]string{"suppkey"}))
	for i := 0; i < 40; i++ {
		supplier.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(r.Intn(len(names)) + 1))})
	}
	db.Add(supplier)

	partsupp := relation.NewRelation(relation.MustSchema("PARTSUPP",
		[]relation.Attr{
			{Name: "partkey", Kind: relation.KindInt}, {Name: "suppkey", Kind: relation.KindInt},
			{Name: "supplycost", Kind: relation.KindInt}, {Name: "availqty", Kind: relation.KindInt},
		},
		[]string{"partkey", "suppkey"}))
	for i := 0; i < 200; i++ {
		partsupp.MustInsert(relation.Tuple{
			relation.Int(int64(r.Intn(30))), relation.Int(int64(r.Intn(40))),
			relation.Int(int64(r.Intn(50))), relation.Int(int64(r.Intn(20))),
		})
	}
	db.Add(partsupp)

	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "NATION_by_name", Rel: "NATION", Key: []string{"name"}, Val: []string{"nationkey"}},
		baav.KVSchema{Name: "SUPPLIER_by_nation", Rel: "SUPPLIER", Key: []string{"nationkey"}, Val: []string{"suppkey"}},
		baav.KVSchema{Name: "PARTSUPP_by_supp", Rel: "PARTSUPP", Key: []string{"suppkey"}, Val: []string{"partkey", "supplycost", "availqty"}},
	)
	store, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 3), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db, store, NewChecker(schema, baav.RelSchemas(db))
}

const paperQ1 = `select PS.suppkey, SUM(PS.supplycost)
	from PARTSUPP as PS, SUPPLIER as S, NATION as N
	where PS.suppkey = S.suppkey and S.nationkey = N.nationkey and N.name = 'GERMANY'
	group by PS.suppkey`

func TestPkOf(t *testing.T) {
	_, _, c := fixture(t, 1)
	if pk := c.pkOf(*c.Schema.ByName("PARTSUPP_by_supp")); len(pk) != 2 {
		t.Fatalf("pk = %v (schema contains partkey+suppkey)", pk)
	}
	if pk := c.pkOf(*c.Schema.ByName("SUPPLIER_by_nation")); len(pk) != 1 || pk[0] != "suppkey" {
		t.Fatalf("pk = %v", pk)
	}
	// A schema missing part of the relation's key carries no pk.
	db, _, _ := fixture(t, 1)
	s2 := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "PS_partial", Rel: "PARTSUPP", Key: []string{"suppkey"}, Val: []string{"supplycost"}})
	c2 := NewChecker(s2, baav.RelSchemas(db))
	if pk := c2.pkOf(*s2.ByName("PS_partial")); pk != nil {
		t.Fatalf("pk = %v, want nil", pk)
	}
}

func TestDataPreservingExample4(t *testing.T) {
	_, _, c := fixture(t, 1)
	ok, missing := c.DataPreserving()
	if !ok {
		t.Fatalf("~R1 is data preserving for R1 (Example 4); missing %v", missing)
	}
}

func TestDataPreservingFailsForPrunedSchema(t *testing.T) {
	// Example 5's ~R'1: PARTSUPP without availqty is not data preserving.
	db, _, _ := fixture(t, 1)
	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "NATION_by_name", Rel: "NATION", Key: []string{"name"}, Val: []string{"nationkey"}},
		baav.KVSchema{Name: "SUPPLIER_by_nation", Rel: "SUPPLIER", Key: []string{"nationkey"}, Val: []string{"suppkey"}},
		baav.KVSchema{Name: "PARTSUPP_prime", Rel: "PARTSUPP", Key: []string{"suppkey"}, Val: []string{"partkey", "supplycost"}},
	)
	c := NewChecker(schema, baav.RelSchemas(db))
	ok, missing := c.DataPreserving()
	if ok || len(missing) != 1 || missing[0] != "PARTSUPP" {
		t.Fatalf("ok=%v missing=%v", ok, missing)
	}
	// But it is result preserving for Q'1 (Example 5) — and even for Q2,
	// whose minimal equivalent query is Q'1.
	q1 := ra.MustParse(`select PS.suppkey, PS.supplycost
		from NATION N, SUPPLIER S, PARTSUPP PS
		where N.name = 'GERMANY' and N.nationkey = S.nationkey and S.suppkey = PS.suppkey`, db)
	if !c.ResultPreserving(q1) {
		t.Fatal("~R'1 must be result preserving for Q'1")
	}
	q2 := ra.MustParse(`select PS.suppkey, PS.supplycost
		from NATION N, SUPPLIER S, PARTSUPP PS, PARTSUPP PS2
		where N.name = 'GERMANY' and N.nationkey = S.nationkey and S.suppkey = PS.suppkey
		  and PS.partkey = PS2.partkey and PS.suppkey = PS2.suppkey
		  and PS.supplycost = PS2.supplycost and PS.availqty = PS2.availqty`, db)
	if !c.ResultPreserving(q2) {
		t.Fatal("~R'1 must be result preserving for Q2 via min(Q2) = Q'1 (Example 5)")
	}
	// A query that genuinely needs availqty is not preserved.
	q3 := ra.MustParse("select PS.availqty from PARTSUPP PS where PS.suppkey = 3", db)
	if c.ResultPreserving(q3) {
		t.Fatal("availqty is not recoverable from ~R'1")
	}
}

func TestCloExpandsThroughPrimaryKeys(t *testing.T) {
	db, _, _ := fixture(t, 1)
	// Two PARTSUPP schemas: one keyed by suppkey (carrying the pk), one
	// keyed by partkey with availqty. clo of the first reaches availqty
	// through the pk of the second.
	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "PS_supp", Rel: "PARTSUPP", Key: []string{"suppkey"}, Val: []string{"partkey", "supplycost"}},
		baav.KVSchema{Name: "PS_part", Rel: "PARTSUPP", Key: []string{"partkey"}, Val: []string{"suppkey", "availqty"}},
	)
	c := NewChecker(schema, baav.RelSchemas(db))
	clo := c.Clo("PS_supp", nil)
	if !clo["availqty"] {
		t.Fatalf("clo = %v, must include availqty via pk expansion", clo)
	}
	if c.Clo("nope", nil) != nil {
		t.Fatal("unknown anchor yields nil")
	}
}

func TestGetSetExample6(t *testing.T) {
	db, _, c := fixture(t, 1)
	q := ra.MustParse(paperQ1, db)
	eq := ra.BuildEqClasses(q)
	get := c.GetSet(q, eq)
	for _, ref := range []ra.ColRef{
		{Alias: "N", Attr: "name"}, {Alias: "N", Attr: "nationkey"},
		{Alias: "S", Attr: "nationkey"}, {Alias: "S", Attr: "suppkey"},
		{Alias: "PS", Attr: "suppkey"}, {Alias: "PS", Attr: "supplycost"},
	} {
		if !get[eq.Find(ref)] {
			t.Fatalf("GET must contain %s", ref)
		}
	}
}

func TestScanFreeClassification(t *testing.T) {
	db, _, c := fixture(t, 1)
	cases := []struct {
		src  string
		want bool
	}{
		{paperQ1, true},
		// No constants: nothing seeds the chase.
		{"select S.suppkey from SUPPLIER S", false},
		{"select SUM(PS.supplycost) from PARTSUPP PS", false},
		// Constant on a non-key attribute of the only schema: not retrievable.
		{"select PS.partkey from PARTSUPP PS where PS.availqty = 3", false},
		// Point access through the chain is scan-free.
		{"select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'KENYA'", true},
		{"select PS.partkey from PARTSUPP PS where PS.suppkey = 7", true},
		// IN seeds the chase like constants.
		{"select PS.partkey from PARTSUPP PS where PS.suppkey in (1, 2, 3)", true},
		// Filters on fetched attributes keep scan-freeness.
		{"select PS.partkey from PARTSUPP PS where PS.suppkey = 7 and PS.availqty > 5", true},
	}
	for _, tc := range cases {
		q := ra.MustParse(tc.src, db)
		if got := c.ScanFree(q); got != tc.want {
			t.Fatalf("ScanFree(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

// TestBounded holds PlanInfo.Bounded, the one boundedness rule: a plan is
// bounded when it is scan-free and every instance its ∝ steps extend — an
// index among them, whose degree is its longest posting list — has degree
// at most the bound.
func TestBounded(t *testing.T) {
	db, store, c := fixture(t, 1)
	plan := func(c *Checker, db *relation.Database, src string) *PlanInfo {
		t.Helper()
		info, err := c.Plan(ra.MustParse(src, db))
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	q1 := plan(c, db, paperQ1)
	if !q1.Bounded(store, 1000) {
		t.Fatal("Q1 is bounded under a generous degree bound")
	}
	if q1.Bounded(store, 1) {
		t.Fatal("degree bound 1 must fail (blocks are larger)")
	}
	if plan(c, db, "select SUM(PS.supplycost) from PARTSUPP PS").Bounded(store, 1000) {
		t.Fatal("non-scan-free plans are unbounded")
	}

	// ITEM: one hot sku posted 30 times, nine skus posted once; item_full
	// holds one tuple per block.
	db, c = indexFixture(t)
	item := db.Relation("ITEM")
	for i := 0; i < 39; i++ {
		sku := "HOT"
		if i >= 30 {
			sku = fmt.Sprintf("C%d", i)
		}
		item.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.String(sku), relation.Int(int64(i))})
	}
	ist, err := baav.Map(db, c.Schema, kv.NewCluster(kv.EngineHash, 2), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ist.CreateIndex("ix_sku", "ITEM", "sku", item.Tuples); err != nil {
		t.Fatal(err)
	}
	c.WithStats(ist).WithIndexes(ist.Indexes())
	lookup := plan(c, db, "select I.id, I.qty from ITEM I where I.sku = 'C31'")
	if !slices.Equal(lookup.Extends, []string{"ix_sku", "item_full"}) || !lookup.ScanFree {
		t.Fatalf("lookup plan: %s (extends %v)", lookup.Root, lookup.Extends)
	}
	if ist.Degree("item_full") != 1 || ist.Degree("ix_sku") != 30 {
		t.Fatalf("degrees: item_full %d, ix_sku %d", ist.Degree("item_full"), ist.Degree("ix_sku"))
	}
	// Only the index's longest posting list exceeds 29.
	if lookup.Bounded(ist, 29) {
		t.Fatal("a posting list of 30 must make the lookup unbounded at 29")
	}
	if !lookup.Bounded(ist, 30) {
		t.Fatal("the lookup is bounded at its index's longest posting list")
	}
}

func TestPlanPaperQ1(t *testing.T) {
	db, store, c := fixture(t, 1)
	q := ra.MustParse(paperQ1, db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ScanFree {
		t.Fatalf("ξ1 must be scan-free: %s", info.Root)
	}
	if len(info.Extends) != 3 || len(info.Scans) != 0 {
		t.Fatalf("extends=%v scans=%v", info.Extends, info.Scans)
	}
	// The plan is the chain of Example 7: const ∝ NATION ∝ SUPPLIER ∝ PARTSUPP.
	s := info.Root.String()
	if !strings.Contains(s, "NATION_by_name") || !strings.Contains(s, "PARTSUPP_by_supp") {
		t.Fatalf("plan = %s", s)
	}
	if !info.Bounded(store, store.Degree("")) {
		t.Fatal("Q1 must be bounded at the store's own max degree")
	}

	got, stats, err := Answer(info, store)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ra.Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("plan answer differs from reference:\n%v\n%v", got.Rows, want.Rows)
	}
	if stats.Gets == 0 || stats.ScanBlocks != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestPlanNonScanFreeFallsBackToScan(t *testing.T) {
	db, store, c := fixture(t, 2)
	q := ra.MustParse("select SUM(PS.supplycost), COUNT(*) from PARTSUPP PS", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if info.ScanFree || len(info.Scans) != 1 {
		t.Fatalf("expected one scan: %+v", info)
	}
	got, _, err := Answer(info, store)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ra.Evaluate(q, db)
	if !got.Equal(want) {
		t.Fatalf("answer differs: %v vs %v", got.Rows, want.Rows)
	}
}

func TestPlanUnsatisfiable(t *testing.T) {
	db, store, c := fixture(t, 3)
	q := ra.MustParse("select S.suppkey from SUPPLIER S where S.nationkey = 1 and S.nationkey = 2", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Empty {
		t.Fatal("conflicting constants must produce the empty plan")
	}
	got, _, err := Answer(info, store)
	if err != nil || len(got.Rows) != 0 {
		t.Fatalf("empty answer expected: %v %v", got, err)
	}
	// Empty IN intersection too.
	q2 := ra.MustParse("select S.suppkey from SUPPLIER S where S.nationkey = 1 and S.nationkey in (2, 3)", db)
	info2, err := c.Plan(q2)
	if err != nil || !info2.Empty {
		t.Fatalf("empty IN intersection: %+v %v", info2, err)
	}
}

func TestPlanNotAnswerable(t *testing.T) {
	db, _, _ := fixture(t, 4)
	// Schema covering only part of PARTSUPP cannot answer availqty queries.
	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "PS_prime", Rel: "PARTSUPP", Key: []string{"suppkey"}, Val: []string{"partkey", "supplycost"}})
	c := NewChecker(schema, baav.RelSchemas(db))
	q := ra.MustParse("select PS.availqty from PARTSUPP PS where PS.suppkey = 3", db)
	_, err := c.Plan(q)
	if !errors.Is(err, ErrNotAnswerable) {
		t.Fatalf("err = %v, want ErrNotAnswerable", err)
	}
}

func TestPlanWithOrderLimitDistinctFilters(t *testing.T) {
	db, store, c := fixture(t, 5)
	for _, src := range []string{
		"select distinct PS.partkey from PARTSUPP PS where PS.suppkey = 3 order by PS.partkey desc limit 2",
		"select PS.partkey, PS.availqty from PARTSUPP PS where PS.suppkey = 3 and PS.availqty > 4",
		"select PS.partkey from PARTSUPP PS where PS.suppkey in (1, 3, 5) and PS.supplycost < PS.availqty",
	} {
		q := ra.MustParse(src, db)
		info, err := c.Plan(q)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !info.ScanFree {
			t.Fatalf("%s should be scan-free", src)
		}
		got, _, err := Answer(info, store)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ra.Evaluate(q, db)
		if !got.Equal(want) {
			t.Fatalf("%s:\n got %v\nwant %v", src, got.Rows, want.Rows)
		}
	}
}

func TestPlanMixedScanAndExtend(t *testing.T) {
	db, store, c := fixture(t, 6)
	// The aggregate over all suppliers joined to nations is not scan-free,
	// but the nation side can still be reached; the plan mixes a scan with
	// hash joins and answers correctly.
	q := ra.MustParse(`select N.name, COUNT(*) from SUPPLIER S, NATION N
		where S.nationkey = N.nationkey group by N.name`, db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if info.ScanFree {
		t.Fatal("query without constants cannot be scan-free")
	}
	got, _, err := Answer(info, store)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ra.Evaluate(q, db)
	if !got.Equal(want) {
		t.Fatalf("got %v want %v", got.Rows, want.Rows)
	}
}

func TestPlanDisconnectedCrossProduct(t *testing.T) {
	db, store, c := fixture(t, 7)
	q := ra.MustParse(`select N.nationkey, PS.partkey from NATION N, PARTSUPP PS
		where N.name = 'PERU' and PS.suppkey = 2`, db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Answer(info, store)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ra.Evaluate(q, db)
	if !got.Equal(want) {
		t.Fatalf("got %v want %v", got.Rows, want.Rows)
	}
}

// TestPlanDifferential compares generated plans against the reference
// evaluator across a battery of queries covering joins, constants, INs,
// filters, aggregates, DISTINCT and self-joins.
func TestPlanDifferential(t *testing.T) {
	db, store, c := fixture(t, 8)
	queries := []string{
		paperQ1,
		"select N.name from NATION N where N.nationkey = 3",
		"select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'FRANCE'",
		"select PS.partkey, PS.supplycost from PARTSUPP PS where PS.suppkey = 11",
		"select PS.partkey from PARTSUPP PS where PS.suppkey in (2, 4, 6) and PS.supplycost >= 10",
		"select SUM(PS.availqty) from PARTSUPP PS",
		"select S.nationkey, COUNT(*) from SUPPLIER S group by S.nationkey",
		"select N.name, SUM(PS.supplycost) from PARTSUPP PS, SUPPLIER S, NATION N " +
			"where PS.suppkey = S.suppkey and S.nationkey = N.nationkey group by N.name",
		"select distinct PS.suppkey from PARTSUPP PS where PS.partkey = 7",
		"select A.partkey from PARTSUPP A, PARTSUPP B where A.partkey = B.partkey and A.suppkey = 3 and B.suppkey = 5",
		"select MIN(PS.supplycost), MAX(PS.supplycost), AVG(PS.supplycost) from PARTSUPP PS where PS.suppkey = 9",
		"select S.suppkey, N.name from SUPPLIER S, NATION N where S.nationkey = N.nationkey and S.suppkey between 3 and 8 order by S.suppkey limit 4",
	}
	for _, src := range queries {
		q := ra.MustParse(src, db)
		info, err := c.Plan(q)
		if err != nil {
			t.Fatalf("plan %q: %v", src, err)
		}
		got, _, err := Answer(info, store)
		if err != nil {
			t.Fatalf("answer %q: %v", src, err)
		}
		want, err := ra.Evaluate(q, db)
		if err != nil {
			t.Fatalf("reference %q: %v", src, err)
		}
		if !got.Equal(want) {
			t.Fatalf("differential mismatch for %q:\n got %v\nwant %v\nplan %s",
				src, got.Rows, want.Rows, info.Root)
		}
	}
}

// TestPlanScanFreeAccessIsProportional verifies the headline property: the
// data accessed by a scan-free plan does not grow with the database.
func TestPlanScanFreeAccessIsProportional(t *testing.T) {
	run := func(extra int) int64 {
		db, _, _ := fixture(t, 9)
		ps := db.Relation("PARTSUPP")
		r := rand.New(rand.NewSource(99))
		for i := 0; i < extra; i++ {
			// Grow the relation with suppliers != 3 only.
			ps.MustInsert(relation.Tuple{
				relation.Int(int64(r.Intn(30))), relation.Int(int64(40 + r.Intn(40))),
				relation.Int(int64(r.Intn(50))), relation.Int(int64(r.Intn(20))),
			})
		}
		schema := baav.MustSchema(baav.RelSchemas(db),
			baav.KVSchema{Name: "PARTSUPP_by_supp", Rel: "PARTSUPP", Key: []string{"suppkey"}, Val: []string{"partkey", "supplycost", "availqty"}})
		store, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 2), baav.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		c := NewChecker(schema, baav.RelSchemas(db))
		q := ra.MustParse("select PS.partkey from PARTSUPP PS where PS.suppkey = 3", db)
		info, err := c.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := Answer(info, store)
		if err != nil {
			t.Fatal(err)
		}
		return stats.DataValues
	}
	small := run(0)
	big := run(5000)
	if big != small {
		t.Fatalf("scan-free access grew with |D|: %d -> %d", small, big)
	}
}

func TestToResultErrors(t *testing.T) {
	db, _, c := fixture(t, 10)
	q := ra.MustParse("select N.name from NATION N where N.nationkey = 1", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	bad := kba.NewPartRel([]string{"wrong"}, 1)
	if _, err := info.ToResult(bad); err == nil {
		t.Fatal("missing output column must error")
	}
}
