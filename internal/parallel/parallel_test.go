package parallel

import (
	"math/rand"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kv"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/taav"
)

// fixture builds the paper's Example 1 schema with a randomized instance,
// both stores (TaaV and BaaV), and the checker.
func fixture(t *testing.T, seed int64, nSupp, nPS int) (*relation.Database, *taav.Store, *baav.Store, *core.Checker) {
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
	for i := 0; i < nSupp; i++ {
		supplier.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(r.Intn(len(names)) + 1))})
	}
	db.Add(supplier)

	partsupp := relation.NewRelation(relation.MustSchema("PARTSUPP",
		[]relation.Attr{
			{Name: "partkey", Kind: relation.KindInt}, {Name: "suppkey", Kind: relation.KindInt},
			{Name: "supplycost", Kind: relation.KindInt}, {Name: "availqty", Kind: relation.KindInt},
		},
		[]string{"partkey", "suppkey"}))
	// Unique (partkey, suppkey) pairs: TaaV keys tuples by primary key, so
	// duplicates would silently overwrite and diverge from the reference.
	nParts := nPS / 4
	if nParts < 1 {
		nParts = 1
	}
	for i := 0; i < nPS && i < nParts*nSupp; i++ {
		partsupp.MustInsert(relation.Tuple{
			relation.Int(int64(i % nParts)), relation.Int(int64((i / nParts) % nSupp)),
			relation.Int(int64(r.Intn(50))), relation.Int(int64(r.Intn(20))),
		})
	}
	db.Add(partsupp)

	tv, err := taav.Map(db, kv.NewCluster(kv.EngineHash, 4))
	if err != nil {
		t.Fatal(err)
	}
	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "NATION_by_name", Rel: "NATION", Key: []string{"name"}, Val: []string{"nationkey"}},
		baav.KVSchema{Name: "SUPPLIER_by_nation", Rel: "SUPPLIER", Key: []string{"nationkey"}, Val: []string{"suppkey"}},
		baav.KVSchema{Name: "PARTSUPP_by_supp", Rel: "PARTSUPP", Key: []string{"suppkey"}, Val: []string{"partkey", "supplycost", "availqty"}},
	)
	bv, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 4), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db, tv, bv, core.NewChecker(schema, baav.RelSchemas(db))
}

var testQueries = []string{
	`select PS.suppkey, SUM(PS.supplycost) from PARTSUPP as PS, SUPPLIER as S, NATION as N
	 where PS.suppkey = S.suppkey and S.nationkey = N.nationkey and N.name = 'GERMANY'
	 group by PS.suppkey`,
	"select N.name from NATION N where N.nationkey = 3",
	"select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'FRANCE'",
	"select PS.partkey, PS.supplycost from PARTSUPP PS where PS.suppkey = 11",
	"select PS.partkey from PARTSUPP PS where PS.suppkey in (2, 4, 6) and PS.supplycost >= 10",
	"select SUM(PS.availqty), COUNT(*) from PARTSUPP PS",
	"select S.nationkey, COUNT(*) from SUPPLIER S group by S.nationkey",
	`select N.name, SUM(PS.supplycost) from PARTSUPP PS, SUPPLIER S, NATION N
	 where PS.suppkey = S.suppkey and S.nationkey = N.nationkey group by N.name`,
	"select distinct PS.suppkey from PARTSUPP PS where PS.partkey = 7",
	"select S.suppkey, N.name from SUPPLIER S, NATION N where S.nationkey = N.nationkey and S.suppkey between 3 and 8 order by S.suppkey limit 4",
	"select A.partkey from PARTSUPP A, PARTSUPP B where A.partkey = B.partkey and A.suppkey = 3 and B.suppkey = 5",
}

// TestParallelKBADifferential compares the KBA executor against the
// reference evaluator for every test query at several worker counts; one
// worker is sequential execution and shuffles nothing.
func TestParallelKBADifferential(t *testing.T) {
	db, _, bv, c := fixture(t, 1, 40, 400)
	for _, src := range testQueries {
		q := ra.MustParse(src, db)
		info, err := c.Plan(q)
		if err != nil {
			t.Fatalf("plan %q: %v", src, err)
		}
		want, err := ra.Evaluate(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			got, m, err := RunKBA(info, bv, workers)
			if err != nil {
				t.Fatalf("RunKBA(%q, %d): %v", src, workers, err)
			}
			if !got.Equal(want) {
				t.Fatalf("parallel KBA differs for %q at p=%d:\n got %v\nwant %v",
					src, workers, got.Rows, want.Rows)
			}
			if m.Workers != workers || m.Wall <= 0 || (workers == 1 && m.ShuffleBytes != 0) {
				t.Fatalf("metrics = %+v", m)
			}
		}
	}
}

// TestParallelTaaVDifferential does the same for the baseline executor.
func TestParallelTaaVDifferential(t *testing.T) {
	db, tv, _, _ := fixture(t, 2, 40, 400)
	for _, src := range testQueries {
		q := ra.MustParse(src, db)
		want, err := ra.Evaluate(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, m, err := RunTaaV(q, tv, workers)
			if err != nil {
				t.Fatalf("RunTaaV(%q, %d): %v", src, workers, err)
			}
			if !got.Equal(want) {
				t.Fatalf("parallel TaaV differs for %q at p=%d:\n got %v\nwant %v",
					src, workers, got.Rows, want.Rows)
			}
			if m.Gets == 0 {
				t.Fatal("baseline must count retrieval gets")
			}
		}
	}
}

// TestRunTaaVFetchesEverything: the baseline retrieves every relation the
// query mentions in full — one get and one value per attribute for each
// tuple, the selective predicate notwithstanding — and answers like the
// reference.
func TestRunTaaVFetchesEverything(t *testing.T) {
	db, tv, _, _ := fixture(t, 7, 10, 40)
	q := ra.MustParse(`select S.suppkey from SUPPLIER S, NATION N
		where S.nationkey = N.nationkey and N.name = 'GERMANY'`, db)
	got, m, err := RunTaaV(q, tv, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ra.Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("baseline answer %v != reference %v", got.Rows, want.Rows)
	}
	// 10 suppliers and 5 nations, two attributes each.
	if m.Gets != 15 || m.DataValues != 30 || m.BytesRead <= 0 {
		t.Fatalf("stats = %+v (the baseline must fetch everything)", m.ExecStats)
	}
}

// TestRunTaaVSelfJoinScansOnce: aliases of one relation share one scan.
func TestRunTaaVSelfJoinScansOnce(t *testing.T) {
	db, tv, _, _ := fixture(t, 8, 10, 40)
	q := ra.MustParse(`select A.suppkey, B.suppkey from SUPPLIER A, SUPPLIER B
		where A.nationkey = B.nationkey and A.suppkey < B.suppkey`, db)
	got, m, err := RunTaaV(q, tv, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ra.Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("self join answer differs")
	}
	if m.Gets != 10 {
		t.Fatalf("gets = %d (one scan per distinct relation)", m.Gets)
	}
}

// TestScanFreeBeatsBaselineOnAccess verifies Proposition 7's practical
// consequence: for a scan-free query, Zidian touches a bounded amount of
// data while the baseline touches everything.
func TestScanFreeBeatsBaselineOnAccess(t *testing.T) {
	db, tv, bv, c := fixture(t, 3, 60, 1200)
	q := ra.MustParse(testQueries[0], db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ScanFree {
		t.Fatal("Q1 must be scan-free")
	}
	_, mk, err := RunKBA(info, bv, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, mt, err := RunTaaV(q, tv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mk.DataValues*5 > mt.DataValues {
		t.Fatalf("Zidian should access far less data: %d vs %d", mk.DataValues, mt.DataValues)
	}
	if mk.Gets > mt.Gets {
		t.Fatalf("Zidian gets %d > baseline %d", mk.Gets, mt.Gets)
	}
}

// TestBoundedCommunication: for a bounded query the shuffle volume must not
// grow with the database (Proposition 7(b)).
func TestBoundedCommunication(t *testing.T) {
	shuffleAt := func(nPS int) int64 {
		db, _, bv, c := fixture(t, 4, 40, nPS)
		q := ra.MustParse("select PS.partkey, PS.supplycost from PARTSUPP PS where PS.suppkey = 11", db)
		info, err := c.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		_, m, err := RunKBA(info, bv, 4)
		if err != nil {
			t.Fatal(err)
		}
		return m.ShuffleBytes
	}
	small := shuffleAt(200)
	big := shuffleAt(3200)
	// The block for supplier 11 grows slightly with data; allow 4x slack but
	// reject the ~16x growth a scan-based plan would show.
	if big > small*4+1024 {
		t.Fatalf("bounded query shuffle grew with |D|: %d -> %d", small, big)
	}
}

// TestParallelScalability: on a sufficiently large non-scan-free workload,
// adding workers must not slow execution down dramatically (Theorem 8's
// practical reading; exact speedups depend on the host).
func TestParallelScalability(t *testing.T) {
	db, tv, _, _ := fixture(t, 5, 100, 12000)
	q := ra.MustParse(testQueries[7], db)
	_, m1, err := RunTaaV(q, tv, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, m8, err := RunTaaV(q, tv, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m8.Wall > m1.Wall*3 {
		t.Fatalf("8 workers much slower than 1: %v vs %v", m8.Wall, m1.Wall)
	}
}

func TestRunKBAEmptyPlan(t *testing.T) {
	db, _, bv, c := fixture(t, 6, 10, 50)
	q := ra.MustParse("select S.suppkey from SUPPLIER S where S.nationkey = 1 and S.nationkey = 2", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, m, err := RunKBA(info, bv, 4)
	if err != nil || len(res.Rows) != 0 || m.Workers != 4 {
		t.Fatalf("empty plan: %v %v %v", res, m, err)
	}
}

// TestFetchAllDifferential: the Section 7.1 strawman answers every query
// identically to the interleaved executor — it only costs more.
func TestFetchAllDifferential(t *testing.T) {
	db, _, bv, c := fixture(t, 9, 40, 400)
	for _, src := range testQueries {
		q := ra.MustParse(src, db)
		info, err := c.Plan(q)
		if err != nil {
			t.Fatalf("plan %q: %v", src, err)
		}
		want, err := ra.Evaluate(q, db)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := RunKBAFetchAll(info, bv, 4)
		if err != nil {
			t.Fatalf("fetch-all %q: %v", src, err)
		}
		if !got.Equal(want) {
			t.Fatalf("fetch-all differs for %q", src)
		}
	}
}

// TestInterleavedBeatsFetchAllOnAccess: for a scan-free query the
// interleaved executor touches less data than the strawman.
func TestInterleavedBeatsFetchAllOnAccess(t *testing.T) {
	db, _, bv, c := fixture(t, 10, 60, 1200)
	q := ra.MustParse(testQueries[0], db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	_, mi, err := RunKBA(info, bv, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, mf, err := RunKBAFetchAll(info, bv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mi.DataValues >= mf.DataValues {
		t.Fatalf("interleaved %d !< fetch-all %d data values", mi.DataValues, mf.DataValues)
	}
	// The empty plan path works too.
	empty := ra.MustParse("select S.suppkey from SUPPLIER S where S.nationkey = 1 and S.nationkey = 2", db)
	infoEmpty, err := c.Plan(empty)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunKBAFetchAll(infoEmpty, bv, 4)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("empty fetch-all: %v %v", res, err)
	}
}
