package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/kba"
	"zidian/internal/kv"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/workload"
)

// splitFixture builds a database whose BaaV schema forces multi-step atom
// assembly: PRODUCT is split into a category index (without name/price) and
// a pk-keyed full schema, as in the quickstart example.
func splitFixture(t *testing.T) (*relation.Database, *baav.Store, *Checker) {
	t.Helper()
	db := relation.NewDatabase()
	prod := relation.NewRelation(relation.MustSchema("PRODUCT",
		[]relation.Attr{
			{Name: "product_id", Kind: relation.KindInt},
			{Name: "category", Kind: relation.KindString},
			{Name: "name", Kind: relation.KindString},
			{Name: "price", Kind: relation.KindFloat},
		}, []string{"product_id"}))
	for i := 0; i < 120; i++ {
		cat := []string{"books", "games", "tools"}[i%3]
		prod.MustInsert(relation.Tuple{
			relation.Int(int64(i)), relation.String(cat),
			relation.String(cat + "-item"), relation.Float(float64(i % 40)),
		})
	}
	db.Add(prod)
	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "prod_by_cat", Rel: "PRODUCT", Key: []string{"category"}, Val: []string{"product_id"}},
		baav.KVSchema{Name: "prod_full", Rel: "PRODUCT", Key: []string{"product_id"}, Val: []string{"category", "name", "price"}},
		// prod_cat_price serves category-grouped aggregates from statistics.
		baav.KVSchema{Name: "prod_cat_price", Rel: "PRODUCT", Key: []string{"category"}, Val: []string{"price"}},
	)
	store, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 2), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db, store, NewChecker(schema, baav.RelSchemas(db)).WithStats(store)
}

// TestPlanMultiStepAnchor verifies the pk-refinement chain: category index
// first, then the pk-keyed full schema, with no scan.
func TestPlanMultiStepAnchor(t *testing.T) {
	db, store, c := splitFixture(t)
	q := ra.MustParse("select P.name, P.price from PRODUCT P where P.category = 'books'", db)
	if !c.ScanFree(q) {
		t.Fatal("Condition (III) holds via the pk-based closure")
	}
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ScanFree {
		t.Fatalf("plan must be scan-free: %s", info.Root)
	}
	if len(info.Extends) != 2 {
		t.Fatalf("expected a 2-step chain, got extends %v", info.Extends)
	}
	got, _, err := Answer(info, store)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ra.Evaluate(q, db)
	if !got.Equal(want) {
		t.Fatalf("multi-step answer differs: %d vs %d rows", len(got.Rows), len(want.Rows))
	}
}

// TestPlanPartialWithoutPkFallsBack: a category index that does not carry
// the primary key cannot start a multi-step assembly — its derived keys
// (names) are not verified tuple projections, and joining on a non-key
// attribute would inflate multiplicities (40 identically named products
// here). The planner must fall back to a scan, and the answer must still be
// exactly right.
func TestPlanPartialWithoutPkFallsBack(t *testing.T) {
	db, _, _ := splitFixture(t)
	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "prod_by_cat2", Rel: "PRODUCT", Key: []string{"category"}, Val: []string{"name"}},
		baav.KVSchema{Name: "prod_by_name", Rel: "PRODUCT", Key: []string{"name"}, Val: []string{"price", "product_id", "category"}},
	)
	store, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 2), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(schema, baav.RelSchemas(db)).WithStats(store)
	q := ra.MustParse("select P.name, P.price from PRODUCT P where P.category = 'books'", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if info.ScanFree {
		t.Fatalf("plan must fall back to a scan: %s", info.Root)
	}
	got, _, err := Answer(info, store)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ra.Evaluate(q, db)
	if !got.Equal(want) {
		t.Fatalf("answer differs (%d vs %d rows): plan %s", len(got.Rows), len(want.Rows), info.Root)
	}
}

func TestPlanStatsAggSelection(t *testing.T) {
	db, store, c := splitFixture(t)
	q := ra.MustParse("select P.category, COUNT(*), AVG(P.price) from PRODUCT P group by P.category", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !info.UsedStats {
		t.Fatalf("expected statistics pushdown, got %s", info.Root)
	}
	if !strings.Contains(info.Root.String(), "γstats") {
		t.Fatalf("plan = %s", info.Root)
	}
	got, stats, err := Answer(info, store)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ra.Evaluate(q, db)
	if !got.Equal(want) {
		t.Fatalf("stats answer differs:\n got %v\nwant %v", got.Rows, want.Rows)
	}
	if stats.DataValues != 0 {
		t.Fatalf("stats plan must not decode tuple data, counted %d", stats.DataValues)
	}

	// Predicates disable the pushdown.
	q2 := ra.MustParse("select P.category, COUNT(*) from PRODUCT P where P.price > 10 group by P.category", db)
	info2, err := c.Plan(q2)
	if err != nil {
		t.Fatal(err)
	}
	if info2.UsedStats {
		t.Fatal("filters must disable the statistics pushdown")
	}
	// Non-numeric aggregate attributes disable it too.
	q3 := ra.MustParse("select P.category, MIN(P.name) from PRODUCT P group by P.category", db)
	info3, err := c.Plan(q3)
	if err != nil {
		t.Fatal(err)
	}
	if info3.UsedStats {
		t.Fatal("string aggregates cannot come from numeric statistics")
	}
	// Stores without statistics disable it.
	optsNoStats := baav.DefaultOptions()
	optsNoStats.Stats = false
	store2, err := baav.Map(db, c.Schema, kv.NewCluster(kv.EngineHash, 2), optsNoStats)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewChecker(c.Schema, c.Rels).WithStats(store2)
	info4, err := c2.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if info4.UsedStats {
		t.Fatal("pushdown requires statistics in the store")
	}

	// Over the MOT and TPC-H schemas: any subset of a KV schema's key
	// attributes — a prefix, a later attribute alone, the whole key in
	// either order — selects the header walk; a group attribute outside
	// every key, a predicate or a string aggregate declines it. Every answer
	// is ra.Eval's, value for value and kind for kind.
	for _, c := range []struct {
		workload, sql string
		stats         bool
	}{
		{"mot", "select V.make, COUNT(*) from VEHICLE V group by V.make", true},
		{"mot", "select V.model, COUNT(*), MIN(V.year), MAX(V.year) from VEHICLE V group by V.model", true},
		{"mot", "select V.make, V.model, MAX(V.year), SUM(V.year), COUNT(*) from VEHICLE V group by V.make, V.model", true},
		{"mot", "select V.model, V.make, AVG(V.year) from VEHICLE V group by V.model, V.make", true},
		{"mot", "select O.region, COUNT(*), SUM(O.speed) from OBSERVATION O group by O.region order by O.region limit 3", true},
		{"mot", "select V.color, COUNT(*) from VEHICLE V group by V.color", false},
		{"mot", "select V.make, V.fuel, COUNT(*) from VEHICLE V group by V.make, V.fuel", false},
		{"mot", "select V.make, COUNT(*) from VEHICLE V where V.year > 2000 group by V.make", false},
		{"mot", "select V.make, MIN(V.fuel) from VEHICLE V group by V.make", false},
		{"tpch", "select PS.suppkey, SUM(PS.availqty), MIN(PS.supplycost), COUNT(*) from PARTSUPP PS group by PS.suppkey", true},
		{"tpch", "select L.shipmode, MIN(L.orderkey), SUM(L.extendedprice), COUNT(*) from LINEITEM L group by L.shipmode", true},
		{"tpch", "select L.returnflag, COUNT(*) from LINEITEM L group by L.returnflag", false},
	} {
		w, err := workload.Generate(c.workload, workload.Spec{Scale: 0.1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		store, err := baav.Map(w.DB, w.Schema, kv.NewCluster(kv.EngineHash, 2), baav.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		q := ra.MustParse(c.sql, w.DB)
		info, err := NewChecker(w.Schema, baav.RelSchemas(w.DB)).WithStats(store).Plan(q)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		if info.UsedStats != c.stats {
			t.Fatalf("%q: statistics plan %v, want %v: %s", c.sql, info.UsedStats, c.stats, info.Root)
		}
		got, _, err := Answer(info, store)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		want, _ := ra.Evaluate(q, w.DB)
		if !got.Equal(want) || !sameKinds(got, want) {
			t.Fatalf("%q answers\n%v\nra.Eval answers\n%v", c.sql, got.Rows, want.Rows)
		}
	}
}

// sameKinds reports whether two answers of equal rows hold, row for row in
// sorted order, values of the same kinds.
func sameKinds(a, b *ra.Result) bool {
	a, b = &ra.Result{Rows: slices.Clone(a.Rows)}, &ra.Result{Rows: slices.Clone(b.Rows)}
	a.Sort()
	b.Sort()
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j].Kind != b.Rows[i][j].Kind {
				return false
			}
		}
	}
	return true
}

// TestCostBasedScanVsProbe: with statistics, probing a small instance from a
// large scanned fragment is rejected in favour of scanning it.
func TestCostBasedScanVsProbe(t *testing.T) {
	db := relation.NewDatabase()
	big := relation.NewRelation(relation.MustSchema("EVENTS",
		[]relation.Attr{{Name: "event_id", Kind: relation.KindInt}, {Name: "dim_id", Kind: relation.KindInt}},
		[]string{"event_id"}))
	for i := 0; i < 4000; i++ {
		big.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 20))})
	}
	db.Add(big)
	dim := relation.NewRelation(relation.MustSchema("DIM",
		[]relation.Attr{{Name: "dim_id", Kind: relation.KindInt}, {Name: "label", Kind: relation.KindString}},
		[]string{"dim_id"}))
	for i := 0; i < 20; i++ {
		dim.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.String("L")})
	}
	db.Add(dim)
	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "events_full", Rel: "EVENTS", Key: []string{"event_id"}, Val: []string{"dim_id"}},
		baav.KVSchema{Name: "dim_full", Rel: "DIM", Key: []string{"dim_id"}, Val: []string{"label"}},
	)
	store, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 2), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := ra.MustParse("select D.label, COUNT(*) from EVENTS E, DIM D where E.dim_id = D.dim_id group by D.label", db)

	// Without stats the planner keeps the chase behaviour (probe).
	noStats := NewChecker(schema, baav.RelSchemas(db))
	infoProbe, err := noStats.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(infoProbe.Extends) == 0 {
		t.Fatalf("expected a probe without statistics: %s", infoProbe.Root)
	}
	// With stats, DIM (20 blocks) is scanned instead of probed from the
	// 4000-row scan fragment... wait: 20 blocks <= 4*4000, so scanning wins.
	withStats := NewChecker(schema, baav.RelSchemas(db)).WithStats(store)
	infoScan, err := withStats.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(infoScan.Scans) < 2 {
		t.Fatalf("expected DIM to be scanned under the cost model: %s", infoScan.Root)
	}
	// Both answer identically.
	a1, _, err := Answer(infoProbe, store)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := Answer(infoScan, store)
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Equal(a2) {
		t.Fatal("probe and scan plans must agree")
	}
}

// TestRandomizedDifferential drives randomly generated conjunctive queries
// through plan generation and the executor at one and at several workers,
// comparing against the reference evaluator.
func TestRandomizedDifferential(t *testing.T) {
	db, store, c := fixture(t, 42)
	r := rand.New(rand.NewSource(123))
	aliases := []struct{ rel, alias string }{
		{"NATION", "N"}, {"SUPPLIER", "S"}, {"PARTSUPP", "PS"}, {"PARTSUPP", "PS2"},
	}
	joinable := map[string][]string{
		"N":   {"nationkey"},
		"S":   {"nationkey", "suppkey"},
		"PS":  {"suppkey", "partkey", "supplycost", "availqty"},
		"PS2": {"suppkey", "partkey", "supplycost", "availqty"},
	}
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(3)
		chosen := make([]struct{ rel, alias string }, 0, n)
		seen := map[string]bool{}
		for len(chosen) < n {
			a := aliases[r.Intn(len(aliases))]
			if !seen[a.alias] {
				seen[a.alias] = true
				chosen = append(chosen, a)
			}
		}
		var fromParts, preds, projs []string
		for _, a := range chosen {
			fromParts = append(fromParts, a.rel+" "+a.alias)
		}
		// Join consecutive atoms on a shared attribute name when possible.
		for i := 1; i < len(chosen); i++ {
			l, rr := chosen[i-1], chosen[i]
			for _, la := range joinable[l.alias] {
				match := false
				for _, ra2 := range joinable[rr.alias] {
					if la == ra2 {
						preds = append(preds, l.alias+"."+la+" = "+rr.alias+"."+la)
						match = true
						break
					}
				}
				if match {
					break
				}
			}
		}
		// Constant predicate on a random atom.
		a := chosen[r.Intn(len(chosen))]
		switch a.alias {
		case "N":
			preds = append(preds, "N.name = 'GERMANY'")
		case "S":
			preds = append(preds, "S.nationkey = 2")
		default:
			preds = append(preds, a.alias+".suppkey = "+[]string{"3", "7", "11"}[r.Intn(3)])
		}
		// Projection: one attribute per atom.
		for _, a := range chosen {
			attrs := joinable[a.alias]
			projs = append(projs, a.alias+"."+attrs[r.Intn(len(attrs))])
		}
		src := "select " + strings.Join(projs, ", ") + " from " + strings.Join(fromParts, ", ") +
			" where " + strings.Join(preds, " and ")
		q, err := ra.Parse(src, db)
		if err != nil {
			t.Fatalf("generated bad SQL %q: %v", src, err)
		}
		want, err := ra.Evaluate(q, db)
		if err != nil {
			t.Fatalf("reference %q: %v", src, err)
		}
		info, err := c.Plan(q)
		if err != nil {
			t.Fatalf("plan %q: %v", src, err)
		}
		got, _, err := Answer(info, store)
		if err != nil {
			t.Fatalf("answer %q: %v", src, err)
		}
		if !got.Equal(want) {
			t.Fatalf("differential mismatch (%d vs %d rows) for %q\nplan %s",
				len(got.Rows), len(want.Rows), src, info.Root)
		}
		if info.Empty {
			continue
		}
		out, _, err := kba.Run(info.Root, store, 4, nil)
		if err != nil {
			t.Fatalf("four workers %q: %v", src, err)
		}
		if got, err = info.ToResult(out); err != nil || !got.Equal(want) {
			t.Fatalf("differential mismatch at four workers for %q (%v)\nplan %s", src, err, info.Root)
		}
	}
}
