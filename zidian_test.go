package zidian

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// facadeDB builds the paper's Example 1 database through the public API.
func facadeDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	nation := NewRelation(MustRelSchema("NATION",
		[]Attr{{Name: "nationkey", Kind: KindInt}, {Name: "name", Kind: KindString}},
		[]string{"nationkey"}))
	nation.MustInsert(Tuple{Int(1), String("GERMANY")})
	nation.MustInsert(Tuple{Int(2), String("FRANCE")})
	db.Add(nation)
	supplier := NewRelation(MustRelSchema("SUPPLIER",
		[]Attr{{Name: "suppkey", Kind: KindInt}, {Name: "nationkey", Kind: KindInt}},
		[]string{"suppkey"}))
	supplier.MustInsert(Tuple{Int(10), Int(1)})
	supplier.MustInsert(Tuple{Int(11), Int(1)})
	supplier.MustInsert(Tuple{Int(12), Int(2)})
	db.Add(supplier)
	return db
}

func facadeInstance(t *testing.T) *Instance {
	t.Helper()
	db := facadeDB(t)
	schema, err := NewBaaVSchema(db,
		KVSchema{Name: "nation_by_name", Rel: "NATION", Key: []string{"name"}, Val: []string{"nationkey"}},
		KVSchema{Name: "supplier_by_nation", Rel: "SUPPLIER", Key: []string{"nationkey"}, Val: []string{"suppkey"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Open(db, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestFacadeQuery(t *testing.T) {
	inst := facadeInstance(t)
	res, stats, err := inst.Query(
		"select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'GERMANY'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !stats.ScanFree || !stats.Bounded {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Gets == 0 || stats.Plan == "" {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestFacadeExplain(t *testing.T) {
	inst := facadeInstance(t)
	plan, err := inst.Explain(
		"select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'GERMANY'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "scan-free") || !strings.Contains(plan, "∝") {
		t.Fatalf("explain = %s", plan)
	}
	plan, err = inst.Explain("select S.suppkey from SUPPLIER S")
	if err != nil || !strings.Contains(plan, "not scan-free") {
		t.Fatalf("explain = %s err=%v", plan, err)
	}
	plan, err = inst.Explain("select S.suppkey from SUPPLIER S where S.nationkey = 1 and S.nationkey = 2")
	if err != nil || !strings.Contains(plan, "empty") {
		t.Fatalf("explain = %s err=%v", plan, err)
	}
	if _, err := inst.Explain("not sql"); err == nil {
		t.Fatal("bad SQL must error")
	}
}

func TestFacadeMaintenance(t *testing.T) {
	inst := facadeInstance(t)
	if err := inst.Insert("SUPPLIER", Tuple{Int(13), Int(1)}); err != nil {
		t.Fatal(err)
	}
	res, _, err := inst.Query(
		"select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'GERMANY'")
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("after insert: %v %v", res, err)
	}
	if err := inst.Delete("SUPPLIER", Tuple{Int(13), Int(1)}); err != nil {
		t.Fatal(err)
	}
	res, _, _ = inst.Query(
		"select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'GERMANY'")
	if len(res.Rows) != 2 {
		t.Fatalf("after delete: %v", res.Rows)
	}
	if err := inst.Insert("NOPE", Tuple{}); err == nil {
		t.Fatal("unknown relation")
	}
	if err := inst.Delete("NOPE", Tuple{}); err == nil {
		t.Fatal("unknown relation")
	}
	// Deleting a missing tuple is a no-op.
	if err := inst.Delete("SUPPLIER", Tuple{Int(99), Int(9)}); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteDuplicateCopies: in a relation without a key, Delete removes
// one copy of a tuple the relation holds twice, while a WHERE delete removes
// every tuple it matches; the store answers the same as the relation.
func TestDeleteDuplicateCopies(t *testing.T) {
	db := NewDatabase()
	log := NewRelation(MustRelSchema("LOG",
		[]Attr{{Name: "tag", Kind: KindString}, {Name: "n", Kind: KindInt}}, nil))
	for _, row := range []Tuple{{String("a"), Int(1)}, {String("a"), Int(1)}, {String("a"), Int(2)}, {String("b"), Int(1)}} {
		log.MustInsert(row)
	}
	db.Add(log)
	schema, err := NewBaaVSchema(db, KVSchema{Name: "log_by_tag", Rel: "LOG", Key: []string{"tag"}, Val: []string{"n"}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Open(db, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := func() []string {
		t.Helper()
		res, _, err := inst.Query("select L.n from LOG L where L.tag = 'a'")
		if err != nil {
			t.Fatal(err)
		}
		return sortedRows(res)
	}
	if got, want := rows(), []string{"(1)", "(1)", "(2)"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded: %v, want %v", got, want)
	}
	if err := inst.Delete("LOG", Tuple{String("a"), Int(1)}); err != nil {
		t.Fatal(err)
	}
	if got, want := rows(), []string{"(1)", "(2)"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Delete: %v, want %v", got, want)
	}
	if n := len(db.Relation("LOG").Tuples); n != 3 {
		t.Fatalf("after Delete the relation holds %d tuples, want 3", n)
	}
	res, err := inst.Exec("delete from LOG where tag = 'a'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Fatalf("WHERE delete affected %d, want 2", res.Affected)
	}
	if got := rows(); len(got) != 0 {
		t.Fatalf("after WHERE delete: %v, want none", got)
	}
	if n := len(db.Relation("LOG").Tuples); n != 1 {
		t.Fatalf("after WHERE delete the relation holds %d tuples, want 1", n)
	}
}

func TestFacadeDataPreserving(t *testing.T) {
	inst := facadeInstance(t)
	ok, missing := inst.DataPreserving()
	if !ok || len(missing) != 0 {
		t.Fatalf("ok=%v missing=%v", ok, missing)
	}
	sf, err := inst.ScanFree("select N.nationkey from NATION N where N.name = 'FRANCE'")
	if err != nil || !sf {
		t.Fatalf("scan free = %v err=%v", sf, err)
	}
	if _, err := inst.ScanFree("nonsense"); err == nil {
		t.Fatal("bad SQL must error")
	}
}

func TestFacadeDesignSchema(t *testing.T) {
	db := facadeDB(t)
	schema, report, err := DesignSchema(db, []string{
		"select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'GERMANY'",
	}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if report.FinalKVs == 0 {
		t.Fatalf("report = %+v", report)
	}
	inst, err := Open(db, schema, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := inst.Query(
		"select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'GERMANY'")
	if err != nil || len(res.Rows) != 2 || !stats.ScanFree {
		t.Fatalf("designed schema: %v %+v %v", res, stats, err)
	}
	if _, _, err := DesignSchema(db, []string{"bad sql"}, 0, false); err == nil {
		t.Fatal("bad workload SQL must error")
	}
}

func TestFacadeStoreAccess(t *testing.T) {
	inst := facadeInstance(t)
	if inst.Store() == nil {
		t.Fatal("store must be exposed")
	}
	if inst.Store().Degree("supplier_by_nation") != 2 {
		t.Fatalf("degree = %d", inst.Store().Degree("supplier_by_nation"))
	}
}

func TestFacadeExec(t *testing.T) {
	inst := facadeInstance(t)
	// INSERT through SQL.
	res, err := inst.Exec("insert into SUPPLIER values (20, 1), (21, 2)")
	if err != nil || res.Affected != 2 {
		t.Fatalf("insert: %+v %v", res, err)
	}
	sel, err := inst.Exec(
		"select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'GERMANY'")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Result.Rows) != 3 || !sel.Stats.ScanFree {
		t.Fatalf("select after insert: %v", sel.Result.Rows)
	}
	// DELETE with predicates (qualified and bare columns both work).
	res, err = inst.Exec("delete from SUPPLIER where SUPPLIER.nationkey = 1 and suppkey >= 20")
	if err != nil || res.Affected != 1 {
		t.Fatalf("delete: %+v %v", res, err)
	}
	sel, _ = inst.Exec(
		"select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'GERMANY'")
	if len(sel.Result.Rows) != 2 {
		t.Fatalf("after delete: %v", sel.Result.Rows)
	}
	// Errors.
	for _, src := range []string{
		"delete from NOPE",
		"delete from SUPPLIER where bogus = 1",
		"delete from SUPPLIER where NATION.name = 'x'",
		"insert into NOPE values (1)",
		"not sql at all",
	} {
		if _, err := inst.Exec(src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestFacadePrepare(t *testing.T) {
	inst := facadeInstance(t)
	src := "select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'GERMANY'"
	p, err := inst.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.SQL() != src || !p.ScanFree() || !strings.Contains(p.Plan(), "∝") {
		t.Fatalf("prepared = %q scanfree=%v plan=%q", p.SQL(), p.ScanFree(), p.Plan())
	}
	// A prepared statement is reusable and must agree with Query every time.
	want, _, err := inst.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, stats, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(want) {
			t.Fatalf("run %d: %v != %v", i, res.Rows, want.Rows)
		}
		if !stats.ScanFree || stats.Gets == 0 {
			t.Fatalf("run %d stats = %+v", i, stats)
		}
	}
	if _, err := inst.Prepare("select nothing from NOWHERE"); err == nil {
		t.Fatal("expected error preparing over unknown relation")
	}
}

// TestFacadePrepareConcurrent runs one compiled plan from many goroutines;
// under -race this checks the plan-reuse path the serving layer depends on.
func TestFacadePrepareConcurrent(t *testing.T) {
	inst := facadeInstance(t)
	p, err := inst.Prepare(
		"select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'GERMANY'")
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				res, _, err := p.Run()
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 2 {
					errs <- fmt.Errorf("rows = %v", res.Rows)
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// indexInstance builds an instance big enough that the cost model prefers
// the index over the scan: 400 vehicles across 20 makes, stored only under
// a primary-key KV schema so a make predicate has no keyed access path.
func indexInstance(t *testing.T) *Instance {
	t.Helper()
	db := NewDatabase()
	vehicle := NewRelation(MustRelSchema("VEHICLE",
		[]Attr{
			{Name: "vehicle_id", Kind: KindInt},
			{Name: "make", Kind: KindString},
			{Name: "model", Kind: KindString},
			{Name: "year", Kind: KindInt},
		},
		[]string{"vehicle_id"}))
	for i := 0; i < 400; i++ {
		vehicle.MustInsert(Tuple{
			Int(int64(i)),
			String(fmt.Sprintf("MAKE-%02d", i%20)),
			String(fmt.Sprintf("MODEL-%03d", i%37)),
			Int(int64(2000 + i%20)),
		})
	}
	db.Add(vehicle)
	schema, err := NewBaaVSchema(db, KVSchema{
		Name: "vehicle_full", Rel: "VEHICLE",
		Key: []string{"vehicle_id"}, Val: []string{"make", "model", "year"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Open(db, schema, Options{Nodes: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func sortedRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestFacadeSecondaryIndex walks the whole index lifecycle through SQL:
// scan plan before DDL, a ∝ over the index after, bit-for-bit identical
// answers under insert/delete churn, and the scan plan again after DROP.
func TestFacadeSecondaryIndex(t *testing.T) {
	inst := indexInstance(t)
	const q = "select V.vehicle_id, V.model from VEHICLE V where V.make = 'MAKE-07'"

	plan, err := inst.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "ix_make") {
		t.Fatalf("index lookup before CREATE INDEX: %s", plan)
	}
	scanRes, scanStats, err := inst.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if scanStats.ScanFree || len(scanRes.Rows) != 20 {
		t.Fatalf("scan baseline: %d rows, scanFree=%v", len(scanRes.Rows), scanStats.ScanFree)
	}

	res, err := inst.Exec("create index ix_make on VEHICLE(make)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.SchemaChanged || res.Affected != 400 {
		t.Fatalf("create index result: %+v", res)
	}
	if inst.SchemaEpoch() != 1 {
		t.Fatalf("epoch = %d after one DDL", inst.SchemaEpoch())
	}
	if names := inst.IndexNames(); len(names) != 1 || names[0] != "ix_make" {
		t.Fatalf("IndexNames = %v", names)
	}
	if st, ok := inst.IndexStats("ix_make"); !ok || st.Entries != 20 || st.Postings != 400 {
		t.Fatalf("IndexStats = %+v %v", st, ok)
	}

	plan, err = inst.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(plan, "[scan-free, bounded] ") || !strings.Contains(plan, "∝ ix_make on") || strings.Contains(plan, "⋈") {
		t.Fatalf("post-DDL plan: %s", plan)
	}
	idxRes, idxStats, err := inst.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !idxStats.ScanFree {
		t.Fatalf("index plan not scan-free: %+v", idxStats)
	}
	if got, want := sortedRows(idxRes), sortedRows(scanRes); !reflect.DeepEqual(got, want) {
		t.Fatalf("index answer diverges:\n got %v\nwant %v", got, want)
	}

	// Churn: inserts and deletes must keep index and scan answers in
	// lockstep (the index is dropped and recreated to obtain the scan
	// reference at each step — its absence forces the scan plan).
	if _, err := inst.Exec("insert into VEHICLE values (900, 'MAKE-07', 'MODEL-900', 2024), (901, 'MAKE-07', 'MODEL-901', 2025), (902, 'MAKE-01', 'MODEL-902', 2025)"); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Exec("delete from VEHICLE where vehicle_id = 7"); err != nil {
		t.Fatal(err)
	}
	idxRes, _, err = inst.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Exec("drop index ix_make"); err != nil {
		t.Fatal(err)
	}
	scanRes, scanStats, err = inst.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if scanStats.ScanFree {
		t.Fatal("scan reference unexpectedly scan-free after DROP INDEX")
	}
	if len(scanRes.Rows) != 21 { // 20 - 1 deleted + 2 inserted
		t.Fatalf("churned rows = %d", len(scanRes.Rows))
	}
	if got, want := sortedRows(idxRes), sortedRows(scanRes); !reflect.DeepEqual(got, want) {
		t.Fatalf("index answer diverges under churn:\n got %v\nwant %v", got, want)
	}
	if inst.SchemaEpoch() != 2 {
		t.Fatalf("epoch = %d after two DDLs", inst.SchemaEpoch())
	}

	// DDL error paths.
	for _, src := range []string{
		"create index ix2 on NOPE(make)",
		"create index ix2 on VEHICLE(nope)",
		"drop index ix_make", // already dropped
	} {
		if _, err := inst.Exec(src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

// TestFacadeExplainStatement: EXPLAIN <select> through Exec returns the
// plan as a one-row result.
func TestFacadeExplainStatement(t *testing.T) {
	inst := indexInstance(t)
	if _, err := inst.Exec("create index ix_make on VEHICLE(make)"); err != nil {
		t.Fatal(err)
	}
	res, err := inst.Exec("EXPLAIN select V.vehicle_id from VEHICLE V where V.make = 'MAKE-03'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Result == nil || len(res.Result.Rows) != 1 || len(res.Result.Cols) != 1 {
		t.Fatalf("explain result = %+v", res)
	}
	if plan := res.Result.Rows[0][0].Str; !strings.Contains(plan, "∝ ix_make on") {
		t.Fatalf("explain plan = %q", plan)
	}
}

// TestFacadePreparedEpoch: a Prepared records its compilation epoch and
// keeps executing after DDL (the plan stays valid when its access paths
// survive), while the epoch mismatch signals that recompilation would help.
func TestFacadePreparedEpoch(t *testing.T) {
	inst := indexInstance(t)
	const q = "select V.vehicle_id, V.model from VEHICLE V where V.make = 'MAKE-05'"
	p, err := inst.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Epoch() != inst.SchemaEpoch() {
		t.Fatalf("fresh statement epoch %d != instance %d", p.Epoch(), inst.SchemaEpoch())
	}
	if _, err := inst.Exec("create index ix_make on VEHICLE(make)"); err != nil {
		t.Fatal(err)
	}
	if p.Epoch() == inst.SchemaEpoch() {
		t.Fatal("DDL did not advance the instance epoch past the statement's")
	}
	// The stale scan plan still answers correctly.
	res, _, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := inst.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := p2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(res), sortedRows(res2)) {
		t.Fatal("stale and fresh plans disagree")
	}
	if !p2.ScanFree() || !strings.Contains(p2.Plan(), "∝ ix_make on") {
		t.Fatalf("recompiled plan = %s", p2.Plan())
	}
	// A plan whose index is dropped must fail loudly, not silently return
	// wrong answers — the serving layer recompiles on epoch mismatch.
	if _, err := inst.Exec("drop index ix_make"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p2.Run(); err == nil {
		t.Fatal("plan over a dropped index ran without error")
	}
}
