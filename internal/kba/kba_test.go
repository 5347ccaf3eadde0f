package kba

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/sql"
)

// fixture builds the paper's Example 1 database and BaaV schema:
//
//	~SUPPLIER⟨nationkey, suppkey⟩
//	~PARTSUPP⟨suppkey, (partkey, supplycost, availqty)⟩
//	~NATION⟨name, nationkey⟩
func fixture(t *testing.T) (*relation.Database, *baav.Store) {
	t.Helper()
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

	partsupp := relation.NewRelation(relation.MustSchema("PARTSUPP",
		[]relation.Attr{
			{Name: "partkey", Kind: relation.KindInt}, {Name: "suppkey", Kind: relation.KindInt},
			{Name: "supplycost", Kind: relation.KindInt}, {Name: "availqty", Kind: relation.KindInt},
		},
		[]string{"partkey", "suppkey"}))
	partsupp.MustInsert(relation.Tuple{relation.Int(100), relation.Int(10), relation.Int(5), relation.Int(1)})
	partsupp.MustInsert(relation.Tuple{relation.Int(101), relation.Int(10), relation.Int(7), relation.Int(2)})
	partsupp.MustInsert(relation.Tuple{relation.Int(100), relation.Int(11), relation.Int(3), relation.Int(3)})
	partsupp.MustInsert(relation.Tuple{relation.Int(100), relation.Int(12), relation.Int(9), relation.Int(4)})
	db.Add(partsupp)

	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "NATION_by_name", Rel: "NATION", Key: []string{"name"}, Val: []string{"nationkey"}},
		baav.KVSchema{Name: "SUPPLIER_by_nation", Rel: "SUPPLIER", Key: []string{"nationkey"}, Val: []string{"suppkey"}},
		baav.KVSchema{Name: "PARTSUPP_by_supp", Rel: "PARTSUPP", Key: []string{"suppkey"}, Val: []string{"partkey", "supplycost", "availqty"}},
		baav.KVSchema{Name: "PARTSUPP_by_part", Rel: "PARTSUPP", Key: []string{"partkey", "suppkey"}, Val: []string{"supplycost", "availqty"}},
	)
	store, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 3), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db, store
}

// paperPlan builds ξ1 of Example 3:
// group_by((("GERMANY" ∝ ~NATION) ∝ ~SUPPLIER) ∝ ~PARTSUPP, PS.suppkey, SUM(PS.supplycost)).
func paperPlan() Plan {
	seed := &Const{KeyAttrs: []string{"N.name"}, Keys: []relation.Tuple{{relation.String("GERMANY")}}}
	t1 := &Extend{Input: seed, KV: "NATION_by_name", Alias: "N", KeyFrom: []string{"N.name"}}
	t2 := &Extend{Input: t1, KV: "SUPPLIER_by_nation", Alias: "S", KeyFrom: []string{"N.nationkey"}}
	t3 := &Extend{Input: t2, KV: "PARTSUPP_by_supp", Alias: "PS", KeyFrom: []string{"S.suppkey"}}
	return &GroupBy{
		Input: t3,
		Keys:  []string{"S.suppkey"},
		Aggs:  []AggSpec{{Func: sql.AggSum, Attr: "PS.supplycost", Name: "total"}},
	}
}

// testWorkers are the worker counts every operator test runs at: one worker
// is sequential execution, the others partition the same operators.
var testWorkers = []int{1, 2, 4, 7}

// sorted returns the flattened rows of an executor output in canonical
// order, so assertions hold at every worker count.
func sorted(v *PartRel) []relation.Tuple {
	rows := v.Rows()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
	return rows
}

// multiset counts rows by content.
func multiset(rows []relation.Tuple) map[string]int {
	m := make(map[string]int)
	for _, r := range rows {
		m[relation.KeyString(r)]++
	}
	return m
}

func mustRun(t *testing.T, store *baav.Store, p Plan, workers int) (*PartRel, ExecStats) {
	t.Helper()
	out, stats, err := Run(p, store, workers, nil)
	if err != nil {
		t.Fatalf("p=%d: %v", workers, err)
	}
	if len(out.Parts) != workers {
		t.Fatalf("p=%d: output has %d partitions", workers, len(out.Parts))
	}
	return out, stats
}

func TestPaperQ1PlanScanFree(t *testing.T) {
	_, store := fixture(t)
	plan := paperPlan()
	if !IsScanFree(plan) {
		t.Fatal("ξ1 is scan-free")
	}
	if len(CollectScans(plan)) != 0 {
		t.Fatal("scan-free plan must scan nothing")
	}
	for _, p := range testWorkers {
		out, stats := mustRun(t, store, plan, p)
		rows := sorted(out)
		// Supplier 10: 5+7=12; supplier 11: 3.
		if len(rows) != 2 || rows[0][0].Int != 10 || rows[0][1].Int != 12 || rows[1][0].Int != 11 || rows[1][1].Int != 3 {
			t.Fatalf("p=%d: groups = %v", p, rows)
		}
		// Scan-free data access: one get per block (3 extends, 1+1+2
		// distinct keys), zero scans.
		if stats.ScanBlocks != 0 {
			t.Fatalf("p=%d: scan blocks = %d", p, stats.ScanBlocks)
		}
		if stats.Gets != 4 || stats.Blocks != 4 {
			t.Fatalf("p=%d: gets = %d, blocks = %d (want 4: germany, nation-1, supp-10, supp-11)", p, stats.Gets, stats.Blocks)
		}
		if stats.DataValues == 0 || stats.BytesRead == 0 {
			t.Fatalf("p=%d: stats must count fetched data", p)
		}
	}
}

func TestExtendDropsUnmatchedRows(t *testing.T) {
	_, store := fixture(t)
	seed := &Const{KeyAttrs: []string{"N.name"}, Keys: []relation.Tuple{
		{relation.String("GERMANY")}, {relation.String("ATLANTIS")},
	}}
	plan := &Extend{Input: seed, KV: "NATION_by_name", Alias: "N", KeyFrom: []string{"N.name"}}
	for _, p := range testWorkers {
		out, stats := mustRun(t, store, plan, p)
		if out.Len() != 1 {
			t.Fatalf("p=%d: rows = %d", p, out.Len())
		}
		if stats.Gets != 2 || stats.Blocks != 1 {
			t.Fatalf("p=%d: gets=%d blocks=%d", p, stats.Gets, stats.Blocks)
		}
	}
}

func TestExtendDeduplicatesGets(t *testing.T) {
	_, store := fixture(t)
	// Two constant rows with the same key: one get.
	seed := &Const{KeyAttrs: []string{"a", "N.name"}, Keys: []relation.Tuple{
		{relation.Int(1), relation.String("GERMANY")},
		{relation.Int(2), relation.String("GERMANY")},
	}}
	plan := &Extend{Input: seed, KV: "NATION_by_name", Alias: "N", KeyFrom: []string{"N.name"}}
	for _, p := range testWorkers {
		out, stats := mustRun(t, store, plan, p)
		if stats.Gets != 1 {
			t.Fatalf("p=%d: gets = %d, extend must dedup keys", p, stats.Gets)
		}
		if out.Len() != 2 {
			t.Fatalf("p=%d: both input rows must extend: %d", p, out.Len())
		}
	}
}

type unknownNode struct{}

func (*unknownNode) Children() []Plan { return nil }
func (*unknownNode) String() string   { return "?" }

// TestExecutorErrors triggers each executor error once: every cause has one
// spelling under the one kba: prefix, whatever the worker count.
func TestExecutorErrors(t *testing.T) {
	_, store := fixture(t)
	one := relation.Int(1)
	slot := Arg{IsSlot: true}
	seed := &Const{KeyAttrs: []string{"x"}, Keys: []relation.Tuple{{one}}}
	k := &Const{KeyAttrs: []string{"k"}, Keys: []relation.Tuple{{one}}}
	other := &Const{KeyAttrs: []string{"other"}, Keys: []relation.Tuple{{one}}}
	scanS := &ScanKV{KV: "SUPPLIER_by_nation", Alias: "S"}
	scanPS := &ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"}
	const unbound = "kba: plan template has unbound parameters (call Bind before executing)"
	const noIndex = `index: unknown index "ix"`
	const setOp = `kba: set operation over mismatched attributes: kba: attribute "k" not in [other]`
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"unbound const", &Const{KeyAttrs: []string{"x"}, Args: [][]Arg{{slot}}}, unbound},
		{"unbound range bound", &IndexRange{Index: "ix", ValAttr: "v", KeyAttrs: []string{"k"}, Lo: &slot}, unbound},
		{"unbound range limit", &IndexRange{Index: "ix", ValAttr: "v", KeyAttrs: []string{"k"}, Limit: &slot}, unbound},
		{"unknown KV schema in scan", &ScanKV{KV: "nope", Alias: "N"}, `kba: unknown KV schema "nope"`},
		{"unknown KV schema in extend", &Extend{Input: seed, KV: "nope", Alias: "N", KeyFrom: []string{"x"}}, `kba: unknown KV schema "nope"`},
		{"unknown KV schema in stats-agg", &StatsAgg{KV: "nope", Alias: "N"}, `kba: unknown KV schema "nope"`},
		{"unknown index for range", &IndexRange{Index: "ix", ValAttr: "v", KeyAttrs: []string{"k"}}, noIndex},
		{"extend key arity", &Extend{Input: seed, KV: "PARTSUPP_by_supp", Alias: "PS"}, "kba: extend on PARTSUPP_by_supp needs 1 key attributes, got []"},
		{"constant key arity", &Const{KeyAttrs: []string{"a", "b"}, Keys: []relation.Tuple{{one}}}, "kba: constant key (1) does not match attrs [a b]"},
		{"extend key attribute", &Extend{Input: seed, KV: "NATION_by_name", Alias: "N", KeyFrom: []string{"zz"}}, `kba: attribute "zz" not in [x]`},
		{"shift key attribute", &Shift{Input: seed, NewKey: []string{"zz"}}, `kba: attribute "zz" not in [x]`},
		{"join lists differ", &Join{L: scanS, R: scanPS, LOn: []string{"S.suppkey"}}, "kba: join attribute lists differ in length"},
		{"union over mismatched attributes", &Union{L: k, R: other}, setOp},
		{"diff over mismatched attributes", &Diff{L: k, R: other}, setOp},
		{"predicate attribute", &Select{Input: seed, Preds: []Pred{{Attr: "zzz", Op: sql.OpEq, Lit: &one}}}, `kba: predicate attribute "zzz" not in [x]`},
		{"unknown plan node", &unknownNode{}, "kba: unknown plan node *kba.unknownNode"},
	}
	for _, c := range cases {
		for _, p := range []int{1, 4} {
			_, _, err := Run(c.plan, store, p, nil)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s at p=%d: error %v, want %q", c.name, p, err, c.want)
			}
		}
	}
}

func TestScanKV(t *testing.T) {
	_, store := fixture(t)
	for _, p := range testWorkers {
		out, stats := mustRun(t, store, &ScanKV{KV: "SUPPLIER_by_nation", Alias: "S"}, p)
		if out.Len() != 3 {
			t.Fatalf("p=%d: rows = %d", p, out.Len())
		}
		if !reflect.DeepEqual(out.Attrs, []string{"S.nationkey", "S.suppkey"}) {
			t.Fatalf("p=%d: attrs = %v", p, out.Attrs)
		}
		if stats.ScanBlocks != 2 || stats.DataValues == 0 || stats.BytesRead == 0 || stats.Gets != 0 {
			t.Fatalf("p=%d: stats = %+v", p, stats)
		}
	}
	if IsScanFree(&ScanKV{KV: "x", Alias: "a"}) {
		t.Fatal("ScanKV is not scan-free")
	}
}

func TestShiftPreservesRelationalVersion(t *testing.T) {
	_, store := fixture(t)
	scan := &ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"}
	for _, p := range testWorkers {
		shifted, _ := mustRun(t, store, &Shift{Input: scan, NewKey: []string{"PS.partkey"}}, p)
		base, _ := mustRun(t, store, scan, p)
		// Same relational version: same attributes, same row multiset.
		if !reflect.DeepEqual(shifted.Attrs, base.Attrs) {
			t.Fatalf("p=%d: shift changed attrs %v -> %v", p, base.Attrs, shifted.Attrs)
		}
		if !reflect.DeepEqual(multiset(shifted.Rows()), multiset(base.Rows())) {
			t.Fatalf("p=%d: shift changed the relational version", p)
		}
		// Re-keyed: rows agreeing on the new key share a worker.
		owner := make(map[int64]int)
		for w, part := range shifted.Parts {
			for _, row := range part {
				k := row[1].Int // PS.partkey
				if prev, ok := owner[k]; ok && prev != w {
					t.Fatalf("p=%d: partkey %d on workers %d and %d", p, k, prev, w)
				}
				owner[k] = w
			}
		}
		if len(owner) != 2 {
			t.Fatalf("p=%d: distinct partkeys = %d", p, len(owner))
		}
	}
}

func TestJoin(t *testing.T) {
	_, store := fixture(t)
	j := &Join{
		L:   &ScanKV{KV: "SUPPLIER_by_nation", Alias: "S"},
		R:   &ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"},
		LOn: []string{"S.suppkey"},
		ROn: []string{"PS.suppkey"},
	}
	for _, p := range testWorkers {
		out, _ := mustRun(t, store, j, p)
		if out.Len() != 4 {
			t.Fatalf("p=%d: rows = %d", p, out.Len())
		}
		if len(out.Attrs) != 2+4 {
			t.Fatalf("p=%d: attrs = %v", p, out.Attrs)
		}
		for _, row := range out.Rows() {
			if row[1].Int != row[2].Int { // S.suppkey = PS.suppkey
				t.Fatalf("p=%d: joined row %v violates the join condition", p, row)
			}
		}
	}
}

func TestSelectPredicates(t *testing.T) {
	_, store := fixture(t)
	scan := &ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"}
	five := relation.Int(5)
	sel := &Select{Input: scan, Preds: []Pred{
		{Attr: "PS.supplycost", Op: sql.OpGe, Lit: &five},
		{Attr: "PS.partkey", Op: sql.OpNe, RAttr: "PS.availqty"},
		{Attr: "PS.suppkey", In: []relation.Value{relation.Int(10), relation.Int(12)}},
	}}
	for _, p := range testWorkers {
		if out, _ := mustRun(t, store, sel, p); out.Len() != 3 {
			t.Fatalf("p=%d: rows = %d", p, out.Len())
		}
	}
}

func TestProject(t *testing.T) {
	_, store := fixture(t)
	plan := &Project{
		Input: &ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"},
		Attrs: []string{"PS.partkey", "PS.suppkey"},
	}
	want := map[string]int{}
	for _, ps := range [][2]int64{{100, 10}, {101, 10}, {100, 11}, {100, 12}} {
		want[relation.KeyString(relation.Tuple{relation.Int(ps[0]), relation.Int(ps[1])})]++
	}
	for _, p := range testWorkers {
		out, _ := mustRun(t, store, plan, p)
		if !reflect.DeepEqual(out.Attrs, plan.Attrs) || !reflect.DeepEqual(multiset(out.Rows()), want) {
			t.Fatalf("p=%d: projected %v: %v", p, out.Attrs, out.Rows())
		}
	}
}

func TestUnionAndDiff(t *testing.T) {
	_, store := fixture(t)
	a := &Const{KeyAttrs: []string{"k"}, Keys: []relation.Tuple{{relation.Int(1)}, {relation.Int(2)}, {relation.Int(2)}}}
	b := &Const{KeyAttrs: []string{"k"}, Keys: []relation.Tuple{{relation.Int(2)}, {relation.Int(3)}}}
	// The right side aligns to the left side's column order.
	xy := &Const{KeyAttrs: []string{"x", "y"}, Keys: []relation.Tuple{{relation.Int(1), relation.Int(2)}}}
	yx := &Const{KeyAttrs: []string{"y", "x"}, Keys: []relation.Tuple{{relation.Int(2), relation.Int(1)}, {relation.Int(1), relation.Int(2)}}}
	for _, p := range testWorkers {
		u, _ := mustRun(t, store, &Union{L: a, R: b}, p)
		if rows := sorted(u); len(rows) != 3 || rows[0][0].Int != 1 || rows[1][0].Int != 2 || rows[2][0].Int != 3 {
			t.Fatalf("p=%d: union = %v", p, rows)
		}
		d, _ := mustRun(t, store, &Diff{L: a, R: b}, p)
		if rows := d.Rows(); len(rows) != 1 || rows[0][0].Int != 1 {
			t.Fatalf("p=%d: diff = %v", p, rows)
		}
		if u, _ := mustRun(t, store, &Union{L: xy, R: yx}, p); u.Len() != 2 {
			t.Fatalf("p=%d: aligned union = %v", p, u.Rows())
		}
		if d, _ := mustRun(t, store, &Diff{L: xy, R: yx}, p); d.Len() != 0 {
			t.Fatalf("p=%d: aligned diff = %v", p, d.Rows())
		}
	}
}

func TestDistinct(t *testing.T) {
	_, store := fixture(t)
	// Project supplier block values onto nationkey only: duplicates appear.
	proj := &Project{Input: &ScanKV{KV: "SUPPLIER_by_nation", Alias: "S"}, Attrs: []string{"S.nationkey"}}
	for _, p := range testWorkers {
		if out, _ := mustRun(t, store, &Distinct{Input: proj}, p); out.Len() != 2 {
			t.Fatalf("p=%d: distinct rows = %d", p, out.Len())
		}
	}
}

func TestGroupByMatchesReference(t *testing.T) {
	db, store := fixture(t)
	q := ra.MustParse(`select PS.suppkey, SUM(PS.supplycost)
		from PARTSUPP as PS, SUPPLIER as S, NATION as N
		where PS.suppkey = S.suppkey and S.nationkey = N.nationkey and N.name = 'GERMANY'
		group by PS.suppkey`, db)
	want, err := ra.Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range testWorkers {
		out, _ := mustRun(t, store, paperPlan(), p)
		got := &ra.Result{Cols: want.Cols, Rows: out.Rows()}
		if !got.Equal(want) {
			t.Fatalf("p=%d: KBA plan answer %v != reference %v", p, got.Rows, want.Rows)
		}
	}
}

// sameRows reports whether two row sets, sorted, are equal value for value
// and kind for kind: no numeric tolerance, no int standing in for a float.
func sameRows(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].Kind != b[i][j].Kind || !relation.Equal(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestStatsAggMatchesGroupBy: the statistics header walk answers what γ over
// a scan of the same instance answers — the same groups, every aggregate the
// same value of the same kind (SUM, MIN and MAX of an int column are ints) —
// grouped by a one-attribute key, by both attributes of a two-attribute key,
// by either of them and by neither; and it decodes no value doing so.
func TestStatsAggMatchesGroupBy(t *testing.T) {
	_, store := fixture(t)
	aggs := []AggSpec{
		{Func: sql.AggCount, Star: true, Name: "cnt"},
		{Func: sql.AggSum, Attr: "PS.supplycost", Name: "sum"},
		{Func: sql.AggMin, Attr: "PS.supplycost", Name: "min"},
		{Func: sql.AggMax, Attr: "PS.availqty", Name: "max"},
		{Func: sql.AggAvg, Attr: "PS.supplycost", Name: "avg"},
	}
	for _, c := range []struct {
		kv   string
		keys []string
	}{
		{"PARTSUPP_by_supp", []string{"PS.suppkey"}},
		{"PARTSUPP_by_part", []string{"PS.partkey", "PS.suppkey"}},
		{"PARTSUPP_by_part", []string{"PS.partkey"}},
		{"PARTSUPP_by_part", []string{"PS.suppkey"}},
		{"PARTSUPP_by_part", nil},
	} {
		for _, p := range testWorkers {
			full, fullStats := mustRun(t, store, &GroupBy{Input: &ScanKV{KV: c.kv, Alias: "PS"}, Keys: c.keys, Aggs: aggs}, p)
			fast, fastStats := mustRun(t, store, &StatsAgg{KV: c.kv, Alias: "PS", Keys: c.keys, Aggs: aggs}, p)
			if !reflect.DeepEqual(fast.Attrs, full.Attrs) {
				t.Fatalf("%s by %v, p=%d: attrs %v vs %v", c.kv, c.keys, p, fast.Attrs, full.Attrs)
			}
			if got, want := sorted(fast), sorted(full); len(got) == 0 || !sameRows(got, want) {
				t.Fatalf("%s by %v, p=%d: header walk %v, γ over the scan %v", c.kv, c.keys, p, got, want)
			}
			if fastStats.DataValues != 0 || fastStats.ScanBlocks != fullStats.ScanBlocks {
				t.Fatalf("%s by %v, p=%d: header walk %+v, scan %+v", c.kv, c.keys, p, fastStats, fullStats)
			}
		}
	}
}

// TestStatsAggDecodesWhatHeadersCannotHold: where a block's header cannot
// stand in exactly for its tuples — an int column whose sum passes 2⁵³, a
// NULL in an int column — the walk decodes that block and folds its tuples,
// and the answer is ra.Eval's to the kind; the other blocks still answer
// from their headers.
func TestStatsAggDecodesWhatHeadersCannotHold(t *testing.T) {
	db := relation.NewDatabase()
	m := relation.NewRelation(relation.MustSchema("M", []relation.Attr{
		{Name: "id", Kind: relation.KindInt}, {Name: "g", Kind: relation.KindInt},
		{Name: "v", Kind: relation.KindInt}, {Name: "f", Kind: relation.KindFloat},
	}, []string{"id"}))
	for i, r := range [][3]relation.Value{
		{relation.Int(1), relation.Int(1 << 60), relation.Float(0.5)},
		{relation.Int(1), relation.Int(3), relation.Float(1.25)},
		{relation.Int(2), relation.Null(), relation.Float(2)},
		{relation.Int(2), relation.Int(5), relation.Float(-1)},
		{relation.Int(3), relation.Int(7), relation.Float(3)},
		{relation.Int(3), relation.Int(-9), relation.Float(3)},
	} {
		m.MustInsert(relation.Tuple{relation.Int(int64(i)), r[0], r[1], r[2]})
	}
	db.Add(m)
	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "M_by_g", Rel: "M", Key: []string{"g"}, Val: []string{"id", "v", "f"}})
	store, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 2), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := ra.MustParse(`select M.g, SUM(M.v), MIN(M.v), MAX(M.v), COUNT(M.v), AVG(M.v), SUM(M.f), MIN(M.f)
		from M group by M.g`, db)
	want, err := ra.Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	plan := &StatsAgg{KV: "M_by_g", Alias: "M", Keys: []string{"M.g"}}
	for i, a := range q.Aggs {
		plan.Aggs = append(plan.Aggs, AggSpec{Func: a.Func, Attr: "M." + a.Col.Attr, Name: fmt.Sprint("a", i)})
	}
	sort.Slice(want.Rows, func(i, j int) bool { return want.Rows[i].Compare(want.Rows[j]) < 0 })
	for _, p := range testWorkers {
		out, stats := mustRun(t, store, plan, p)
		if got := sorted(out); !sameRows(got, want.Rows) {
			t.Fatalf("p=%d: header walk %v, ra.Eval %v", p, got, want.Rows)
		}
		// Two of the three blocks decoded, three values a row.
		if stats.DataValues != 2*2*3 || stats.ScanBlocks != 3 {
			t.Fatalf("p=%d: stats %+v, want the two inexact blocks decoded", p, stats)
		}
	}
}

// TestFusedSelectProjectIsOneAfterAnother: every chain the executor peels —
// π(σ(p)), σ(p), γ(σ(p)) with its key in the block's lead and outside it,
// γ(p) and π(p) — over a ∝, a ⋈ and a scan p, with a σ that drops rows,
// answers partition for partition what p run alone and then the chain over
// its rows answers, with the same ExecStats, and traces the same spans with
// the same rows per worker — interleaved and fetch-all, at every worker
// count, over Example 1 and over blocks whose tuples repeat.
func TestFusedSelectProjectIsOneAfterAnother(t *testing.T) {
	_, paper := fixture(t)
	cars := carStore(t, 200)
	five, y1995 := relation.Int(5), relation.Int(1995)
	count := AggSpec{Func: sql.AggCount, Star: true, Name: "n"}
	cases := []struct {
		store     *baav.Store
		producers []Plan
		preds     []Pred
		proj      []string
		keys      [][]string // γ keys: in the ∝'s and scan's lead, then not
		sum       string
	}{{
		store: paper,
		producers: []Plan{
			&Extend{Input: &Const{KeyAttrs: []string{"PS.suppkey"}, Keys: []relation.Tuple{{relation.Int(10)}, {relation.Int(11)}, {relation.Int(12)}}},
				KV: "PARTSUPP_by_supp", Alias: "PS", KeyFrom: []string{"PS.suppkey"}},
			&Join{L: &ScanKV{KV: "SUPPLIER_by_nation", Alias: "S"}, R: &ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"},
				LOn: []string{"S.suppkey"}, ROn: []string{"PS.suppkey"}},
			&ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"},
		},
		preds: []Pred{{Attr: "PS.supplycost", Op: sql.OpGe, Lit: &five}, {Attr: "PS.partkey", Op: sql.OpNe, RAttr: "PS.availqty"}},
		proj:  []string{"PS.partkey", "PS.suppkey"},
		keys:  [][]string{{"PS.suppkey"}, {"PS.partkey"}},
		sum:   "PS.supplycost",
	}, {
		store: cars,
		producers: []Plan{
			&Extend{Input: &Const{KeyAttrs: []string{"C.make"}, Keys: []relation.Tuple{{relation.String("MAKE-1")}, {relation.String("MAKE-2")}, {relation.String("MAKE-9")}}},
				KV: "car_years_by_make", Alias: "C", KeyFrom: []string{"C.make"}},
			&Join{L: &Const{KeyAttrs: []string{"K.make"}, Keys: []relation.Tuple{{relation.String("MAKE-3")}, {relation.String("MAKE-5")}}},
				R: &ScanKV{KV: "car_years_by_make", Alias: "C"}, LOn: []string{"K.make"}, ROn: []string{"C.make"}},
			&ScanKV{KV: "car_years_by_make", Alias: "C"},
		},
		preds: []Pred{{Attr: "C.year", Op: sql.OpGe, Lit: &y1995}},
		proj:  []string{"C.year", "C.make"},
		keys:  [][]string{{"C.make"}, {"C.year"}},
		sum:   "C.year",
	}}
	runs := map[string]func(Plan, *baav.Store, int, *obs.Trace) (*PartRel, ExecStats, error){
		"interleaved": Run,
		"fetch-all": func(p Plan, st *baav.Store, w int, tr *obs.Trace) (*PartRel, ExecStats, error) {
			return (&executor{store: st, workers: w, fetchAll: true, trace: tr}).runPlan(p)
		},
	}
	// spans lists a trace's spans depth first: name, rows and rows per worker.
	var spans func(n *obs.OpNode) []string
	spans = func(n *obs.OpNode) []string {
		out := []string{fmt.Sprintf("%s rows=%d per_worker=%v", n.Name, n.Rows, n.PerWorker)}
		for _, c := range n.Children {
			out = append(out, spans(c)...)
		}
		return out
	}
	samePart := func(a, b []relation.Tuple) bool {
		return slices.EqualFunc(a, b, func(x, y relation.Tuple) bool { return reflect.DeepEqual(x, y) })
	}
	for _, c := range cases {
		aggs := []AggSpec{count, {Func: sql.AggSum, Attr: c.sum, Name: "s"}}
		chains := map[string]func(in Plan) Plan{
			"π∘σ": func(in Plan) Plan { return &Project{Input: &Select{Input: in, Preds: c.preds}, Attrs: c.proj} },
			"σ":   func(in Plan) Plan { return &Select{Input: in, Preds: c.preds} },
			"γ∘σ lead": func(in Plan) Plan {
				return &GroupBy{Input: &Select{Input: in, Preds: c.preds}, Keys: c.keys[0], Aggs: aggs}
			},
			"γ∘σ value": func(in Plan) Plan {
				return &GroupBy{Input: &Select{Input: in, Preds: c.preds}, Keys: c.keys[1], Aggs: aggs}
			},
			"γ": func(in Plan) Plan { return &GroupBy{Input: in, Keys: c.keys[1], Aggs: aggs} },
			"π": func(in Plan) Plan { return &Project{Input: in, Attrs: c.proj} },
		}
		for _, producer := range c.producers {
			for chainName, chain := range chains {
				for runName, run := range runs {
					for _, p := range testWorkers {
						label := fmt.Sprintf("%s over %T %s p=%d", chainName, producer, runName, p)
						ft := &obs.Trace{}
						fused, fs, err := run(chain(producer), c.store, p, ft)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						pt, at := &obs.Trace{}, &obs.Trace{}
						made, ms, err := run(producer, c.store, p, pt)
						if err != nil {
							t.Fatal(err)
						}
						apart, as, err := run(chain(&Lit{made}), c.store, p, at)
						if err != nil {
							t.Fatal(err)
						}
						ms.Add(as)
						if strings.HasPrefix(chainName, "σ") && (apart.Len() == 0 || apart.Len() == made.Len()) {
							t.Fatalf("%s: σ passes %d of %d rows, want some but not all", label, apart.Len(), made.Len())
						}
						if !reflect.DeepEqual(fused.Attrs, apart.Attrs) || !slices.EqualFunc(fused.Parts, apart.Parts, samePart) || fs != ms {
							t.Fatalf("%s: fused %v %+v\none after another %v %+v", label, fused.Parts, fs, apart.Parts, ms)
						}
						if got, want := spans(ft.Root), append(spans(at.Root), spans(pt.Root)...); !slices.Equal(got, want) {
							t.Fatalf("%s: spans\n%s\none after another\n%s", label, strings.Join(got, "\n"), strings.Join(want, "\n"))
						}
					}
				}
			}
		}
	}
}

func TestExecStatsAdd(t *testing.T) {
	a := ExecStats{Gets: 1, Blocks: 2, DataValues: 3, ScanBlocks: 4, BytesRead: 5, ShuffleBytes: 6}
	a.Add(ExecStats{Gets: 10, Blocks: 20, DataValues: 30, ScanBlocks: 40, BytesRead: 50, ShuffleBytes: 60})
	if a != (ExecStats{Gets: 11, Blocks: 22, DataValues: 33, ScanBlocks: 44, BytesRead: 55, ShuffleBytes: 66}) {
		t.Fatalf("add = %+v", a)
	}
}

func TestPlanStrings(t *testing.T) {
	plan := paperPlan()
	s := plan.String()
	for _, frag := range []string{"GERMANY", "∝", "γ"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("plan string missing %q: %s", frag, s)
		}
	}
	nodes := []Plan{
		&Shift{Input: &ScanKV{KV: "a", Alias: "A"}, NewKey: []string{"x"}},
		&Select{Input: &ScanKV{KV: "a", Alias: "A"}, Preds: []Pred{{Attr: "x", In: []relation.Value{relation.Int(1)}}}},
		&Project{Input: &ScanKV{KV: "a", Alias: "A"}, Attrs: []string{"x"}},
		&Union{L: &ScanKV{KV: "a", Alias: "A"}, R: &ScanKV{KV: "b", Alias: "B"}},
		&Diff{L: &ScanKV{KV: "a", Alias: "A"}, R: &ScanKV{KV: "b", Alias: "B"}},
		&Distinct{Input: &ScanKV{KV: "a", Alias: "A"}},
		&StatsAgg{KV: "a", Alias: "A"},
	}
	for _, n := range nodes {
		if n.String() == "" {
			t.Fatalf("%T has empty String()", n)
		}
	}
	if len(CollectScans(nodes[3])) != 2 {
		t.Fatal("union scans both sides")
	}
}

func TestShiftThenGroupBy(t *testing.T) {
	_, store := fixture(t)
	// Re-key partsupp by partkey, then aggregate per part.
	plan := &GroupBy{
		Input: &Shift{Input: &ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"}, NewKey: []string{"PS.partkey"}},
		Keys:  []string{"PS.partkey"},
		Aggs:  []AggSpec{{Func: sql.AggCount, Star: true, Name: "n"}},
	}
	for _, p := range testWorkers {
		out, _ := mustRun(t, store, plan, p)
		rows := sorted(out)
		if len(rows) != 2 || rows[0][0].Int != 100 || rows[0][1].Int != 3 || rows[1][0].Int != 101 || rows[1][1].Int != 1 {
			t.Fatalf("p=%d: counts per part = %v", p, rows)
		}
	}
}

func TestRepartitionColocatesKeys(t *testing.T) {
	v := NewPartRel([]string{"k", "x"}, 4)
	for i := 0; i < 100; i++ {
		row := relation.Tuple{relation.Int(int64(i % 7)), relation.Int(int64(i))}
		v.Parts[i%4] = append(v.Parts[i%4], row)
	}
	var shuffle atomic.Int64
	out := repartition(v, []int{0}, &shuffle)
	ownerOf := make(map[int64]int)
	for w, part := range out.Parts {
		for _, row := range part {
			k := row[0].Int
			if prev, ok := ownerOf[k]; ok && prev != w {
				t.Fatalf("key %d on workers %d and %d", k, prev, w)
			}
			ownerOf[k] = w
		}
	}
	if out.Len() != 100 {
		t.Fatalf("rows lost: %d", out.Len())
	}
	if shuffle.Load() == 0 {
		t.Fatal("some rows must have moved")
	}
	// Gather with empty key.
	gathered := repartition(v, nil, &shuffle)
	if len(gathered.Parts[0]) != 100 {
		t.Fatalf("gather put %d rows on worker 0", len(gathered.Parts[0]))
	}
}

// TestOneWorkerIsTheSequentialCase: with one worker ForWorkers runs its
// function on the calling goroutine (this test's frame is on its stack) and
// repartition hands back its input, unhashed and uncopied, shuffling
// nothing. With two workers neither holds — except that a loop over fewer
// than inlineRows rows stays on the calling goroutine at any worker count.
func TestOneWorkerIsTheSequentialCase(t *testing.T) {
	inline := func(workers, rows int) bool {
		var onCallerStack atomic.Bool
		err := ForWorkers(workers, rows, func(int) error {
			pcs := make([]uintptr, 32)
			frames := runtime.CallersFrames(pcs[:runtime.Callers(0, pcs)])
			for {
				f, more := frames.Next()
				if strings.HasSuffix(f.Function, ".TestOneWorkerIsTheSequentialCase") {
					onCallerStack.Store(true)
				}
				if !more {
					return nil
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return onCallerStack.Load()
	}
	if !inline(1, Unsized) {
		t.Fatal("ForWorkers(1) started a goroutine")
	}
	if inline(2, inlineRows) {
		t.Fatal("ForWorkers(2) must run its workers concurrently from inlineRows rows up")
	}
	if !inline(2, inlineRows-1) {
		t.Fatal("ForWorkers(2) started goroutines for fewer than inlineRows rows")
	}
	want := errors.New("worker failed")
	for _, p := range []int{1, 3} {
		for _, rows := range []int{0, Unsized} {
			err := ForWorkers(p, rows, func(w int) error {
				if w == p-1 {
					return want
				}
				return nil
			})
			if !errors.Is(err, want) {
				t.Fatalf("ForWorkers(%d, %d) error = %v", p, rows, err)
			}
		}
	}

	var shuffle atomic.Int64
	one := NewPartRel([]string{"k"}, 1)
	one.Parts[0] = []relation.Tuple{{relation.Int(1)}, {relation.Int(2)}}
	if repartition(one, []int{0}, &shuffle) != one || shuffle.Load() != 0 {
		t.Fatal("repartition at one worker must return its input and shuffle nothing")
	}
	two := NewPartRel([]string{"k"}, 2)
	two.Parts[0] = one.Parts[0]
	if repartition(two, []int{0}, &shuffle) == two {
		t.Fatal("repartition at two workers builds a new partitioning")
	}
}
