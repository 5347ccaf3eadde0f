package kba_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kba"
	"zidian/internal/kv"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/sql"
	"zidian/internal/workload"
)

// indexScanSQL are the four templates of the serving benchmark's index_scan
// workload (benchmark/gen.go indexTemplates), one per plan shape: index
// lookup ⋈ const → ∝, index range → ∝, the same under a pushed-down LIMIT,
// and a walk of statistics headers.
var indexScanSQL = []struct{ name, sql string }{
	{"road_observations", "select O.obs_id, O.speed, O.weather from OBSERVATION O where O.road_id = ?"},
	{"year_band", "select V.vehicle_id, V.color, V.fuel from VEHICLE V where V.year between ? and ?"},
	{"speed_band_limit", "select O.obs_id, O.direction, O.lane from OBSERVATION O where O.speed between ? and ? limit 20"},
	{"make_counts", "select V.make, COUNT(*) from VEHICLE V group by V.make"},
}

var indexScanDDL = [][3]string{
	{"ix_obs_road", "OBSERVATION", "road_id"},
	{"ix_vehicle_year", "VEHICLE", "year"},
	{"ix_obs_speed", "OBSERVATION", "speed"},
}

// planner maps a workload onto a store and returns it with a checker that
// sees the store's statistics and the given indexes.
func planner(tb testing.TB, w *workload.Workload, indexes [][3]string) (*baav.Store, *core.Checker) {
	tb.Helper()
	cluster := kv.NewCluster(kv.EngineHash, 4)
	store, err := baav.Map(w.DB, w.Schema, cluster, baav.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	for _, ix := range indexes {
		if _, err := store.CreateIndex(ix[0], ix[1], ix[2], w.DB.Relation(ix[1]).Tuples); err != nil {
			tb.Fatal(err)
		}
	}
	return store, core.NewChecker(w.Schema, baav.RelSchemas(w.DB)).WithStats(store).WithIndexes(store.Indexes())
}

// filteredAttrs lists an index for every (relation, attribute) a suite
// compares with a literal, so that the same suite also plans through its
// index lookups and range walks.
func filteredAttrs(t *testing.T, w *workload.Workload) [][3]string {
	t.Helper()
	var out [][3]string
	seen := map[string]bool{}
	for _, q := range w.Queries {
		ast, err := sql.Parse(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for _, p := range ast.Where {
			if p.Lit == nil {
				continue
			}
			rel := p.Left.Table
			for _, ref := range ast.From {
				if ref.Alias == p.Left.Table {
					rel = ref.Name
				}
			}
			schema := w.DB.Schema(rel)
			if schema == nil || slices.Contains(schema.Key, p.Left.Name) || seen[rel+"."+p.Left.Name] {
				continue
			}
			seen[rel+"."+p.Left.Name] = true
			out = append(out, [3]string{strings.ToLower("ix_" + rel + "_" + p.Left.Name), rel, p.Left.Name})
		}
	}
	return out
}

// TestRequiredAttributesHold runs kba.CheckRequired over every plan the
// planner makes of the three workload suites — without indexes and with an
// index on every filtered attribute — and of the index_scan templates, and
// over hand-built plans with the whole-row operators the planner does not
// emit. It also requires that pruning happens at all: that some ∝ or scan
// in every group of plans reads fewer columns than its instance has.
func TestRequiredAttributesHold(t *testing.T) {
	check := func(label string, c *core.Checker, src string, db *relation.Database) (pruned bool) {
		t.Helper()
		q, err := ra.Parse(src, db)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		info, err := c.Plan(q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if info.Root == nil {
			return false
		}
		if err := kba.CheckRequired(info.Root, c.Schema); err != nil {
			t.Fatalf("%s: %s\n%v", label, info.Root, err)
		}
		return prunes(info.Root)
	}
	for _, name := range []string{"mot", "airca", "tpch"} {
		w, err := workload.Generate(name, workload.Spec{Scale: 0.1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for arm, indexes := range [][][3]string{nil, filteredAttrs(t, w)} {
			_, c := planner(t, w, indexes)
			pruned := 0
			for _, q := range w.Queries {
				if check(fmt.Sprintf("%s/%s/indexes=%d", name, q.Name, len(indexes)), c, q.SQL, w.DB) {
					pruned++
				}
			}
			if pruned == 0 {
				t.Fatalf("%s (arm %d): no plan of %d reads fewer columns than it fetches", name, arm, len(w.Queries))
			}
		}
	}
	// At scale 1 the three selective templates plan through their indexes.
	w := workload.MOT(workload.Spec{Scale: 1, Seed: 1})
	_, c := planner(t, w, indexScanDDL)
	for _, q := range indexScanSQL {
		// make_counts walks statistics headers: it fetches no value to prune.
		if !check("index_scan/"+q.name, c, q.sql, w.DB) && q.name != "make_counts" {
			t.Fatalf("index_scan/%s reads every column it fetches", q.name)
		}
	}
	check("distinct", c, "select distinct V.make, V.fuel from VEHICLE V where V.year > 2000", w.DB)

	// Hand-built plans for what those suites do not reach: a ⋈ whose right
	// key is an instance value nothing else reads, a ↑ whose key is, and δ,
	// ∪ and − over ∝ with no π in between — nothing under those may be
	// narrowed, though the root above them reads one column only.
	seed := func() kba.Plan {
		return &kba.Extend{
			Input: &kba.Const{KeyAttrs: []string{"V.vehicle_id"}, Keys: []relation.Tuple{{relation.Int(3)}}},
			KV:    "vehicle_full", Alias: "V", KeyFrom: []string{"V.vehicle_id"},
		}
	}
	var all []string
	for _, a := range c.Schema.ByName("vehicle_full").Val {
		all = append(all, "V."+a)
	}
	for _, h := range []struct {
		under kba.Plan
		reads []string // the instance values the plan's ∝ and scans keep, left to right
	}{
		{&kba.Join{L: seed(), R: &kba.ScanKV{KV: "test_full", Alias: "T"}, LOn: []string{"V.vehicle_id"}, ROn: []string{"T.vehicle_id"}},
			[]string{"V.make", "T.vehicle_id"}},
		{&kba.Shift{Input: seed(), NewKey: []string{"V.fuel"}}, []string{"V.make", "V.fuel"}},
		{&kba.Distinct{Input: seed()}, all},
		{&kba.Union{L: seed(), R: seed()}, append(append([]string{}, all...), all...)},
		{&kba.Diff{L: seed(), R: seed()}, append(append([]string{}, all...), all...)},
	} {
		root := &kba.Project{Input: h.under, Attrs: []string{"V.make"}}
		if kba.Resolve(root, c.Schema) == nil {
			t.Fatalf("%s does not resolve", root)
		}
		if err := kba.CheckRequired(root, c.Schema); err != nil {
			t.Fatalf("%s: %v", root, err)
		}
		if got := kept(root); !slices.Equal(got, h.reads) {
			t.Fatalf("%s\nkeeps %v\n want %v", root, got, h.reads)
		}
	}
}

// kept lists the instance values the resolved plan's ∝ and scans keep, in
// plan order.
func kept(p kba.Plan) []string {
	var out []string
	for _, c := range p.Children() {
		out = append(out, kept(c)...)
	}
	switch p.(type) {
	case *kba.Extend, *kba.ScanKV:
		attrs, _, _ := kba.ReadColumns(p)
		out = append(out, attrs...)
	}
	return out
}

// prunes reports whether some ∝ or scan of the resolved plan reads fewer
// columns than its instance has.
func prunes(p kba.Plan) bool {
	switch p.(type) {
	case *kba.Extend, *kba.ScanKV:
		if _, cols, _ := kba.ReadColumns(p); cols != nil {
			return true
		}
	}
	for _, c := range p.Children() {
		if prunes(c) {
			return true
		}
	}
	return false
}

// TestSelectOnlyColumnStillDecoded pins the case a projection-driven pass
// would get wrong: road_observations filters on O.road_id and does not
// return it, so π drops it and σ — below π, above ∝ — still reads it. The ∝
// keeps exactly the three returned-or-filtered values that are not its key,
// in the instance's order, and the residual σ does filter on real values:
// the answer under the pruned plan is the reference evaluator's.
func TestSelectOnlyColumnStillDecoded(t *testing.T) {
	w := workload.MOT(workload.Spec{Scale: 1, Seed: 1})
	store, c := planner(t, w, indexScanDDL)
	q := ra.MustParse("select O.obs_id, O.speed, O.weather from OBSERVATION O where O.road_id = 5", w.DB)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	var ext *kba.Extend
	var find func(p kba.Plan)
	find = func(p kba.Plan) {
		if e, ok := p.(*kba.Extend); ok {
			ext = e
		}
		for _, c := range p.Children() {
			find(c)
		}
	}
	find(info.Root)
	if ext == nil {
		t.Fatalf("no ∝ in %s", info.Root)
	}
	if err := kba.CheckRequired(info.Root, c.Schema); err != nil {
		t.Fatal(err)
	}
	attrs, cols, width := kba.ReadColumns(ext)
	val := w.Schema.ByName(ext.KV).Val
	var want []string
	for _, a := range val {
		if a == "speed" || a == "weather" || a == "road_id" {
			want = append(want, "O."+a)
		}
	}
	if !slices.Equal(attrs, want) || len(cols) != 3 || width != len(val) {
		t.Fatalf("∝ %s keeps %v (columns %v of %d), want %v", ext.KV, attrs, cols, width, want)
	}
	out, _, err := kba.Run(info.Root, store, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := info.ToResult(out)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ra.Evaluate(q, w.DB)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 || !got.Equal(ref) {
		t.Fatalf("pruned plan answers %d rows, reference %d", len(got.Rows), len(ref.Rows))
	}
}

// BenchmarkRunIndexScan is the execute phase of an index_scan statement at
// MOT scale 2: each template bound to eight parameter draws of the
// benchmark's generator, run at two workers and shaped into the answer.
func BenchmarkRunIndexScan(b *testing.B) {
	w := workload.MOT(workload.Spec{Scale: 2, Seed: 1})
	store, c := planner(b, w, indexScanDDL)
	draws := map[string]func(i int) []relation.Value{
		"road_observations": func(i int) []relation.Value { return []relation.Value{relation.Int(int64(4 + i%8))} },
		"year_band": func(i int) []relation.Value {
			y := relation.Int(int64(1995 + i*2%17))
			return []relation.Value{y, y}
		},
		"speed_band_limit": func(i int) []relation.Value {
			lo := int64(20 + i*11%85)
			return []relation.Value{relation.Int(lo), relation.Int(lo + 5)}
		},
		"make_counts": func(int) []relation.Value { return nil },
	}
	for _, q := range indexScanSQL {
		info, err := c.Plan(ra.MustParse(q.sql, w.DB))
		if err != nil {
			b.Fatal(err)
		}
		var plans []*core.PlanInfo
		for i := 0; i < 8; i++ {
			bound, err := info.Bind(draws[q.name](i))
			if err != nil {
				b.Fatal(err)
			}
			plans = append(plans, bound)
		}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := plans[i%len(plans)]
				out, _, err := kba.Run(p.Root, store, 2, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.ToResult(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// makeCountsPlans are make_counts at MOT scale 2 twice: as the planner
// plans it, a walk of vehicle_by_make_model's statistics headers grouped by
// the first of the two key attributes, and as γ over a scan of the same
// instance with phase 1 folded into the walk, which is how it ran before.
func makeCountsPlans(b *testing.B) (store *baav.Store, headers, scan kba.Plan) {
	w := workload.MOT(workload.Spec{Scale: 2, Seed: 1})
	store, c := planner(b, w, nil)
	info, err := c.Plan(ra.MustParse("select V.make, COUNT(*) from VEHICLE V group by V.make", w.DB))
	if err != nil {
		b.Fatal(err)
	}
	if _, ok := info.Root.(*kba.StatsAgg); !ok {
		b.Fatalf("plan %s is not a statistics header walk", info.Root)
	}
	scan = &kba.GroupBy{
		Input: &kba.ScanKV{KV: "vehicle_by_make_model", Alias: "V"},
		Keys:  []string{"V.make"},
		Aggs:  []kba.AggSpec{{Func: sql.AggCount, Star: true, Name: "COUNT(*)"}},
	}
	kba.Resolve(scan, c.Schema)
	return store, info.Root, scan
}

// runWorkers runs plan b.N times at one worker and at two.
func runWorkers(b *testing.B, store *baav.Store, plan kba.Plan) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := kba.Run(plan, store, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupByScan is γ over a scan of vehicle_by_make_model at MOT
// scale 2, phase 1 folded into the walk: make_counts as it ran before the
// statistics headers answered it.
func BenchmarkGroupByScan(b *testing.B) {
	store, _, scan := makeCountsPlans(b)
	runWorkers(b, store, scan)
}

// BenchmarkStatsAggPrefix is make_counts as planned: the same instance's
// statistics headers walked and grouped by the key's first attribute.
func BenchmarkStatsAggPrefix(b *testing.B) {
	store, headers, _ := makeCountsPlans(b)
	runWorkers(b, store, headers)
}

// groupOverMOT resolves a hand-built γ plan against MOT scale 2 and checks
// that its answer is that of the named MOT suite query.
func groupOverMOT(b *testing.B, name string, plan kba.Plan) *baav.Store {
	w := workload.MOT(workload.Spec{Scale: 2, Seed: 1})
	store, c := planner(b, w, nil)
	if kba.Resolve(plan, c.Schema) == nil {
		b.Fatalf("%s does not resolve", plan)
	}
	for _, q := range w.Queries {
		if q.Name != name {
			continue
		}
		info, err := c.Plan(ra.MustParse(q.SQL, w.DB))
		if err != nil {
			b.Fatal(err)
		}
		want, err := ra.Evaluate(ra.MustParse(q.SQL, w.DB), w.DB)
		if err != nil {
			b.Fatal(err)
		}
		out, _, err := kba.Run(plan, store, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		got, err := info.ToResult(out)
		if err != nil {
			b.Fatal(err)
		}
		if !got.Equal(want) {
			b.Fatalf("%s answers %d rows, %s %d", plan, len(got.Rows), name, len(want.Rows))
		}
		return store
	}
	b.Fatalf("no MOT query %s", name)
	return nil
}

// BenchmarkAggOverExtend is mq08_mileage_by_make at MOT scale 2 as γ(σ(∝ …)):
// every vehicle's tests fetched by ∝, a σ every row passes, and AVG of the
// mileage per make. The planner joins two scans for it instead.
func BenchmarkAggOverExtend(b *testing.B) {
	zero := relation.Int(0)
	plan := &kba.GroupBy{
		Input: &kba.Select{
			Input: &kba.Extend{Input: &kba.ScanKV{KV: "vehicle_by_make_model", Alias: "V"},
				KV: "test_by_vehicle", Alias: "T", KeyFrom: []string{"V.vehicle_id"}},
			Preds: []kba.Pred{{Attr: "T.mileage", Op: sql.OpGe, Lit: &zero}},
		},
		Keys: []string{"V.make"},
		Aggs: []kba.AggSpec{{Func: sql.AggAvg, Attr: "T.mileage", Name: "AVG(T.mileage)"}},
	}
	store := groupOverMOT(b, "mq08_mileage_by_make", plan)
	runWorkers(b, store, plan)
}

// BenchmarkSelectGroupScan is mq11_speed_by_roadtype at MOT scale 2 as
// γ(σ(scan)): the wet observations of a scan, AVG of their speed and COUNT
// per road type. The planner joins the scan with the constant instead.
func BenchmarkSelectGroupScan(b *testing.B) {
	wet := relation.String("WET")
	plan := &kba.GroupBy{
		Input: &kba.Select{
			Input: &kba.ScanKV{KV: "obs_by_vehicle", Alias: "O"},
			Preds: []kba.Pred{{Attr: "O.weather", Op: sql.OpEq, Lit: &wet}},
		},
		Keys: []string{"O.road_type"},
		Aggs: []kba.AggSpec{
			{Func: sql.AggAvg, Attr: "O.speed", Name: "AVG(O.speed)"},
			{Func: sql.AggCount, Star: true, Name: "COUNT(*)"},
		},
	}
	store := groupOverMOT(b, "mq11_speed_by_roadtype", plan)
	runWorkers(b, store, plan)
}
