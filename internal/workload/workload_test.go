package workload

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kv"
	"zidian/internal/parallel"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/taav"
)

func buildStores(t *testing.T, w *Workload) (*baav.Store, *taav.Store, *core.Checker) {
	t.Helper()
	bv, err := baav.Map(w.DB, w.Schema, kv.NewCluster(kv.EngineHash, 4), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tv, err := taav.Map(w.DB, kv.NewCluster(kv.EngineHash, 4))
	if err != nil {
		t.Fatal(err)
	}
	return bv, tv, core.NewChecker(w.Schema, baav.RelSchemas(w.DB)).WithStats(bv)
}

// verifyWorkload checks, for every query of a workload: the declared
// scan-free classification matches Condition (III); the generated plan's
// scan-freeness matches; and Zidian at every worker count (one worker is
// sequential execution) and the TaaV baseline agree with the reference
// evaluator.
func verifyWorkload(t *testing.T, w *Workload) {
	t.Helper()
	bv, tv, checker := buildStores(t, w)
	if len(w.Queries) != 12 {
		t.Fatalf("%s: expected 12 queries, have %d", w.Name, len(w.Queries))
	}
	for _, wq := range w.Queries {
		q, err := ra.Parse(wq.SQL, w.DB)
		if err != nil {
			t.Fatalf("%s/%s: parse: %v", w.Name, wq.Name, err)
		}
		if got := checker.ScanFree(q); got != wq.ScanFree {
			t.Fatalf("%s/%s: ScanFree = %v, declared %v", w.Name, wq.Name, got, wq.ScanFree)
		}
		info, err := checker.Plan(q)
		if err != nil {
			t.Fatalf("%s/%s: plan: %v", w.Name, wq.Name, err)
		}
		if info.ScanFree != wq.ScanFree {
			t.Fatalf("%s/%s: plan scan-freeness %v, declared %v (plan %s)",
				w.Name, wq.Name, info.ScanFree, wq.ScanFree, info.Root)
		}
		want, err := ra.Evaluate(q, w.DB)
		if err != nil {
			t.Fatalf("%s/%s: reference: %v", w.Name, wq.Name, err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			got, _, err := parallel.RunKBA(info, bv, workers)
			if err != nil {
				t.Fatalf("%s/%s: p=%d: %v", w.Name, wq.Name, workers, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s/%s: Zidian answer at p=%d differs from reference (%d vs %d rows)",
					w.Name, wq.Name, workers, len(got.Rows), len(want.Rows))
			}
		}
		gotBase, _, err := parallel.RunTaaV(q, tv, 4)
		if err != nil {
			t.Fatalf("%s/%s: baseline: %v", w.Name, wq.Name, err)
		}
		if !gotBase.Equal(want) {
			t.Fatalf("%s/%s: baseline answer differs", w.Name, wq.Name)
		}
	}
}

func TestTPCHWorkload(t *testing.T) {
	w := TPCH(Spec{Scale: 0.2, Seed: 7})
	verifyWorkload(t, w)
}

func TestMOTWorkload(t *testing.T) {
	w := MOT(Spec{Scale: 0.5, Seed: 7})
	verifyWorkload(t, w)
}

func TestAIRCAWorkload(t *testing.T) {
	w := AIRCA(Spec{Scale: 0.3, Seed: 7})
	verifyWorkload(t, w)
}

// eachPlan plans every query of the three suites over a store on the given
// number of storage nodes.
func eachPlan(t *testing.T, nodes int, fn func(label string, info *core.PlanInfo, store *baav.Store)) {
	t.Helper()
	for _, name := range []string{"mot", "airca", "tpch"} {
		w, err := Generate(name, Spec{Scale: 0.1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		store, err := baav.Map(w.DB, w.Schema, kv.NewCluster(kv.EngineHash, nodes), baav.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		checker := core.NewChecker(w.Schema, baav.RelSchemas(w.DB)).WithStats(store)
		for _, wq := range w.Queries {
			info, err := checker.Plan(ra.MustParse(wq.SQL, w.DB))
			if err != nil {
				t.Fatalf("%s/%s: plan: %v", name, wq.Name, err)
			}
			fn(name+"/"+wq.Name, info, store)
		}
	}
}

// TestAnswerIsRunKBAAtOneWorker: sequential execution is the one executor
// at one worker, not a second algorithm — core.Answer and RunKBA(…, 1)
// return the same rows in the same order with the same counters, and a
// one-worker run shuffles nothing.
func TestAnswerIsRunKBAAtOneWorker(t *testing.T) {
	eachPlan(t, 4, func(label string, info *core.PlanInfo, store *baav.Store) {
		seq, stats, err := core.Answer(info, store)
		if err != nil {
			t.Fatalf("%s: answer: %v", label, err)
		}
		one, m, err := parallel.RunKBA(info, store, 1)
		if err != nil {
			t.Fatalf("%s: RunKBA: %v", label, err)
		}
		if !reflect.DeepEqual(seq, one) {
			t.Fatalf("%s: Answer and RunKBA at one worker return different rows or row order", label)
		}
		if *stats != m.ExecStats {
			t.Fatalf("%s: counters differ: Answer %+v, RunKBA %+v", label, *stats, m.ExecStats)
		}
		if m.Workers != 1 || m.ShuffleBytes != 0 {
			t.Fatalf("%s: one worker must shuffle nothing: %+v", label, m)
		}
	})
}

// goroutinesStarted reports how many goroutines f started, including ones
// that already exited. Goroutine ids are handed out in increasing order
// from per-P caches, so with a single P the ids of two marker goroutines
// started around f differ by one more than the number started in between.
// The runtime may start a goroutine of its own meanwhile; the minimum over a
// few attempts is f's own count.
func goroutinesStarted(f func()) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	marker := func() int {
		id := make(chan int)
		go func() {
			var n int
			fmt.Sscanf(string(debug.Stack()), "goroutine %d ", &n)
			id <- n
		}()
		return <-id
	}
	least := -1
	for attempt := 0; attempt < 5 && least != 0; attempt++ {
		before := marker()
		f()
		if n := marker() - before - 1; least < 0 || n < least {
			least = n
		}
	}
	return least
}

// TestAnswerStartsNoGoroutine: at one worker no operator starts a goroutine
// — every query of the three suites (point and chain plans, scans, joins,
// group-bys, distincts) runs entirely on the calling goroutine, on one
// storage node and on four: a kv scan walks the nodes one after another on
// its caller's goroutine. At 2, 4 and 7 workers the scan-free plans — point
// and chain lookups whose intermediates stay far below the executor's
// inline threshold — still start none, on one storage node and on four (a
// batched get starts none); the scan plans do, so the count sees them.
func TestAnswerStartsNoGoroutine(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		points, scansStarted := 0, 0
		eachPlan(t, nodes, func(label string, info *core.PlanInfo, store *baav.Store) {
			if info.Empty {
				return
			}
			started := func(workers int) int {
				return goroutinesStarted(func() {
					if _, _, err := parallel.RunKBA(info, store, workers); err != nil {
						t.Fatalf("%s: p=%d: %v", label, workers, err)
					}
				})
			}
			if n := goroutinesStarted(func() {
				if _, _, err := core.Answer(info, store); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}); n != 0 {
				t.Fatalf("%s: core.Answer started %d goroutines on %d nodes", label, n, nodes)
			}
			if !info.ScanFree {
				scansStarted += started(2)
				return
			}
			points++
			for _, workers := range []int{2, 4, 7} {
				if n := started(workers); n != 0 {
					t.Fatalf("%s: scan-free plan started %d goroutines at %d workers on %d nodes", label, n, workers, nodes)
				}
			}
		})
		if points == 0 {
			t.Fatal("the suites no longer contain a scan-free (point or chain) plan")
		}
		if scansStarted == 0 {
			t.Fatal("two workers over the scan plans started no goroutine: the count is blind")
		}
	}
}

func TestTPCHCardinalityRatios(t *testing.T) {
	w := TPCH(Spec{Scale: 0.5, Seed: 1})
	db := w.DB
	if db.Relation("REGION").Cardinality() != 5 || db.Relation("NATION").Cardinality() != 25 {
		t.Fatal("region/nation are fixed-size")
	}
	part := db.Relation("PART").Cardinality()
	ps := db.Relation("PARTSUPP").Cardinality()
	if ps != 4*part {
		t.Fatalf("partsupp = %d, want 4×part = %d", ps, 4*part)
	}
	orders := db.Relation("ORDERS").Cardinality()
	li := db.Relation("LINEITEM").Cardinality()
	if li < 2*orders || li > 8*orders {
		t.Fatalf("lineitem/orders ratio off: %d/%d", li, orders)
	}
	// 61 attributes across 8 relations, as in TPC-H.
	attrs := 0
	for _, s := range db.Schemas() {
		attrs += len(s.Attrs)
	}
	if attrs != 61 {
		t.Fatalf("attribute count = %d, want 61", attrs)
	}
}

func TestMOTShape(t *testing.T) {
	w := MOT(Spec{Scale: 1, Seed: 2})
	attrs := 0
	for _, s := range w.DB.Schemas() {
		attrs += len(s.Attrs)
	}
	if attrs != 42 {
		t.Fatalf("MOT attribute count = %d, want 42", attrs)
	}
	if len(w.DB.Schemas()) != 3 {
		t.Fatal("MOT has 3 tables")
	}
}

func TestAIRCAShape(t *testing.T) {
	w := AIRCA(Spec{Scale: 1, Seed: 2})
	if len(w.DB.Schemas()) != 7 {
		t.Fatal("AIRCA has 7 tables")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MOT(Spec{Scale: 0.5, Seed: 3})
	b := MOT(Spec{Scale: 0.5, Seed: 3})
	if a.DB.Cardinality() != b.DB.Cardinality() {
		t.Fatal("same seed must generate identical sizes")
	}
	c := MOT(Spec{Scale: 0.5, Seed: 4})
	if a.DB.Cardinality() == c.DB.Cardinality() && a.DB.SizeBytes() == c.DB.SizeBytes() {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateByName(t *testing.T) {
	for _, name := range []string{"tpch", "mot", "airca"} {
		w, err := Generate(name, Spec{Scale: 0.1, Seed: 1})
		if err != nil || w.Name != name {
			t.Fatalf("Generate(%s) = %v, %v", name, w, err)
		}
	}
	if _, err := Generate("nope", Spec{}); err == nil {
		t.Fatal("unknown workload must error")
	}
}

// TestBoundedQueriesStayBounded verifies the defining property of the
// real-life q1–q6 templates: their block degrees do not grow with scale.
func TestBoundedQueriesStayBounded(t *testing.T) {
	for _, gen := range []func(Spec) *Workload{MOT, AIRCA} {
		small := gen(Spec{Scale: 0.5, Seed: 5})
		big := gen(Spec{Scale: 2, Seed: 5})
		bvSmall, _, chkSmall := buildStores(t, small)
		bvBig, _, chkBig := buildStores(t, big)
		// The degree bound is calibrated on the small store with headroom.
		bound := bvSmall.Degree("")*3 + 50
		for i, wq := range small.Queries {
			if !wq.Bounded {
				continue
			}
			// Boundedness is a property of the plan: every instance the
			// plan's ∝ steps touch must keep a stable degree as |D| grows.
			qs := ra.MustParse(wq.SQL, small.DB)
			qb := ra.MustParse(big.Queries[i].SQL, big.DB)
			infoS, err := chkSmall.Plan(qs)
			if err != nil {
				t.Fatal(err)
			}
			infoB, err := chkBig.Plan(qb)
			if err != nil {
				t.Fatal(err)
			}
			if !infoS.Bounded(bvSmall, bound) {
				t.Fatalf("%s/%s: not bounded at small scale (bound %d)", small.Name, wq.Name, bound)
			}
			if !infoB.Bounded(bvBig, bound) {
				t.Fatalf("%s/%s: degree grew past %d at 4× scale", big.Name, wq.Name, bound)
			}
		}
	}
}

func TestScanFreeSplitIsSixSix(t *testing.T) {
	for _, w := range []*Workload{MOT(Spec{Scale: 0.2, Seed: 1}), AIRCA(Spec{Scale: 0.2, Seed: 1})} {
		if len(w.ScanFreeQueries()) != 6 || len(w.NonScanFreeQueries()) != 6 {
			t.Fatalf("%s: split = %d/%d, want 6/6", w.Name,
				len(w.ScanFreeQueries()), len(w.NonScanFreeQueries()))
		}
	}
}

func TestPaperQ1Constant(t *testing.T) {
	w := TPCH(Spec{Scale: 0.1, Seed: 1})
	q, err := ra.Parse(PaperQ1, w.DB)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Atoms) != 3 {
		t.Fatal("paper Q1 has three atoms")
	}
}

// pointSQL are the five scan-free point/chain shapes of the serving
// benchmark's point_zipf workload (benchmark/gen.go pointTemplates).
var pointSQL = []string{
	"select T.test_date, T.result, T.mileage from TEST T where T.vehicle_id = ?",
	"select V.make, V.model, T.test_date, T.result from VEHICLE V, TEST T where V.vehicle_id = ? and T.vehicle_id = V.vehicle_id",
	"select O.obs_date, O.speed, O.road_type from OBSERVATION O where O.vehicle_id = ? and O.speed > 70",
	"select COUNT(*), AVG(T.mileage), MAX(T.defect_count) from TEST T where T.vehicle_id = ?",
	"select T.test_date, T.result, O.obs_date, O.speed from VEHICLE V, TEST T, OBSERVATION O where V.vehicle_id = ? and T.vehicle_id = V.vehicle_id and O.vehicle_id = V.vehicle_id",
}

// BenchmarkRunPoint is the execute phase of a point statement: the five
// point_zipf plans, each bound to 16 vehicles, run and shaped at the worker
// counts the server uses. One worker is the floor the other counts are
// held to.
func BenchmarkRunPoint(b *testing.B) {
	w := MOT(Spec{Scale: 2, Seed: 1})
	store, err := baav.Map(w.DB, w.Schema, kv.NewCluster(kv.EngineHash, 4), baav.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	checker := core.NewChecker(w.Schema, baav.RelSchemas(w.DB)).WithStats(store)
	var plans []*core.PlanInfo
	for _, src := range pointSQL {
		info, err := checker.Plan(ra.MustParse(src, w.DB))
		if err != nil {
			b.Fatal(err)
		}
		for v := 0; v < 16; v++ {
			bound, err := info.Bind([]relation.Value{relation.Int(int64(v * 71))})
			if err != nil {
				b.Fatal(err)
			}
			plans = append(plans, bound)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := parallel.RunKBA(plans[i%len(plans)], store, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
