package zidian_test

import (
	"fmt"
	"testing"

	"zidian"
	"zidian/internal/ra"
	"zidian/internal/workload"
)

// workerCounts are the worker counts the one KBA executor is held to: one
// worker is sequential execution, the others partition the same operators.
var workerCounts = []int{1, 2, 4, 7}

// TestDifferentialWorkerCounts: the worker count is an execution axis,
// never semantics. Every SELECT of the three workload suites, the range
// suite and the scatter suite (the ITEM suites both before and after their
// indexes exist) answers exactly what the reference evaluator answers, on
// every kv engine, at every worker count.
func TestDifferentialWorkerCounts(t *testing.T) {
	reference := func(db *zidian.Database, label, sql string) *zidian.Result {
		t.Helper()
		q, err := ra.Parse(sql, db)
		if err != nil {
			t.Fatalf("%s: parse %q: %v", label, sql, err)
		}
		want, err := ra.Evaluate(q, db)
		if err != nil {
			t.Fatalf("%s: reference %q: %v", label, sql, err)
		}
		return want
	}
	check := func(inst *zidian.Instance, label, sql string, want *zidian.Result) {
		t.Helper()
		got, _, err := inst.Query(sql)
		if err != nil {
			t.Fatalf("%s: %q: %v", label, sql, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: %q differs from the reference evaluator (%d vs %d rows)", label, sql, len(got.Rows), len(want.Rows))
		}
	}
	for _, name := range []string{"mot", "airca", "tpch"} {
		w, err := workload.Generate(name, workload.Spec{Scale: 0.1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		wants := make([]*zidian.Result, len(w.Queries))
		for i, q := range w.Queries {
			wants[i] = reference(w.DB, name+"/"+q.Name, q.SQL)
		}
		for _, eng := range zidian.RangeEngines {
			for _, workers := range workerCounts {
				inst, err := zidian.Open(w.DB, w.Schema, zidian.Options{Engine: eng, Nodes: 4, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range w.Queries {
					check(inst, fmt.Sprintf("%s/%s/%s/p=%d", name, q.Name, eng, workers), q.SQL, wants[i])
				}
			}
		}
	}

	items := append(append([]string{}, zidian.RangeSuite...), zidian.ScatterSuite...)
	var wants []*zidian.Result
	for _, eng := range zidian.RangeEngines {
		for _, workers := range workerCounts {
			db, bv := zidian.RangeItemsDB(t)
			if wants == nil {
				for _, sql := range items {
					wants = append(wants, reference(db, "item", sql))
				}
			}
			inst, err := zidian.Open(db, bv, zidian.Options{Engine: eng, Nodes: 4, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i, sql := range items {
				check(inst, fmt.Sprintf("item/scan/%s/p=%d", eng, workers), sql, wants[i])
			}
			for _, ddl := range zidian.RangeSuiteDDL {
				if _, err := inst.Exec(ddl); err != nil {
					t.Fatal(err)
				}
			}
			for i, sql := range items {
				check(inst, fmt.Sprintf("item/indexed/%s/p=%d", eng, workers), sql, wants[i])
			}
		}
	}
}

// TestTemplateConcurrentBindings: one compiled template serves any number of
// goroutines, each binding its own values — what the server's plan cache does
// with every hit. What Plan derived once for the template (attribute
// layouts, index vectors, the result shape) is shared by all of them and by
// every bound copy Bind makes, so it must never be written again: 8
// goroutines × 1 000 runs per template, each answer checked against a
// one-at-a-time run of the same binding, is that claim under -race.
func TestTemplateConcurrentBindings(t *testing.T) {
	w, err := workload.Generate("mot", workload.Spec{Scale: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := zidian.Open(w.DB, w.Schema, zidian.Options{Nodes: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	const vehicles = 100
	for _, src := range []string{
		"select T.test_date, T.result, O.obs_date, O.speed from VEHICLE V, TEST T, OBSERVATION O where V.vehicle_id = ? and T.vehicle_id = V.vehicle_id and O.vehicle_id = V.vehicle_id",
		"select COUNT(*), AVG(T.mileage), MAX(T.defect_count) from TEST T where T.vehicle_id = ? and T.mileage > 0",
	} {
		p, err := inst.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		plan := p.Plan()
		want := make([]string, vehicles)
		for v := range want {
			res, _, err := p.Run(zidian.Int(int64(v)))
			if err != nil {
				t.Fatal(err)
			}
			want[v] = zidian.RenderResult(res)
		}
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func(g int) {
				for i := 0; i < 1000; i++ {
					v := (g*131 + i*7) % vehicles
					res, _, err := p.Run(zidian.Int(int64(v)))
					if err != nil {
						errs <- err
						return
					}
					if got := zidian.RenderResult(res); got != want[v] {
						errs <- fmt.Errorf("vehicle %d: concurrent run answered\n%s\nwant\n%s", v, got, want[v])
						return
					}
				}
				errs <- nil
			}(g)
		}
		for g := 0; g < 8; g++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if p.Plan() != plan || p.NumParams() != 1 {
			t.Fatalf("template changed under its runs: %s", p.Plan())
		}
	}
}
