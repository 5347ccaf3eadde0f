package zidian_test

import (
	"fmt"
	"testing"

	"zidian"
	"zidian/internal/workload"
)

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
