package zidian

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"zidian/internal/kba"
	"zidian/internal/relation"
	"zidian/internal/workload"
)

// servingTemplates are the serving benchmark's nine read templates — the
// five point shapes and the four index_scan shapes — with bindings drawn
// from MOT scale 1 (vehicles 0..599, roads 4..11).
var servingTemplates = []struct {
	name, sql string
	params    [][]Value
}{
	{"vehicle_tests", "select T.test_date, T.result, T.mileage from TEST T where T.vehicle_id = ?",
		[][]Value{{Int(7)}, {Int(123)}, {Int(599)}}},
	{"vehicle_profile", "select V.make, V.model, T.test_date, T.result from VEHICLE V, TEST T where V.vehicle_id = ? and T.vehicle_id = V.vehicle_id",
		[][]Value{{Int(7)}, {Int(123)}, {Int(599)}}},
	{"vehicle_speeding", "select O.obs_date, O.speed, O.road_type from OBSERVATION O where O.vehicle_id = ? and O.speed > 70",
		[][]Value{{Int(7)}, {Int(123)}, {Int(599)}}},
	{"vehicle_test_stats", "select COUNT(*), AVG(T.mileage), MAX(T.defect_count) from TEST T where T.vehicle_id = ?",
		[][]Value{{Int(7)}, {Int(123)}, {Int(599)}}},
	{"vehicle_history", "select T.test_date, T.result, O.obs_date, O.speed from VEHICLE V, TEST T, OBSERVATION O where V.vehicle_id = ? and T.vehicle_id = V.vehicle_id and O.vehicle_id = V.vehicle_id",
		[][]Value{{Int(7)}, {Int(123)}, {Int(599)}}},
	{"road_observations", "select O.obs_id, O.speed, O.weather from OBSERVATION O where O.road_id = ?",
		[][]Value{{Int(5)}, {Int(9)}}},
	{"year_band", "select V.vehicle_id, V.color, V.fuel from VEHICLE V where V.year between ? and ?",
		[][]Value{{Int(1999), Int(1999)}, {Int(2003), Int(2004)}}},
	{"speed_band_limit", "select O.obs_id, O.direction, O.lane from OBSERVATION O where O.speed between ? and ? limit 20",
		[][]Value{{Int(30), Int(35)}, {Int(72), Int(77)}}},
	{"make_counts", "select V.make, COUNT(*) from VEHICLE V group by V.make", [][]Value{nil}},
}

// servingInstance opens MOT scale 1 on the default four nodes and four
// workers with the index_scan workload's three indexes.
func servingInstance(t *testing.T) *Instance {
	t.Helper()
	w := workload.MOT(workload.Spec{Scale: 1, Seed: 1})
	inst, err := Open(w.DB, w.Schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range pruneSuiteMOTDDL {
		if _, err := inst.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return inst
}

// renderAnswer renders an answer's columns and rows in delivery order.
func renderAnswer(res *Result) string { return fmt.Sprint(res.Cols, res.Rows) }

// TestResultRowsAreTheCallers: the rows a statement answers belong to the
// caller — they alias nothing of the plan, of a fetched block or of each
// other. For each serving template, for SELECT * over ∝ and for a plan that
// is a constant alone: while another goroutine re-runs the prepared
// statement, every cell of every row of the first answer is overwritten and
// every row appended to; no row's append reaches a neighbour, every re-run
// answers the first answer, and under -race nothing is shared.
func TestResultRowsAreTheCallers(t *testing.T) {
	inst := servingInstance(t)
	type statement struct {
		name   string
		p      *Prepared
		params []Value
	}
	var stmts []statement
	prepare := func(name, src string, params []Value) *Prepared {
		p, err := inst.Prepare(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stmts = append(stmts, statement{name, p, params})
		return p
	}
	for _, tpl := range servingTemplates {
		prepare(tpl.name, tpl.sql, tpl.params[0])
	}
	prepare("select *", "select * from VEHICLE V where V.vehicle_id = ?", []Value{Int(42)})
	// A constant leaf as the whole plan: its rows are the plan's keys.
	p := prepare("const", "select V.vehicle_id from VEHICLE V where V.vehicle_id = 7", nil)
	info := *p.info
	info.Root = &kba.Const{KeyAttrs: []string{info.OutCols[0]}, Keys: []relation.Tuple{{Int(7)}, {Int(8)}, {Int(9)}}}
	p.info = &info

	for _, s := range stmts {
		first, _, err := s.p.Run(s.params...)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		want := renderAnswer(first)
		if len(first.Rows) == 0 {
			t.Fatalf("%s answers no rows", s.name)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				res, _, err := s.p.Run(s.params...)
				if err != nil {
					t.Errorf("%s: %v", s.name, err)
					return
				}
				if got := renderAnswer(res); got != want {
					t.Errorf("%s re-run while the first answer was overwritten:\n got %s\nwant %s", s.name, got, want)
					return
				}
			}
		}()
		mark := func(i, j int) Value { return String(fmt.Sprintf("r%d.c%d", i, j)) }
		for i, row := range first.Rows {
			for j := range row {
				row[j] = mark(i, j)
			}
		}
		for i := range first.Rows {
			first.Rows[i] = append(first.Rows[i], Int(-1))
		}
		for i, row := range first.Rows {
			for j := range row[:len(row)-1] {
				if row[j] != mark(i, j) {
					t.Fatalf("%s: appending to the rows changed row %d cell %d to %v", s.name, i, j, row[j])
				}
			}
		}
		wg.Wait()
		again, _, err := s.p.Run(s.params...)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := renderAnswer(again); got != want {
			t.Fatalf("%s after the first answer was overwritten:\n got %s\nwant %s", s.name, got, want)
		}
	}
}

// servingAllocBudget is, per serving template at its first binding, the
// allocations of one kba.Run at one worker plus shaping its answer, as
// recorded before σ, π and γ's first phase ran inside whatever feeds them.
// raceEnabled is set under the race detector (race_on_test.go).
var raceEnabled bool

var servingAllocBudget = map[string]float64{
	"vehicle_tests":      39,
	"vehicle_profile":    67,
	"vehicle_speeding":   45,
	"vehicle_test_stats": 58,
	"vehicle_history":    94,
	"road_observations":  143,
	"year_band":          138,
	"speed_band_limit":   70,
	"make_counts":        124,
}

// servingByteBudget is, for the two index templates whose ∝ reads the most
// blocks, the bytes a run of servingAllocBudget's allocates, averaged over
// 50 runs (measured 55 105 and 27 584), plus about a KiB.
var servingByteBudget = map[string]uint64{
	"road_observations": 55 << 10,
	"year_band":         28 << 10,
}

// TestServingTemplatesAllocBudget: executing and shaping each of the nine
// serving templates allocates no more than its budgets above, in
// allocations and, for two, in bytes, so no change to the executor raises
// its allocation without changing the tables. The race
// detector drops sync.Pool items at random, so under it the counts are not
// fixed and the test does not run.
func TestServingTemplatesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	inst := servingInstance(t)
	for _, tpl := range servingTemplates {
		p, err := inst.Prepare(tpl.sql)
		if err != nil {
			t.Fatalf("%s: %v", tpl.name, err)
		}
		bound, err := p.info.Bind(tpl.params[0])
		if err != nil {
			t.Fatalf("%s: %v", tpl.name, err)
		}
		run := func() {
			out, _, err := kba.Run(bound.Root, inst.store, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bound.ToResult(out); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, run)
		t.Logf("%s %.0f", tpl.name, allocs)
		if budget, ok := servingAllocBudget[tpl.name]; !ok || allocs > budget {
			t.Errorf("%s allocates %.0f times per run, budget %.0f", tpl.name, allocs, budget)
		}
		if budget, ok := servingByteBudget[tpl.name]; ok {
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				run()
			}
			runtime.ReadMemStats(&after)
			perRun := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%s %d bytes", tpl.name, perRun)
			if perRun > budget {
				t.Errorf("%s allocates %d bytes per run, budget %d", tpl.name, perRun, budget)
			}
		}
	}
}
