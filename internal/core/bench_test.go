package core_test

import (
	"testing"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kba"
	"zidian/internal/kv"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/workload"
)

// servingTemplates are the statement shapes of the serving benchmark's
// point_zipf and index_scan workloads (benchmark/gen.go), each with the
// parameters one execution binds.
var servingTemplates = []struct {
	name, sql string
	params    []int64
}{
	{"point_zipf/vehicle_tests", "select T.test_date, T.result, T.mileage from TEST T where T.vehicle_id = ?", []int64{71}},
	{"point_zipf/vehicle_profile", "select V.make, V.model, T.test_date, T.result from VEHICLE V, TEST T where V.vehicle_id = ? and T.vehicle_id = V.vehicle_id", []int64{71}},
	{"point_zipf/vehicle_speeding", "select O.obs_date, O.speed, O.road_type from OBSERVATION O where O.vehicle_id = ? and O.speed > 70", []int64{71}},
	{"point_zipf/vehicle_test_stats", "select COUNT(*), AVG(T.mileage), MAX(T.defect_count) from TEST T where T.vehicle_id = ?", []int64{71}},
	{"point_zipf/vehicle_history", "select T.test_date, T.result, O.obs_date, O.speed from VEHICLE V, TEST T, OBSERVATION O where V.vehicle_id = ? and T.vehicle_id = V.vehicle_id and O.vehicle_id = V.vehicle_id", []int64{71}},
	{"index_scan/road_observations", "select O.obs_id, O.speed, O.weather from OBSERVATION O where O.road_id = ?", []int64{7}},
	{"index_scan/year_band", "select V.vehicle_id, V.color, V.fuel from VEHICLE V where V.year between ? and ?", []int64{1999, 2001}},
	{"index_scan/speed_band_limit", "select O.obs_id, O.direction, O.lane from OBSERVATION O where O.speed between ? and ? limit 20", []int64{40, 45}},
	{"index_scan/make_counts", "select V.make, COUNT(*) from VEHICLE V group by V.make", nil},
}

// servingChecker maps MOT at scale 2 with index_scan's three indexes and
// returns the workload and a checker that sees the store's statistics and
// indexes, as an opened instance's does.
func servingChecker(b *testing.B) (*workload.Workload, *core.Checker) {
	w := workload.MOT(workload.Spec{Scale: 2, Seed: 1})
	store, err := baav.Map(w.DB, w.Schema, kv.NewCluster(kv.EngineHash, 4), baav.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, ix := range [][3]string{
		{"ix_obs_road", "OBSERVATION", "road_id"},
		{"ix_vehicle_year", "VEHICLE", "year"},
		{"ix_obs_speed", "OBSERVATION", "speed"},
	} {
		if _, err := store.CreateIndex(ix[0], ix[1], ix[2], w.DB.Relation(ix[1]).Tuples); err != nil {
			b.Fatal(err)
		}
	}
	return w, core.NewChecker(w.Schema, baav.RelSchemas(w.DB)).WithStats(store).WithIndexes(store.Indexes())
}

// BenchmarkPlan times Checker.Plan — minimization, the access-path search
// and the result shape — over each serving template, parsed outside the
// timer: what a plan-cache miss costs beyond the parse.
func BenchmarkPlan(b *testing.B) {
	w, checker := servingChecker(b)
	for _, tmpl := range servingTemplates {
		q := ra.MustParse(tmpl.sql, w.DB)
		b.Run(tmpl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := checker.Plan(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBind times kba.Bind of each serving template's plan to one
// parameter list: the per-execution copy of the plan nodes that carry a
// slot.
func BenchmarkBind(b *testing.B) {
	w, checker := servingChecker(b)
	for _, tmpl := range servingTemplates {
		info, err := checker.Plan(ra.MustParse(tmpl.sql, w.DB))
		if err != nil {
			b.Fatal(err)
		}
		params := make([]relation.Value, len(tmpl.params))
		for i, p := range tmpl.params {
			params[i] = relation.Int(p)
		}
		b.Run(tmpl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kba.Bind(info.Root, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
