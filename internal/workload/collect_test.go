package workload_test

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"zidian"
	"zidian/internal/workload"
)

// BenchmarkCollectOpen is one forced collection over an opened MOT scale-2
// instance carrying index_scan's three indexes, with the generated database
// held beside it as a serving process holds it: the mark work every GC
// cycle pays before it reaches a statement's garbage. It reports the CPU
// time the collector spent per cycle (gc-cpu-ms/op, from runtime/metrics)
// and the heap objects left per stored row. ns/op is the cycle's wall time,
// which on a heap this small is mostly the wake-up of the mark workers.
func BenchmarkCollectOpen(b *testing.B) {
	w := workload.MOT(workload.Spec{Scale: 2, Seed: 1})
	inst, err := zidian.Open(w.DB, w.Schema, zidian.Options{Engine: "hash", Nodes: 4, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, ddl := range []string{
		"create index ix_obs_speed on OBSERVATION(speed)",
		"create index ix_obs_road on OBSERVATION(road_id)",
		"create index ix_vehicle_year on VEHICLE(year)",
	} {
		if _, err := inst.Exec(ddl); err != nil {
			b.Fatal(err)
		}
	}
	gcCPU := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	runtime.GC()
	metrics.Read(gcCPU)
	before := gcCPU[0].Value.Float64()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.StopTimer()
	metrics.Read(gcCPU)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	b.ReportMetric((gcCPU[0].Value.Float64()-before)*1e3/float64(b.N), "gc-cpu-ms/op")
	b.ReportMetric(float64(mem.HeapObjects)/float64(w.DB.Cardinality()), "objects/row")
	runtime.KeepAlive(inst)
	runtime.KeepAlive(w)
}
