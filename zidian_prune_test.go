package zidian

import (
	"fmt"
	"reflect"
	"testing"

	"zidian/internal/parallel"
	"zidian/internal/ra"
	"zidian/internal/workload"
)

// pruneSuiteMOT are the serving benchmark's index_scan shapes with their
// parameters written in: index lookup, index range, range under a
// pushed-down LIMIT, scan under γ — and the first of them with the filter
// column returned too.
var pruneSuiteMOT = []string{
	"select O.obs_id, O.speed, O.weather from OBSERVATION O where O.road_id = 5",
	"select O.obs_id, O.road_id from OBSERVATION O where O.road_id = 7",
	"select V.vehicle_id, V.color, V.fuel from VEHICLE V where V.year between 2003 and 2004",
	"select O.obs_id, O.direction, O.lane from OBSERVATION O where O.speed between 40 and 45 limit 20",
	"select V.make, COUNT(*) from VEHICLE V group by V.make",
}

var pruneSuiteMOTDDL = []string{
	"create index ix_obs_road on OBSERVATION(road_id)",
	"create index ix_vehicle_year on VEHICLE(year)",
	"create index ix_obs_speed on OBSERVATION(speed)",
}

// pruneLimitSuite adds LIMIT shapes the range and scatter suites lack: the
// limit pushed into the walk, and kept out of it by a residual filter.
var pruneLimitSuite = []string{
	"select I.item_id, I.qty from ITEM I where I.sku between 'SKU-00050' and 'SKU-00149' limit 8",
	"select I.item_id, I.price from ITEM I where I.sku between 'SKU-00050' and 'SKU-00149' and I.qty > 10 limit 8",
	"select distinct I.sku from ITEM I where I.qty between 3 and 5",
}

// TestDifferentialPrunedVsUnpruned runs every plan twice on the same store:
// as Plan resolved it, reading of each block only the columns the plan
// uses, and as UnresolvedCopy strips it, deriving its layouts as it runs
// and reading every column, as every plan did before the required-attribute
// pass. The five query suites, the index-served arms of the ITEM suites,
// the LIMIT shapes and the index_scan shapes, on three engines × {1, 4}
// nodes × {1, 2, 4} workers: the same rows in the same order, and the same
// ExecStats — what was fetched is what is counted — except ShuffleBytes,
// which may only fall, since narrower rows change workers.
func TestDifferentialPrunedVsUnpruned(t *testing.T) {
	pruned := 0
	check := func(inst *Instance, label, src string) {
		t.Helper()
		q, err := ra.Parse(src, inst.db)
		if err != nil {
			t.Fatalf("%s: %q: %v", label, src, err)
		}
		info, err := inst.checker.Plan(q)
		if err != nil {
			t.Fatalf("%s: %q: %v", label, src, err)
		}
		if info.Empty {
			return
		}
		bare := *info
		bare.Root = UnresolvedCopy(t, info.Root)
		narrower := false
		for _, workers := range []int{1, 2, 4} {
			got, gm, err := parallel.RunKBA(info, inst.store, workers)
			if err != nil {
				t.Fatalf("%s p=%d: %q: %v", label, workers, src, err)
			}
			want, wm, err := parallel.RunKBA(&bare, inst.store, workers)
			if err != nil {
				t.Fatalf("%s p=%d: %q unpruned: %v", label, workers, src, err)
			}
			if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s p=%d: %q\npruned plan answers %d rows, unpruned %d, or the same rows in another order\nplan %s",
					label, workers, src, len(got.Rows), len(want.Rows), info.Root)
			}
			gs, ws := gm.ExecStats, wm.ExecStats
			if gs.ShuffleBytes > ws.ShuffleBytes {
				t.Fatalf("%s p=%d: %q shuffles %d bytes pruned, %d unpruned", label, workers, src, gs.ShuffleBytes, ws.ShuffleBytes)
			}
			narrower = narrower || gs.ShuffleBytes < ws.ShuffleBytes
			gs.ShuffleBytes, ws.ShuffleBytes = 0, 0
			if gs != ws {
				t.Fatalf("%s p=%d: %q\npruned   %+v\nunpruned %+v", label, workers, src, gs, ws)
			}
		}
		if narrower {
			pruned++
		}
	}
	eachSuiteQuery(t, check)
	if pruned == 0 {
		t.Fatal("no plan shuffled fewer bytes pruned than unpruned: the two arms ran the same thing")
	}
}

// eachSuiteQuery hands check every query of the differential suites, each
// with the instance it runs on: the three workload suites at scale 0.1, the
// range, scatter and LIMIT suites over ITEM before and after their indexes,
// and the index_scan shapes over MOT scale 1 — on three engines × {1, 4}
// nodes.
func eachSuiteQuery(t *testing.T, check func(inst *Instance, label, src string)) {
	t.Helper()
	for _, eng := range rangeEngines {
		for _, nodes := range []int{1, 4} {
			cfg := fmt.Sprintf("%s/%d nodes", eng, nodes)
			for _, name := range []string{"mot", "airca", "tpch"} {
				w, err := workload.Generate(name, workload.Spec{Scale: 0.1, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				inst, err := Open(w.DB, w.Schema, Options{Engine: eng, Nodes: nodes})
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range w.Queries {
					check(inst, cfg+"/"+name+"/"+q.Name, q.SQL)
				}
			}

			db, bv := rangeItemsDB(t)
			inst, err := Open(db, bv, Options{Engine: eng, Nodes: nodes})
			if err != nil {
				t.Fatal(err)
			}
			items := append(append(append([]string{}, rangeSuite...), scatterSuite...), pruneLimitSuite...)
			for _, src := range items {
				check(inst, cfg+"/item/scan", src)
			}
			for _, ddl := range rangeSuiteDDL {
				if _, err := inst.Exec(ddl); err != nil {
					t.Fatal(err)
				}
			}
			for _, src := range items {
				check(inst, cfg+"/item/indexed", src)
			}

			// Scale 1: large enough for the planner to pick the indexes.
			w := workload.MOT(workload.Spec{Scale: 1, Seed: 1})
			inst, err = Open(w.DB, w.Schema, Options{Engine: eng, Nodes: nodes})
			if err != nil {
				t.Fatal(err)
			}
			for _, ddl := range pruneSuiteMOTDDL {
				if _, err := inst.Exec(ddl); err != nil {
					t.Fatal(err)
				}
			}
			for _, src := range pruneSuiteMOT {
				check(inst, cfg+"/index_scan", src)
			}
		}
	}
}
