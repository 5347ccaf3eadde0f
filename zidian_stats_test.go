package zidian_test

import (
	"fmt"
	"strings"
	"testing"

	"zidian"
	"zidian/internal/ra"
	"zidian/internal/workload"
)

// statsSuite are aggregates the statistics headers answer: a key prefix,
// a later key attribute alone, a whole two-attribute key, and single-key
// groups over int and float columns.
var statsSuite = map[string][]string{
	"mot": {
		"select V.make, COUNT(*) from VEHICLE V group by V.make",
		"select V.model, COUNT(*), MIN(V.year), MAX(V.year) from VEHICLE V group by V.model",
		"select V.make, V.model, MAX(V.year), SUM(V.year), COUNT(*) from VEHICLE V group by V.make, V.model",
		"select O.region, COUNT(*), SUM(O.speed), AVG(O.speed) from OBSERVATION O group by O.region",
	},
	"tpch": {
		"select PS.suppkey, SUM(PS.availqty), MIN(PS.supplycost), COUNT(*) from PARTSUPP PS group by PS.suppkey",
		"select L.shipmode, MIN(L.orderkey), SUM(L.extendedprice), COUNT(*) from LINEITEM L group by L.shipmode",
	},
}

// TestStatsAggregatesMatchReference: every statistics-backed aggregate
// answers what the reference evaluator answers — the same rows, each value
// of the same kind (SUM, MIN and MAX of an int column are ints) — on every
// engine, over one node and four, at one worker and four.
func TestStatsAggregatesMatchReference(t *testing.T) {
	for name, suite := range statsSuite {
		w, err := workload.Generate(name, workload.Spec{Scale: 0.1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		wants := make([]*zidian.Result, len(suite))
		for i, sql := range suite {
			if wants[i], err = ra.Evaluate(ra.MustParse(sql, w.DB), w.DB); err != nil {
				t.Fatal(err)
			}
			wants[i].Sort()
		}
		for _, eng := range zidian.GridEngines {
			for _, nodes := range []int{1, 4} {
				for _, workers := range []int{1, 4} {
					inst, err := zidian.Open(w.DB, w.Schema, zidian.Options{Engine: eng, Nodes: nodes, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					for i, sql := range suite {
						label := fmt.Sprintf("%s/%d nodes/p=%d: %q", eng, nodes, workers, sql)
						got, _, err := inst.Query(sql)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if plan, err := inst.Explain(sql); err != nil || !strings.Contains(plan, "γstats") {
							t.Fatalf("%s: plan %s, %v", label, plan, err)
						}
						got.Sort()
						if !got.Equal(wants[i]) {
							t.Fatalf("%s answers\n%v\nthe reference evaluator\n%v", label, got.Rows, wants[i].Rows)
						}
						for r, row := range got.Rows {
							for c, v := range row {
								if want := wants[i].Rows[r][c]; v.Kind != want.Kind {
									t.Fatalf("%s: row %v column %d is %v of kind %v, the reference's %v of kind %v", label, row, c, v, v.Kind, want, want.Kind)
								}
							}
						}
					}
				}
			}
		}
	}
}
