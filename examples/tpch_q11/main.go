// The paper's running example (Examples 1, 3 and 7; Table 2): TPC-H query
// q11 simplified, answered over a BaaV store by the chase-generated plan
//
//	group_by((("GERMANY" ∝ ~NATION) ∝ ~SUPPLIER) ∝ ~PARTSUPP,
//	         PS.suppkey, SUM(PS.supplycost))
//
// and compared against the TaaV baseline that scans all three relations.
package main

import (
	"fmt"
	"log"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kv"
	"zidian/internal/parallel"
	"zidian/internal/ra"
	"zidian/internal/taav"
	"zidian/internal/workload"
)

func main() {
	w := workload.TPCH(workload.Spec{Scale: 1, Seed: 7})
	fmt.Printf("TPC-H: %d tuples across %d relations\n", w.DB.Cardinality(), len(w.DB.Schemas()))

	profile := kv.ProfileHStore // HBase-like storage (the paper's SoH)
	nodes, workers := 8, 8

	baavStore, err := baav.Map(w.DB, w.Schema, kv.NewCluster(profile.EngineKind(), nodes), baav.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	taavStore, err := taav.Map(w.DB, kv.NewCluster(profile.EngineKind(), nodes))
	if err != nil {
		log.Fatal(err)
	}

	q, err := ra.Parse(workload.PaperQ1, w.DB)
	if err != nil {
		log.Fatal(err)
	}
	checker := core.NewChecker(w.Schema, baav.RelSchemas(w.DB)).WithStats(baavStore)
	info, err := checker.Plan(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nKBA plan (scan-free = %v):\n  %s\n", info.ScanFree, info.Root)

	// Zidian: interleaved parallel execution of the KBA plan.
	before := baavStore.Cluster.Metrics()
	zRes, zM, err := parallel.RunKBA(info, baavStore, workers)
	if err != nil {
		log.Fatal(err)
	}
	zDelta := baavStore.Cluster.Metrics().Sub(before)

	// Baseline: full retrieval + parallel hash joins.
	before = taavStore.Cluster.Metrics()
	bRes, bM, err := parallel.RunTaaV(q, taavStore, workers)
	if err != nil {
		log.Fatal(err)
	}
	bDelta := taavStore.Cluster.Metrics().Sub(before)

	if !zRes.Equal(bRes) {
		log.Fatal("answers differ!")
	}
	fmt.Printf("\nboth systems agree on %d result groups; first rows:\n", len(zRes.Rows))
	for i, row := range zRes.Rows {
		if i == 5 {
			break
		}
		fmt.Printf("  suppkey=%v total=%v\n", row[0], row[1])
	}

	zSim := profile.QueryUS(zDelta, zM.ShuffleBytes, nodes, workers) / 1000
	bSim := profile.QueryUS(bDelta, bM.ShuffleBytes, nodes, workers) / 1000
	fmt.Printf("\n%-22s %12s %12s %10s\n", "Table 2 (SoH)", "baseline", "Zidian", "ratio")
	fmt.Printf("%-22s %12.2f %12.2f %9.1fx\n", "time (ms, simulated)", bSim, zSim, bSim/zSim)
	fmt.Printf("%-22s %12d %12d %9.1fx\n", "#data (values)", bM.DataValues, zM.DataValues,
		float64(bM.DataValues)/float64(zM.DataValues))
	fmt.Printf("%-22s %12d %12d %9.1fx\n", "#get", bDelta.Gets+bDelta.ScanNexts, zDelta.Gets+zDelta.ScanNexts,
		float64(bDelta.Gets+bDelta.ScanNexts)/float64(zDelta.Gets+zDelta.ScanNexts))
	fmt.Printf("%-22s %12.3f %12.3f %9.1fx\n", "comm (MB)",
		float64(bM.BytesRead+bM.ShuffleBytes)/(1<<20),
		float64(zM.BytesRead+zM.ShuffleBytes)/(1<<20),
		float64(bM.BytesRead+bM.ShuffleBytes)/float64(zM.BytesRead+zM.ShuffleBytes))
}
