package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"zidian/internal/golden"
	"zidian/internal/kv"
	"zidian/internal/workload"
)

// TestExpFloorGolden: the deterministic columns of the paper's experiments
// at tinyConfig are what testdata/exp_floor.txt holds. Per system, with and
// without Zidian: #get, #data and logical MB (bytes read plus shuffled) of
// Exp-1's case study and overall table, Exp-2, Exp-3 over workers and over
// data, and the kv gets and puts of Exp-4's reads and writes and of its
// horizontal sweep; per workload query, the planner's scan-free label; and
// the ablation's #get, #data, pairs and gets-per-fetch columns. Simulated
// and wall times, Tpms and byte sizes are left out: they move with cost
// profiles and storage formats, not with what a plan reads.
func TestExpFloorGolden(t *testing.T) {
	cfg := tinyConfig().normalized()
	var b strings.Builder
	env := func(name string, scale float64, nodes int) *Env {
		t.Helper()
		e, err := NewEnv(name, scale, cfg.Seed, nodes, kv.Profiles())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	suite := func(cell string, e *Env, queries []workload.Query, workers int) {
		t.Helper()
		for _, sys := range e.Systems {
			for _, zidian := range []bool{false, true} {
				r, err := e.RunSuite(sys, zidian, queries, workers)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s %s gets=%d data=%d mb=%.6f\n", cell, r.System, r.Gets, r.Data, r.CommMB)
			}
		}
	}

	tpch := env("tpch", cfg.Scale*baseScale("tpch"), cfg.Nodes)
	suite("exp1-case", tpch, []workload.Query{{Name: "tq09_important_stock"}}, cfg.Workers)
	for _, name := range []string{"mot", "airca", "tpch"} {
		e := env(name, cfg.Scale*baseScale(name), cfg.Nodes)
		for _, q := range e.Workload.Queries {
			fmt.Fprintf(&b, "scan-free %s %s planned=%t labelled=%t\n", name, q.Name, e.Plan(q.Name).ScanFree, q.ScanFree)
		}
		suite("exp1-overall "+name, e, e.Workload.Queries, cfg.Workers)
	}
	for _, scale := range []float64{1, 2} {
		e := env("mot", cfg.Scale*baseScale("mot")*scale/4, cfg.Nodes)
		suite(fmt.Sprintf("exp2 mot ×%g s.f.", scale), e, e.Workload.ScanFreeQueries(), 1)
		suite(fmt.Sprintf("exp2 mot ×%g non-s.f.", scale), e, e.Workload.NonScanFreeQueries(), 1)
	}
	for _, p := range []int{2, 4} {
		e := env("mot", cfg.Scale*baseScale("mot"), p)
		suite(fmt.Sprintf("exp3-workers mot p=%d", p), e, e.Workload.Queries, p)
	}
	for _, scale := range []float64{1, 2} {
		e := env("tpch", cfg.Scale*baseScale("tpch")*scale/4, cfg.Nodes)
		suite(fmt.Sprintf("exp3-data tpch ×%g", scale), e, e.Workload.Queries, cfg.Workers)
	}

	exp4 := func(cell string, e *Env, n int) {
		t.Helper()
		before := make([]kv.Snapshot, 0, 2*len(e.Systems))
		for _, sys := range e.Systems {
			before = append(before, sys.Taav.Cluster.Metrics(), sys.Baav.Cluster.Metrics())
		}
		if _, err := measureThroughput(e, cfg, n, n); err != nil {
			t.Fatal(err)
		}
		for i, sys := range e.Systems {
			for j, d := range []kv.Snapshot{sys.Taav.Cluster.Metrics().Sub(before[2*i]), sys.Baav.Cluster.Metrics().Sub(before[2*i+1])} {
				fmt.Fprintf(&b, "%s %s gets=%d puts=%d\n", cell, SystemLabel(sys.Profile, j == 1), d.Gets+d.ScanNexts, d.Puts)
			}
		}
	}
	exp4("exp4", env("mot", cfg.Scale*baseScale("mot"), cfg.Nodes), 500)
	for _, nodes := range []int{2, 8} {
		exp4(fmt.Sprintf("exp4-horizontal nodes=%d", nodes), env("mot", cfg.Scale*baseScale("mot")*float64(nodes)/8, nodes), 400)
	}

	var out bytes.Buffer
	if err := Ablation(&out, cfg); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 5 && (f[0] == "interleaved" || f[0] == "fetch-all"):
			fmt.Fprintf(&b, "ablation %s gets=%s data=%s mb=%s\n", f[0], f[2], f[3], f[4])
		case len(f) == 4 && f[0] == "full" && f[1] == "group-by":
			fmt.Fprintf(&b, "ablation full-group-by data=%s\n", f[2])
		case len(f) == 3 && f[0] >= "0" && f[0] <= "9":
			fmt.Fprintf(&b, "ablation threshold=%s pairs=%s gets=%s\n", f[0], f[1], f[2])
		}
	}
	golden.Check(t, "testdata/exp_floor.txt", b.String())
}
