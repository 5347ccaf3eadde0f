// Command zidian-bench regenerates the paper's experimental tables and
// figures (Section 9) on the in-process cluster.
//
// Usage:
//
//	zidian-bench -exp all                # every experiment
//	zidian-bench -exp 1case              # Table 2 (Q1 case study)
//	zidian-bench -exp 1                  # Table 3 (overall averages)
//	zidian-bench -exp 2 -workload mot    # Figure 3a/3b
//	zidian-bench -exp 3p -workload tpch  # Figure 4c/4d
//	zidian-bench -exp 3d -workload mot   # Figure 4e/4f
//	zidian-bench -exp 4                  # KV throughput
//	zidian-bench -exp 4h                 # horizontal scalability
//	zidian-bench -exp server             # serving layer (writes BENCH_server.json)
//	zidian-bench -exp index              # secondary indexes (writes BENCH_index.json)
//	zidian-bench -exp range              # range predicates / ordered posting scans (writes BENCH_range.json)
//	zidian-bench -exp mixed              # write-fraction sweep under an emulated 200µs service time (writes BENCH_mixed.json)
//	zidian-bench -exp replay             # capture→replay fidelity (writes BENCH_replay.json)
//	zidian-bench -exp scaleout           # horizontal read scaling under the emulated service-capacity network (writes BENCH_scaleout.json)
//
// -scale multiplies the dataset sizes; -workers and -nodes set the cluster
// shape (paper defaults: 8 workers, 12 nodes). -exp scaleout sweeps its own
// node counts (1/2/4/8) and, unless -op-delay pins one, emulated per-node
// service times (0/200µs/1ms).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"zidian/internal/bench"
	"zidian/internal/server/loadgen"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: all, 1case, 1, 2, 3p, 3d, 4, 4h, ablation, server, index, range, mixed, replay, scaleout")
		workload = flag.String("workload", "mot", "workload for exp 2/3/server: mot, airca, tpch")
		mix      = flag.String("mix", "point", "query mix for -exp server: point, nonkey, range, mixed")
		scale    = flag.Float64("scale", 1.0, "dataset scale multiplier")
		workers  = flag.Int("workers", 8, "SQL-layer workers")
		nodes    = flag.Int("nodes", 12, "storage nodes")
		seed     = flag.Int64("seed", 7, "generator seed")
		clients  = flag.Int("clients", 64, "concurrent connections for -exp server")
		requests = flag.Int("requests", 100, "statements per connection for -exp server")
		jsonOut  = flag.String("json", "", "report path for -exp server/index/range (default BENCH_server.json / BENCH_index.json / BENCH_range.json; \"none\" disables)")
		opDelay  = flag.Duration("op-delay", 0, "for -exp scaleout: pin the emulated per-node service time to this single value instead of sweeping 0/200µs/1ms")
	)
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Seed: *seed, Nodes: *nodes, Workers: *workers}
	out := os.Stdout

	jsonPath := func(def string) string {
		switch *jsonOut {
		case "":
			return def
		case "none":
			return ""
		default:
			return *jsonOut
		}
	}

	serverBench := func(out io.Writer, cfg bench.Config) error {
		return loadgen.BenchServer(out, loadgen.BenchOptions{
			Workload: *workload,
			Mix:      *mix,
			Scale:    cfg.Scale,
			Seed:     cfg.Seed,
			Nodes:    cfg.Nodes,
			Workers:  cfg.Workers,
			Clients:  *clients,
			Requests: *requests,
			JSONPath: jsonPath("BENCH_server.json"),
		})
	}

	indexBench := func(out io.Writer, cfg bench.Config) error {
		return bench.ExpIndex(out, cfg, jsonPath("BENCH_index.json"))
	}

	rangeBench := func(out io.Writer, cfg bench.Config) error {
		return bench.ExpRange(out, cfg, jsonPath("BENCH_range.json"))
	}

	mixedBench := func(out io.Writer, cfg bench.Config) error {
		return bench.ExpMixed(out, cfg, jsonPath("BENCH_mixed.json"), *clients, *requests)
	}

	scaleoutBench := func(out io.Writer, cfg bench.Config) error {
		var delays []time.Duration
		if *opDelay > 0 {
			delays = []time.Duration{*opDelay}
		}
		return bench.ExpScaleout(out, cfg, jsonPath("BENCH_scaleout.json"), *clients, *requests, delays)
	}

	replayBench := func(out io.Writer, cfg bench.Config) error {
		return loadgen.BenchReplay(out, loadgen.ReplayBenchOptions{
			Workload: *workload,
			Scale:    cfg.Scale,
			Seed:     cfg.Seed,
			Nodes:    cfg.Nodes,
			Workers:  cfg.Workers,
			Clients:  *clients,
			Requests: *requests,
			JSONPath: jsonPath("BENCH_replay.json"),
		})
	}

	run := func(name string, f func() error) {
		fmt.Fprintf(out, "==> %s\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "zidian-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintln(out)
	}

	switch *exp {
	case "1case":
		run("exp1-case", func() error { return bench.Exp1Case(out, cfg) })
	case "1":
		run("exp1-overall", func() error { return bench.Exp1Overall(out, cfg) })
	case "2":
		run("exp2", func() error { return bench.Exp2(out, cfg, *workload, nil) })
	case "3p":
		run("exp3-workers", func() error { return bench.Exp3Workers(out, cfg, *workload, nil) })
	case "3d":
		run("exp3-data", func() error { return bench.Exp3Data(out, cfg, *workload, nil) })
	case "4":
		run("exp4-throughput", func() error { return bench.Exp4Throughput(out, cfg) })
	case "4h":
		run("exp4-horizontal", func() error { return bench.Exp4Horizontal(out, cfg, nil) })
	case "ablation":
		run("ablation", func() error { return bench.Ablation(out, cfg) })
	case "server":
		run("server", func() error { return serverBench(out, cfg) })
	case "index":
		run("index", func() error { return indexBench(out, cfg) })
	case "range":
		run("range", func() error { return rangeBench(out, cfg) })
	case "mixed":
		run("mixed", func() error { return mixedBench(out, cfg) })
	case "replay":
		run("replay", func() error { return replayBench(out, cfg) })
	case "scaleout":
		run("scaleout", func() error { return scaleoutBench(out, cfg) })
	case "all":
		run("exp1-case (Table 2)", func() error { return bench.Exp1Case(out, cfg) })
		run("exp1-overall (Table 3)", func() error { return bench.Exp1Overall(out, cfg) })
		for _, w := range []string{"mot", "tpch"} {
			w := w
			run("exp2 (Figure 3, "+w+")", func() error { return bench.Exp2(out, cfg, w, nil) })
			run("exp3-workers (Figure 4a-d, "+w+")", func() error { return bench.Exp3Workers(out, cfg, w, nil) })
			run("exp3-data (Figure 4e-h, "+w+")", func() error { return bench.Exp3Data(out, cfg, w, nil) })
		}
		run("exp2 (airca)", func() error { return bench.Exp2(out, cfg, "airca", nil) })
		run("exp4-throughput", func() error { return bench.Exp4Throughput(out, cfg) })
		run("exp4-horizontal", func() error { return bench.Exp4Horizontal(out, cfg, nil) })
		run("ablation", func() error { return bench.Ablation(out, cfg) })
		run("server", func() error { return serverBench(out, cfg) })
		run("index", func() error { return indexBench(out, cfg) })
		run("range", func() error { return rangeBench(out, cfg) })
		run("mixed", func() error { return mixedBench(out, cfg) })
		run("replay", func() error { return replayBench(out, cfg) })
		run("scaleout", func() error { return scaleoutBench(out, cfg) })
	default:
		fmt.Fprintf(os.Stderr, "zidian-bench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
