// Command zidian-bench regenerates the paper's experimental tables and
// figures (Section 9) on the in-process cluster, plus the two emulated-RTT
// sweeps of the serving layer. `zidian-bench -h` lists the experiments;
// -exp all runs every one in that order. Serving-layer speed on real CPU
// cost is measured by benchmark/ (see benchmark/README.md), not here.
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
	"strings"
	"time"

	"zidian/internal/bench"
)

// options are the parsed flags an experiment may read.
type options struct {
	cfg      bench.Config
	clients  int
	requests int
	jsonOut  string
	opDelay  time.Duration
}

// jsonPath resolves -json against an experiment's default report file.
func (o *options) jsonPath(def string) string {
	switch o.jsonOut {
	case "":
		return def
	case "none":
		return ""
	default:
		return o.jsonOut
	}
}

// experiment is one -exp value. An entry with workloads reads -workload and,
// under -exp all, runs once per listed workload instead.
type experiment struct {
	name      string
	title     string
	workloads []string
	run       func(out io.Writer, o *options, workload string) error
}

// experiments is the one list of what zidian-bench runs: -exp dispatches on
// name, -exp all walks it in order, and the -exp help is built from it.
var experiments = []experiment{
	{"1case", "exp1-case (Table 2)", nil, func(out io.Writer, o *options, _ string) error {
		return bench.Exp1Case(out, o.cfg)
	}},
	{"1", "exp1-overall (Table 3)", nil, func(out io.Writer, o *options, _ string) error {
		return bench.Exp1Overall(out, o.cfg)
	}},
	{"2", "exp2 (Figure 3)", []string{"mot", "tpch", "airca"}, func(out io.Writer, o *options, w string) error {
		return bench.Exp2(out, o.cfg, w, nil)
	}},
	{"3p", "exp3-workers (Figure 4a-d)", []string{"mot", "tpch"}, func(out io.Writer, o *options, w string) error {
		return bench.Exp3Workers(out, o.cfg, w, nil)
	}},
	{"3d", "exp3-data (Figure 4e-h)", []string{"mot", "tpch"}, func(out io.Writer, o *options, w string) error {
		return bench.Exp3Data(out, o.cfg, w, nil)
	}},
	{"4", "exp4-throughput", nil, func(out io.Writer, o *options, _ string) error {
		return bench.Exp4Throughput(out, o.cfg)
	}},
	{"4h", "exp4-horizontal", nil, func(out io.Writer, o *options, _ string) error {
		return bench.Exp4Horizontal(out, o.cfg, nil)
	}},
	{"ablation", "ablation", nil, func(out io.Writer, o *options, _ string) error {
		return bench.Ablation(out, o.cfg)
	}},
	{"mixed", "mixed (write-fraction sweep, 200µs service time → BENCH_mixed.json)", nil, func(out io.Writer, o *options, _ string) error {
		return bench.ExpMixed(out, o.cfg, o.jsonPath("BENCH_mixed.json"), o.clients, o.requests)
	}},
	{"scaleout", "scaleout (read scaling over 1/2/4/8 nodes → BENCH_scaleout.json)", nil, func(out io.Writer, o *options, _ string) error {
		var delays []time.Duration
		if o.opDelay > 0 {
			delays = []time.Duration{o.opDelay}
		}
		return bench.ExpScaleout(out, o.cfg, o.jsonPath("BENCH_scaleout.json"), o.clients, o.requests, delays)
	}},
}

// names lists the table's -exp values in order.
func names(table []experiment) string {
	ns := make([]string, len(table))
	for i, e := range table {
		ns[i] = e.name
	}
	return strings.Join(ns, ", ")
}

// dispatch runs the experiment called exp, or the whole table for "all",
// and returns the process exit code: 1 when an experiment fails, 2 when exp
// names none.
func dispatch(table []experiment, exp, workload string, o *options, out, errw io.Writer) int {
	matched := false
	for _, e := range table {
		if exp != "all" && exp != e.name {
			continue
		}
		matched = true
		ws := []string{workload}
		if exp == "all" && e.workloads != nil {
			ws = e.workloads
		}
		for _, w := range ws {
			heading := e.title
			if e.workloads != nil {
				heading += " [" + w + "]"
			}
			fmt.Fprintf(out, "==> %s\n", heading)
			if err := e.run(out, o, w); err != nil {
				fmt.Fprintf(errw, "zidian-bench: %s: %v\n", heading, err)
				return 1
			}
			fmt.Fprintln(out)
		}
	}
	if !matched {
		fmt.Fprintf(errw, "zidian-bench: unknown experiment %q (want all, %s)\n", exp, names(table))
		return 2
	}
	return 0
}

func main() {
	var o options
	exp := flag.String("exp", "all", "experiment: all, "+names(experiments))
	workload := flag.String("workload", "mot", "workload for -exp 2, 3p, 3d: mot, airca, tpch")
	flag.Float64Var(&o.cfg.Scale, "scale", 1.0, "dataset scale multiplier")
	flag.IntVar(&o.cfg.Workers, "workers", 8, "SQL-layer workers")
	flag.IntVar(&o.cfg.Nodes, "nodes", 12, "storage nodes")
	flag.Int64Var(&o.cfg.Seed, "seed", 7, "generator seed")
	flag.IntVar(&o.clients, "clients", 64, "concurrent connections for -exp mixed, scaleout")
	flag.IntVar(&o.requests, "requests", 100, "statements per connection for -exp mixed, scaleout")
	flag.StringVar(&o.jsonOut, "json", "", "report path for -exp mixed, scaleout (default BENCH_mixed.json / BENCH_scaleout.json; \"none\" disables)")
	flag.DurationVar(&o.opDelay, "op-delay", 0, "for -exp scaleout: pin the emulated per-node service time to this single value instead of sweeping 0/200µs/1ms")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintln(w, "experiments, in -exp all order:")
		for _, e := range experiments {
			fmt.Fprintf(w, "  %-9s %s\n", e.name, e.title)
		}
	}
	flag.Parse()
	os.Exit(dispatch(experiments, *exp, *workload, &o, os.Stdout, os.Stderr))
}
