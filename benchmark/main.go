// Command benchmark is the repository's one benchmark: four workloads driven
// through the wire protocol in a closed loop, end-to-end metrics measured
// with tracing off, and a separate traced pass plus layer probes for the
// per-layer metrics. BENCHMARK.json at the repository root names it; see
// README.md beside this file.
//
//	benchmark                                        all four workloads, traced passes included
//	benchmark -repeat 5                              the suite five times: median and quartiles
//	benchmark -compare base.json new.json            verdict per workload × metric
//	benchmark -workload W -seed N -seconds S -trace 0|1
//	                                                 one workload; the last line of standard
//	                                                 output is one JSON object (the driver's form)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	cfg := defaultConfig()
	workload := flag.String("workload", "", "run only this workload and print the driver's JSON line")
	seconds := flag.Int("seconds", int(cfg.Window/time.Second), "length of the measured window of each workload")
	trace := flag.Int("trace", 0, "with -workload: 1 adds the traced pass and the probes and prints the per-layer metrics")
	repeat := flag.Int("repeat", 1, "run the suite this many times and report median and quartiles")
	compareMode := flag.Bool("compare", false, "compare two results.json files given as arguments: base new")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "seed of the statement generator")
	flag.Float64Var(&cfg.Scale, "scale", cfg.Scale, "MOT scale factor (20 = 12 000 vehicles)")
	flag.StringVar(&cfg.OutDir, "out", cfg.OutDir, "directory for results.json and the trace files")
	flag.Parse()
	cfg.Window = time.Duration(*seconds) * time.Second

	var ok bool
	var err error
	switch {
	case *compareMode:
		ok, err = runCompare(flag.Args())
	case *workload != "":
		cfg.Trace = *trace == 1
		ok, err = runOne(*workload, cfg)
	default:
		cfg.Trace = true
		ok, err = runSuite(cfg, *repeat)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne is the driver's form: one workload, and as the last line of
// standard output the result object with the end-to-end metrics (-trace 0)
// or the per-layer metrics (-trace 1).
func runOne(name string, cfg Config) (bool, error) {
	w := workloadByName(name)
	if w == nil {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	if cfg.Trace {
		cfg.Setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		return false, err
	}
	fmt.Printf("C=%d nproc=%d seed=%d scale=%g window=%s\n", res.Clients, runtime.NumCPU(), cfg.Seed, cfg.Scale, cfg.Window)
	printResult(os.Stdout, res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	group := res.EndToEnd
	if cfg.Trace {
		group = res.PerLayer
	}
	for name, m := range group {
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Failed == 0, nil
}

// runSuite runs all four workloads, repeat times over, prints every metric
// and writes results.json.
func runSuite(cfg Config, repeat int) (bool, error) {
	rep := &Report{
		Commit:  commit(),
		Date:    time.Now().UTC().Format(time.RFC3339),
		NProc:   runtime.NumCPU(),
		Clients: parallelism(),
		Seed:    cfg.Seed,
		Scale:   cfg.Scale,
		Seconds: cfg.Window.Seconds(),
		Go:      runtime.Version(),
		Repeat:  repeat,
	}
	fmt.Printf("C=%d nproc=%d seed=%d scale=%g window=%s repeat=%d\n",
		rep.Clients, rep.NProc, cfg.Seed, cfg.Scale, cfg.Window, repeat)
	ok := true
	for i := 0; i < repeat; i++ {
		var run []*WorkloadResult
		for _, w := range workloads() {
			res, err := runWorkload(w, cfg)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.Name, err)
			}
			printResult(os.Stdout, res)
			ok = ok && res.Failed == 0
			run = append(run, res)
		}
		rep.Runs = append(rep.Runs, run)
	}
	rep.summarize()
	if repeat > 1 {
		printSummary(os.Stdout, rep)
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return false, err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return false, err
	}
	return ok, os.WriteFile(filepath.Join(cfg.OutDir, "results.json"), data, 0o644)
}

func runCompare(args []string) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("-compare wants two files: base.json new.json")
	}
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	base, err := readReport(args[0])
	if err != nil {
		return false, err
	}
	next, err := readReport(args[1])
	if err != nil {
		return false, err
	}
	return compare(os.Stdout, spec, base, next), nil
}

// commit names the measured commit when the checkout is a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
