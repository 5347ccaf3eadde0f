package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"zidian/internal/relation"
)

// Config sizes one workload run. The command line sets Seed, Scale, Window
// and Trace; the rest are the benchmark's constants, which the smoke test
// shrinks.
type Config struct {
	Seed   int64
	Scale  float64
	Warmup time.Duration
	Window time.Duration
	// Slices is the number of equal sub-windows the window is cut into; the
	// timing metrics are medians over them.
	Slices int
	// Setups is how many times the system is set up; setup_s is the median.
	Setups int
	// GateN is the number of bindings per template the gate checks.
	GateN int
	// Trace adds the traced pass and the layer probes.
	Trace bool
	// ReplayN overrides the workload's traced-pass length when positive.
	ReplayN int
	// ProbeDiv divides the probes' call counts.
	ProbeDiv int
	// OutDir receives <workload>.trace.jsonl.
	OutDir string
}

func defaultConfig() Config {
	return Config{
		Seed:   7,
		Scale:  20,
		Warmup: 2 * time.Second,
		Window: 15 * time.Second,
		Slices: 5,
		Setups: 5,
		GateN:  32,
		OutDir: "out",

		ProbeDiv: 1,
	}
}

// Metric is one measured value. N is the number of samples behind a timing
// (0 where that has no meaning).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
}

// WorkloadResult is everything one workload run measured.
type WorkloadResult struct {
	Workload  string            `json:"workload"`
	Clients   int               `json:"clients"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]Metric `json:"end_to_end"`
	PerLayer  map[string]Metric `json:"per_layer"`
}

// fail counts n failed statements or checks and keeps the first few
// messages for the report.
func (r *WorkloadResult) fail(n int, msgs ...string) {
	r.Failed += int64(n)
	for _, m := range msgs {
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, m)
		}
	}
}

// runWorkload sets the system up, gates it for correctness, measures the
// closed-loop window with the benchmark's tracing off, and — when
// cfg.Trace — stops the server and runs the traced pass and the probes.
func runWorkload(w *Workload, cfg Config) (*WorkloadResult, error) {
	began := time.Now()
	step := func(what string) {
		fmt.Fprintf(os.Stderr, "%s: %s done at %.1fs\n", w.Name, what, time.Since(began).Seconds())
	}
	res := &WorkloadResult{
		Workload: w.Name,
		Clients:  parallelism(),
		EndToEnd: map[string]Metric{},
		PerLayer: map[string]Metric{},
	}

	var env *Env
	var setups []float64
	for i := 0; i < cfg.Setups; i++ {
		if env != nil {
			if err := env.Stop(); err != nil {
				return nil, err
			}
			env = nil // let the collector have it while the next one is built
		}
		e, d, err := setUp(w, cfg.Scale)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		env = e
		setups = append(setups, d.Seconds())
	}
	defer env.Stop() // idempotent: the traced pass stops the server itself
	res.EndToEnd["setup_s"] = Metric{Value: median(setups), Unit: "s", N: int64(len(setups))}
	step("set-up")

	attempted, failures, err := gate(env, w, cfg.Seed, cfg.GateN)
	if err != nil {
		return nil, fmt.Errorf("gate: %w", err)
	}
	res.Attempted += int64(attempted)
	res.fail(len(failures), failures...)
	step("gate")

	run, err := runLoad(env, w, cfg.Seed, cfg.Warmup, cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	res.Attempted += int64(run.sent)
	res.fail(run.failed, run.errs...)
	if len(run.samples) == 0 {
		return nil, fmt.Errorf("load: no statement completed in the window (%v)", run.errs)
	}
	loadMetrics(res, run, cfg.Slices)
	step("load")

	userBytes := 0
	for _, rel := range env.DB.Names() {
		for _, t := range env.DB.Relation(rel).Tuples {
			userBytes += len(relation.EncodeTuple(t))
		}
	}
	res.EndToEnd["store_bytes_per_user_byte"] = Metric{
		Value: float64(env.Inst.Store().Cluster.SizeBytes()) / float64(userBytes), Unit: "ratio"}
	net := run.all.net
	run = nil // the samples are the benchmark's, not the system's: drop them before measuring the heap
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.EndToEnd["heap_after_mb"] = Metric{Value: float64(mem.HeapAlloc) / (1 << 20), Unit: "MB"}

	if cfg.Trace {
		if err := env.Stop(); err != nil {
			return nil, err
		}
		replayed, err := tracedPass(env, w, cfg, res)
		if err != nil {
			return nil, err
		}
		for rel, n := range replayed.net {
			net[rel] += n
		}
		step("traced pass")
		probes, err := runProbes(env, cfg.ProbeDiv)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for _, p := range probes {
			res.PerLayer[p.name+"_ns"] = Metric{Value: p.nsPerOp, Unit: "ns", N: p.ops}
			res.PerLayer[p.name+"_allocs"] = Metric{Value: p.allocsPerOp, Unit: "count", N: p.ops}
		}
		step("probes")
	}
	mismatches := checkRowCounts(env, net)
	res.fail(len(mismatches), mismatches...)
	return res, nil
}

// loadMetrics derives the end-to-end metrics and the counted per-layer
// metrics from the measured window.
func loadMetrics(res *WorkloadResult, run *loadRun, nSlices int) {
	all := sliceStats(run.samples, run.window, nSlices, func(s sample) bool { return true })
	writes := sliceStats(run.samples, run.window, nSlices, func(s sample) bool { return s.write })
	stmts := float64(len(run.samples))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	delta := func(name string) float64 { return run.after.prom[name] - run.before.prom[name] }
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	e, l := res.EndToEnd, res.PerLayer
	e["qps"] = Metric{Value: all.rate, Unit: "1/s", N: all.n}
	e["p50_us"] = Metric{Value: us(all.p50), Unit: "us", N: all.n}
	e["p99_us"] = Metric{Value: us(all.p99), Unit: "us", N: all.n}
	e["kv_gets_per_stmt"] = Metric{Value: per(delta(`zidian_kv_ops_total{op="get"}`), stmts), Unit: "count"}
	e["kv_bytes_read_per_stmt"] = Metric{Value: per(delta(`zidian_kv_bytes_total{dir="read"}`), stmts), Unit: "bytes"}

	l["write_p50_us"] = Metric{Value: us(writes.p50), Unit: "us", N: writes.n}
	l["write_p99_us"] = Metric{Value: us(writes.p99), Unit: "us", N: writes.n}
	l["error_rate"] = Metric{Value: per(float64(run.failed), stmts+float64(run.failed)), Unit: "ratio"}
	l["kv_bytes_written_per_write"] = Metric{
		Value: per(delta(`zidian_kv_bytes_total{dir="written"}`), float64(run.timed.userBytes)), Unit: "ratio"}

	hits, misses := delta(`zidian_plan_cache_events_total{event="hit"}`), delta(`zidian_plan_cache_events_total{event="miss"}`)
	l["server.plancache_hit_rate"] = Metric{Value: per(hits, hits+misses), Unit: "ratio"}
	l["server.plancache_evictions_per_stmt"] = Metric{
		Value: per(delta(`zidian_plan_cache_events_total{event="eviction"}`), stmts), Unit: "count"}
	lat := run.after.prom.histSince(run.before.prom, "zidian_query_duration_seconds")
	l["server.stmt_p50_us"] = Metric{Value: lat.quantile(0.50) * 1e6, Unit: "us", N: int64(lat.count)}
	l["server.stmt_p99_us"] = Metric{Value: lat.quantile(0.99) * 1e6, Unit: "us", N: int64(lat.count)}
	l["client.wire_gap_p50_us"] = Metric{Value: us(all.p50) - lat.quantile(0.50)*1e6, Unit: "us"}
	adm := run.after.prom.histSince(run.before.prom, "zidian_admission_wait_seconds")
	l["server.admission_wait_p99_us"] = Metric{Value: adm.quantile(0.99) * 1e6, Unit: "us", N: int64(adm.count)}
	l["kv.scan_nexts_per_stmt"] = Metric{Value: per(delta(`zidian_kv_ops_total{op="scan_next"}`), stmts), Unit: "count"}
	l["index.posting_reads_per_stmt"] = Metric{Value: per(delta("zidian_index_posting_reads_total"), stmts), Unit: "count"}
	l["baav.blocks_per_stmt"] = Metric{Value: per(delta("zidian_blocks_fetched_total"), stmts), Unit: "count"}
	nWrites := float64(run.timed.writes)
	l["kv.puts_per_write"] = Metric{Value: per(delta(`zidian_kv_ops_total{op="put"}`), nWrites), Unit: "count"}
	l["kv.deletes_per_write"] = Metric{Value: per(delta(`zidian_kv_ops_total{op="delete"}`), nWrites), Unit: "count"}
	batch := run.after.prom.histSince(run.before.prom, "zidian_commit_batch_size")
	l["zidian.commit_batch_mean"] = Metric{Value: batch.mean(), Unit: "count", N: int64(batch.count)}
	l["baav.versions_live_end"] = Metric{Value: run.after.prom["zidian_mvcc_versions_live"], Unit: "count"}
	l["baav.versions_reclaimed"] = Metric{Value: delta("zidian_mvcc_versions_reclaimed_total"), Unit: "count"}
	// The load generator shares the process, so the Go runtime figures
	// include its allocations; they compare between commits, not to zero.
	b, a := &run.before.mem, &run.after.mem
	l["go.allocs_per_stmt"] = Metric{Value: per(float64(a.Mallocs-b.Mallocs), stmts), Unit: "count"}
	l["go.alloc_bytes_per_stmt"] = Metric{Value: per(float64(a.TotalAlloc-b.TotalAlloc), stmts), Unit: "bytes"}
	l["go.gc_pause_total_ms"] = Metric{Value: float64(a.PauseTotalNs-b.PauseTotalNs) / 1e6, Unit: "ms", N: int64(a.NumGC - b.NumGC)}
}

// timing is the steady-state summary of a set of samples: each figure is
// the median over the window's slices of that slice's own figure, so one
// slow second in a shared sandbox does not decide the run.
type timing struct {
	rate     float64 // completions per second
	p50, p99 time.Duration
	n        int64
}

func sliceStats(samples []sample, window time.Duration, n int, keep func(sample) bool) timing {
	slice := window / time.Duration(n)
	buckets := make([][]time.Duration, n)
	var total int64
	for _, s := range samples {
		if !keep(s) {
			continue
		}
		i := int(s.end / slice)
		if i >= n { // the completions of statements in flight at the deadline
			continue
		}
		buckets[i] = append(buckets[i], s.lat)
		total++
	}
	var rates, p50s, p99s []float64
	for _, b := range buckets {
		rates = append(rates, float64(len(b))/slice.Seconds())
		if len(b) == 0 {
			continue
		}
		slices.Sort(b)
		p50s = append(p50s, float64(b[len(b)/2]))
		p99s = append(p99s, float64(b[len(b)*99/100]))
	}
	return timing{rate: median(rates), p50: time.Duration(median(p50s)), p99: time.Duration(median(p99s)), n: total}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	_, m, _ := quartiles(v)
	return m
}

// opMetrics maps the executor's operator names to per-layer metric stems;
// operators outside the map are reported together as op_other. Every stem is
// reported by every workload, zero when the operator never ran.
var opMetrics = map[string]string{
	"Const": "const", "Extend": "extend", "IndexLookup": "indexlookup", "IndexRange": "indexrange",
	"ScanKV": "scan", "Join": "join", "Select": "select", "Project": "project", "GroupBy": "groupby",
}

var opStems = []string{"const", "extend", "indexlookup", "indexrange", "scan", "join", "select", "project", "groupby", "other"}

// tracedPass replays twice the workload's fixed statement count through the
// statement-path replica, half of it with spans on, and reports phase self
// times, operator self times, the traced half's exact counts and the
// overhead of the spans themselves. It returns the writes the pass made.
func tracedPass(env *Env, w *Workload, cfg Config, res *WorkloadResult) (*ledger, error) {
	n := w.ReplayN
	if cfg.ReplayN > 0 {
		n = cfg.ReplayN
	}
	g := NewGen(w, cfg.Seed, res.Clients, env.NVehicles) // a stream the load loop never used
	stmts := make([]Stmt, 2*n)
	for i := range stmts {
		stmts[i] = g.Next()
	}
	lines, err := encodeRequests(stmts)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	on, err := replay(env, lines, stmts, newTracer(n*12))
	if err != nil {
		return nil, err
	}
	res.Attempted += int64(len(stmts))
	n = on.stmts[1]

	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(cfg.OutDir, w.Name+".trace.jsonl"), on.spans); err != nil {
		return nil, err
	}
	for _, self := range selfTimes(on.spans) {
		if self < 0 {
			res.fail(1, "trace: a span's children cover more than the span")
			break
		}
	}

	l := res.PerLayer
	selfNs, durNs, count := phaseTotals(on.spans)
	for p := phase(0); p < numPhases; p++ {
		l[phaseNames[p]] = Metric{Value: float64(selfNs[p]) / float64(n), Unit: "ns", N: count[p]}
	}
	// The root span reports the statement's whole duration; its self time is
	// what no phase span covers.
	l[phaseNames[phStmt]] = Metric{Value: float64(durNs[phStmt]) / float64(n), Unit: "ns", N: count[phStmt]}
	l["stmt.unattributed_ns"] = Metric{Value: float64(selfNs[phStmt]) / float64(n), Unit: "ns", N: count[phStmt]}
	meanOff := float64(on.wall[0]) / float64(on.stmts[0])
	meanOn := float64(on.wall[1]) / float64(on.stmts[1])
	l["trace.overhead_pct"] = Metric{Value: 100 * (meanOn - meanOff) / meanOff, Unit: "%", N: int64(n)}

	byStem := map[string]*opTotal{}
	for _, stem := range opStems {
		byStem[stem] = &opTotal{}
	}
	for name, t := range on.ops {
		stem, ok := opMetrics[name]
		if !ok {
			stem = "other"
		}
		byStem[stem].selfNs += t.selfNs
		byStem[stem].kvOps += t.kvOps
		byStem[stem].count += t.count
	}
	for stem, t := range byStem {
		l["parallel.op_"+stem+"_ns"] = Metric{Value: float64(t.selfNs) / float64(n), Unit: "ns", N: t.count}
		l["parallel.op_"+stem+"_kv_ops"] = Metric{Value: float64(t.kvOps) / float64(n), Unit: "count", N: t.count}
	}

	l["trace.kv_gets"] = Metric{Value: float64(on.counts.gets), Unit: "count", N: int64(n)}
	l["trace.kv_scan_nexts"] = Metric{Value: float64(on.counts.scanNexts), Unit: "count", N: int64(n)}
	l["trace.posting_reads"] = Metric{Value: float64(on.counts.postings), Unit: "count", N: int64(n)}
	l["trace.blocks"] = Metric{Value: float64(on.counts.blocks), Unit: "count", N: int64(n)}
	return on.ledger, nil
}
