package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestSmoke runs the whole pipeline — set-up, gate, closed loop, traced
// pass, probes — on every workload at a tenth of the data and a fraction of
// the time, and checks what the numbers rest on: the emitted names are the
// ones BENCHMARK.json declares, the gate and the loop saw no failure, the
// span tree adds up, and point_zipf is scan-free by the counters.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a server for several seconds")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.Scale = 2
	cfg.Warmup = 200 * time.Millisecond
	cfg.Window = time.Second
	cfg.Setups = 1
	cfg.GateN = 4
	cfg.Trace = true
	cfg.ReplayN = 500
	cfg.ProbeDiv = 20
	cfg.OutDir = t.TempDir()

	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.Name)
	}
	if !equalSets(declared, have) {
		t.Fatalf("workloads: BENCHMARK.json declares %v, the benchmark runs %v", declared, have)
	}

	for _, w := range workloads() {
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d statements failed: %v", w.Name, res.Failed, res.Attempted, res.Failures)
		}
		checkNames(t, w.Name, "end_to_end", spec.EndToEnd, res.EndToEnd)
		checkNames(t, w.Name, "per_layer", spec.PerLayer, res.PerLayer)
		for name, m := range res.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; every one must be positive on every workload", w.Name, name, m.Value)
			}
		}

		hit := res.PerLayer["server.plancache_hit_rate"].Value
		if w.Inline && hit > 0.9 {
			t.Errorf("%s: plan cache hit rate %.3f, literal statements should mostly miss", w.Name, hit)
		}
		if !w.Inline && hit < 0.99 {
			t.Errorf("%s: plan cache hit rate %.3f, want at least 0.99", w.Name, hit)
		}
		if w.Name == "point_zipf" {
			for _, name := range []string{"kv.scan_nexts_per_stmt", "trace.kv_scan_nexts"} {
				if v := res.PerLayer[name].Value; v != 0 {
					t.Errorf("point_zipf is labelled scan-free but %s = %v", name, v)
				}
			}
		}
		if w.WritePct > 0 && res.PerLayer["write_p50_us"].Value <= 0 {
			t.Errorf("%s: no write latency measured", w.Name)
		}
		checkSpanFile(t, filepath.Join(cfg.OutDir, w.Name+".trace.jsonl"), cfg.ReplayN)
	}
}

func equalSets(a, b []string) bool {
	return slices.Equal(slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b)))
}

// checkNames compares the emitted metric names and units with the declared.
func checkNames(t *testing.T, workload, group string, declared []SpecMetric, emitted map[string]Metric) {
	t.Helper()
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, m := range emitted {
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: %s metric %s is emitted but not declared in BENCHMARK.json", workload, group, name)
		case unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := emitted[name]; !ok {
			t.Errorf("%s: %s metric %s is declared in BENCHMARK.json but not emitted", workload, group, name)
		}
	}
}

// checkSpanFile reads the written spans back and checks the tree: every
// statement has one root, children lie inside their parents, and the self
// times under a root add up to the root's duration within 1 %.
func checkSpanFile(t *testing.T, path string, stmts int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	type rec struct {
		Stmt, ID, Parent int
		Name             string
		Start            int64 `json:"start_ns"`
		End              int64 `json:"end_ns"`
	}
	var recs []rec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		recs = append(recs, r)
	}
	self := make([]int64, len(recs))
	rootOf := make([]int, len(recs))
	roots := 0
	for i, r := range recs {
		if r.ID != i || r.End < r.Start {
			t.Errorf("%s: span %d is malformed: %+v", path, i, r)
			return
		}
		self[i] += r.End - r.Start
		rootOf[i] = i
		if r.Parent < 0 {
			roots++
			continue
		}
		p := recs[r.Parent]
		if r.Start < p.Start || r.End > p.End || r.Stmt != p.Stmt {
			t.Errorf("%s: span %d lies outside its parent %d", path, i, r.Parent)
		}
		self[r.Parent] -= r.End - r.Start
		rootOf[i] = rootOf[r.Parent]
	}
	if roots != stmts {
		t.Errorf("%s: %d root spans, want one per statement (%d)", path, roots, stmts)
	}
	sums := map[int]int64{}
	for i, s := range self {
		if s < 0 {
			t.Errorf("%s: span %d (%s) has negative self time %d", path, i, recs[i].Name, s)
		}
		sums[rootOf[i]] += s
	}
	for root, sum := range sums {
		dur := recs[root].End - recs[root].Start
		if diff := sum - dur; diff*100 > dur || -diff*100 > dur {
			t.Errorf("%s: self times under statement %d sum to %d ns, its span is %d ns", path, recs[root].Stmt, sum, dur)
		}
	}
}
