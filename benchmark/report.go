package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// Spec is BENCHMARK.json, the contract at the root of the repository: the
// workloads, and for every metric its unit, direction and — for end-to-end
// metrics — the share by which it may worsen before that is a regression.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory or one of its
// parents (the benchmark runs from its own directory, one below the root).
func loadSpec() (*Spec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s Spec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &s, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// Report is out/results.json: where and how the suite ran, every repeat's
// full results, and per workload and metric the median and quartiles over
// the repeats.
type Report struct {
	Commit  string                        `json:"commit"`
	Date    string                        `json:"date"`
	NProc   int                           `json:"nproc"`
	Clients int                           `json:"clients"`
	Seed    int64                         `json:"seed"`
	Scale   float64                       `json:"scale"`
	Seconds float64                       `json:"seconds"`
	Go      string                        `json:"go"`
	Repeat  int                           `json:"repeat"`
	Runs    [][]*WorkloadResult           `json:"runs"`
	Summary map[string]map[string]Summary `json:"summary"`
}

// Summary is one metric of one workload over the repeats.
type Summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
}

// spread is the interquartile distance as a share of the median.
func (s Summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quartiles are Python's statistics.quantiles(values, n=4): the exclusive
// method, so the spreads printed here are the ones the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := slices.Sorted(slices.Values(values))
	m := len(x)
	if m == 1 {
		return x[0], x[0], x[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func (r *Report) summarize() {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, run := range r.Runs {
		for _, wr := range run {
			if values[wr.Workload] == nil {
				values[wr.Workload] = map[string][]float64{}
			}
			for _, group := range []map[string]Metric{wr.EndToEnd, wr.PerLayer} {
				for name, m := range group {
					values[wr.Workload][name] = append(values[wr.Workload][name], m.Value)
					units[name] = m.Unit
				}
			}
		}
	}
	r.Summary = map[string]map[string]Summary{}
	for wl, metrics := range values {
		r.Summary[wl] = map[string]Summary{}
		for name, vs := range metrics {
			q1, q2, q3 := quartiles(vs)
			r.Summary[wl][name] = Summary{Unit: units[name], Median: q2, Q1: q1, Q3: q3, Runs: len(vs)}
		}
	}
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printResult prints one line per metric: workload, metric, value, unit and
// the sample count behind it.
func printResult(w io.Writer, r *WorkloadResult) {
	for _, group := range []map[string]Metric{r.EndToEnd, r.PerLayer} {
		for _, name := range slices.Sorted(maps.Keys(group)) {
			m := group[name]
			fmt.Fprintf(w, "%-14s %-38s %14.4f %-6s", r.Workload, name, m.Value, m.Unit)
			if m.N > 0 {
				fmt.Fprintf(w, " n=%d", m.N)
			}
			fmt.Fprintln(w)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-14s FAILED %s\n", r.Workload, f)
	}
}

// printSummary prints the median and quartiles of every metric over the
// repeats.
func printSummary(w io.Writer, r *Report) {
	for _, wl := range workloads() {
		metrics := r.Summary[wl.Name]
		for _, name := range slices.Sorted(maps.Keys(metrics)) {
			s := metrics[name]
			fmt.Fprintf(w, "%-14s %-38s median %14.4f  q1 %14.4f  q3 %14.4f %-6s spread %.4f runs=%d\n",
				wl.Name, name, s.Median, s.Q1, s.Q3, s.Unit, s.spread(), s.Runs)
		}
	}
}

// compare prints every workload × metric row of two reports of the same
// benchmark — base value, new value, their ratio — and for end-to-end
// metrics the verdict under the bounds of BENCHMARK.json: regressed when
// the new median is worse than the base by more than the bound, unresolved
// when either side's spread is wider than the bound (the runs cannot tell),
// ok otherwise. It reports whether every row is ok.
func compare(w io.Writer, spec *Spec, base, next *Report) bool {
	if base.Clients != next.Clients {
		fmt.Fprintf(w, "not comparable: base ran with C=%d, new with C=%d\n", base.Clients, next.Clients)
		return false
	}
	allOK := true
	fmt.Fprintf(w, "%-14s %-38s %14s %14s %8s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	row := func(wl string, m SpecMetric, verdict func(a, b Summary) string) {
		a, okA := base.Summary[wl][m.Name]
		b, okB := next.Summary[wl][m.Name]
		if !okA || !okB {
			return
		}
		ratio := 0.0
		if a.Median != 0 {
			ratio = b.Median / a.Median
		}
		v := verdict(a, b)
		if v != "ok" && v != "-" {
			allOK = false
		}
		fmt.Fprintf(w, "%-14s %-38s %14.4f %14.4f %8.4f  %s\n", wl, m.Name, a.Median, b.Median, ratio, v)
	}
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			row(wl.Name, m, func(a, b Summary) string {
				worse := (b.Median - a.Median) / math.Abs(a.Median)
				if m.Better == "higher" {
					worse = -worse
				}
				switch {
				case a.spread() > m.Bound || b.spread() > m.Bound:
					return fmt.Sprintf("unresolved (spread %.3f / %.3f > bound %.2f)", a.spread(), b.spread(), m.Bound)
				case worse > m.Bound:
					return fmt.Sprintf("regressed (%.3f worse > bound %.2f)", worse, m.Bound)
				}
				return "ok"
			})
		}
		for _, m := range spec.PerLayer {
			row(wl.Name, m, func(a, b Summary) string { return "-" })
		}
	}
	return allOK
}
