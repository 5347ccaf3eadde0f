package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"zidian/internal/server"
)

// BenchOptions parameterize one end-to-end serving-layer measurement.
type BenchOptions struct {
	// Workload names the dataset and template suite (mot, airca).
	Workload string
	// Mix selects the query mix: point (default), nonkey, or mixed. Non-key
	// mixes create the secondary indexes their templates rely on before
	// load starts, exercising the IndexLookup access path end to end.
	Mix string
	// Scale, Seed, Nodes, Workers shape the served instance.
	Scale   float64
	Seed    int64
	Nodes   int
	Workers int
	// Clients and Requests shape the generated load.
	Clients  int
	Requests int
	// JSONPath, when non-empty, receives the machine-readable report
	// (the BENCH_server.json tracked across PRs).
	JSONPath string
}

// BenchServer measures the serving layer end to end: it starts an
// in-process zidian server over a generated workload on a loopback TCP
// port, drives it with the repeated-template load generator over many
// concurrent connections, writes the JSON report, and prints a
// human-readable summary on out.
func BenchServer(out io.Writer, opts BenchOptions) error {
	if opts.Clients <= 0 {
		opts.Clients = 64
	}
	if opts.Requests <= 0 {
		opts.Requests = 100
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	inst, _, err := server.OpenWorkload(opts.Workload, opts.Scale, opts.Seed, opts.Nodes, opts.Workers)
	if err != nil {
		return err
	}
	srv := server.New(inst, server.Config{
		MaxConcurrent: opts.Workers * 2,
		QueueDepth:    4 * opts.Clients,
		QueueTimeout:  30 * time.Second,
	})
	tcpAddr, httpAddr, err := srv.Start("127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return err
	}
	metricsURL := "http://" + httpAddr + "/metrics"
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	templates, setup, err := TemplatesMix(opts.Workload, opts.Mix)
	if err != nil {
		return err
	}
	rep, err := Run(Options{
		Addr:       tcpAddr,
		Clients:    opts.Clients,
		Requests:   opts.Requests,
		Templates:  templates,
		Setup:      setup,
		ParamPool:  100,
		Seed:       opts.Seed,
		MetricsURL: metricsURL,
	})
	if err != nil {
		return err
	}
	rep.Workload = opts.Workload
	rep.Mix = opts.Mix

	label := opts.Workload
	if opts.Mix != "" && opts.Mix != "point" {
		label += "/" + opts.Mix
	}
	fmt.Fprintf(out, "%-28s %10s %10s %10s %10s %8s %8s\n",
		"server bench", "qps", "p50µs", "p99µs", "maxµs", "errors", "hit%")
	fmt.Fprintf(out, "%-28s %10.0f %10d %10d %10d %8d %7.1f%%\n",
		fmt.Sprintf("%s ×%d clients", label, opts.Clients),
		rep.QPS, rep.Latency.P50, rep.Latency.P99, rep.Latency.Max,
		rep.Errors, 100*rep.CacheHitRate)
	if sl := rep.ServerLatency; sl != nil {
		fmt.Fprintf(out, "server-side latency (scraped): p50 %.0fµs p95 %.0fµs p99 %.0fµs over %d statements\n",
			sl.P50Micros, sl.P95Micros, sl.P99Micros, sl.Count)
	}

	// Distinct-literal phases: every request carries a literal never seen
	// before, so only template reuse can hit. Phase one inlines the literals
	// (the server lifts them onto the template), phase two parameterizes;
	// both approach 100% on one cached template per shape. Only numeric
	// templates can generate unbounded distinct literals.
	var numeric []Template
	for _, t := range templates {
		if len(t.Strings) == 0 {
			numeric = append(numeric, t)
		}
	}
	if len(numeric) > 0 {
		inlined, err := Run(Options{
			Addr: tcpAddr, Clients: opts.Clients, Requests: opts.Requests,
			Templates: numeric, Seed: opts.Seed + 1, DistinctParams: true,
		})
		if err != nil {
			return err
		}
		parameterized, err := Run(Options{
			Addr: tcpAddr, Clients: opts.Clients, Requests: opts.Requests,
			Templates: numeric, Seed: opts.Seed + 2, DistinctParams: true,
			Parameterized: true,
		})
		if err != nil {
			return err
		}
		rep.PlanCacheHitRateDistinctLiteralsInlined = inlined.CacheHitRate
		rep.PlanCacheHitRateDistinctLiterals = parameterized.CacheHitRate
		// rep.Server stays the main phase's snapshot: its counters track the
		// repeated-template regime across PRs and must not absorb the
		// distinct-literal phases' cache flooding.
		fmt.Fprintf(out, "distinct-literal hit rate: inlined %.1f%% → parameterized %.1f%%\n",
			100*inlined.CacheHitRate, 100*parameterized.CacheHitRate)
	}

	if opts.JSONPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(opts.JSONPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", opts.JSONPath)
	}
	return nil
}
