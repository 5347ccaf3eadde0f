// Command zidian-loadgen drives a running zidian-server with a
// repeated-template workload over many concurrent connections and reports
// throughput, latency percentiles, and the plan-cache hit rate. With -out
// it also writes the machine-readable report (loadgen.Report as JSON).
//
//	zidian-loadgen -addr localhost:7071 -clients 64 -requests 200 -out report.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"zidian/internal/server/loadgen"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:7071", "server wire-protocol address")
		wl       = flag.String("workload", "mot", "template suite: mot, airca, tpch")
		mix      = flag.String("mix", "point", "query mix: point, nonkey (selective non-key predicates over secondary indexes), range (BETWEEN windows over ordered posting scans), mixed, readwrite (multi-relation reads + INSERT/DELETE writes; see -write-frac)")
		wfrac    = flag.Float64("write-frac", 0.2, "write fraction for -mix readwrite (0..1)")
		wbase    = flag.Int("write-base", 1<<21, "first unique id for -mix readwrite inserts (vary across runs against a warm server)")
		clients  = flag.Int("clients", 64, "concurrent client connections")
		requests = flag.Int("requests", 200, "statements per client")
		pool     = flag.Int("params", 100, "distinct parameter values per template")
		seed     = flag.Int64("seed", 1, "parameter sequence seed")
		prep     = flag.Bool("parameterized", false, "send `?` templates with wire parameters instead of inlined literals")
		out      = flag.String("out", "", "write the JSON report to this file")
		metrics  = flag.String("metrics", "", "server /metrics URL (e.g. http://localhost:7072/metrics); scraped after the run to fold server-side latency quantiles into the report")
		strict   = flag.Bool("metrics-strict", false, "exit non-zero when the -metrics scrape fails instead of warning")
		replay   = flag.String("replay", "", "replay a capture file recorded by zidian-server -capture instead of generating templates")
		speed    = flag.Float64("speed", 1, "replay pacing factor: 1 reproduces the captured arrival deltas, 2 is twice as fast, 0 is as fast as possible")
	)
	flag.Parse()

	if *replay != "" {
		rep, err := loadgen.Replay(loadgen.ReplayOptions{
			Addr:          *addr,
			Path:          *replay,
			Clients:       *clients,
			Speed:         *speed,
			Seed:          *seed,
			ParamPool:     *pool,
			MetricsURL:    *metrics,
			MetricsStrict: *strict,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "zidian-loadgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("replayed %d statements in %.2fs (%d clients)\n", rep.Requests, rep.WallSeconds, rep.Clients)
		fmt.Printf("  qps        %.0f\n", rep.QPS)
		fmt.Printf("  errors     %d\n", rep.Errors)
		fmt.Printf("  latency µs p50=%d p90=%d p95=%d p99=%d max=%d\n",
			rep.Latency.P50, rep.Latency.P90, rep.Latency.P95, rep.Latency.P99, rep.Latency.Max)
		fmt.Printf("  row digest %s\n", rep.RowDigest)
		if sl := rep.ServerLatency; sl != nil {
			fmt.Printf("  server-side latency µs p50=%.0f p95=%.0f p99=%.0f (%d statements)\n",
				sl.P50Micros, sl.P95Micros, sl.P99Micros, sl.Count)
		}
		if *out != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "zidian-loadgen: %v\n", err)
				os.Exit(1)
			}
			data = append(data, '\n')
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "zidian-loadgen: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *out)
		}
		return
	}

	opts := loadgen.Options{
		Addr:          *addr,
		Clients:       *clients,
		Requests:      *requests,
		ParamPool:     *pool,
		Seed:          *seed,
		Parameterized: *prep,
		MetricsURL:    *metrics,
		MetricsStrict: *strict,
	}
	if *mix == "readwrite" {
		reads, writes, setup, err := loadgen.ReadWriteMix(*wl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zidian-loadgen: %v\n", err)
			os.Exit(2)
		}
		opts.Templates, opts.WriteTemplates, opts.Setup = reads, writes, setup
		opts.WriteFraction, opts.WriteIDBase = *wfrac, *wbase
	} else {
		templates, setup, err := loadgen.TemplatesMix(*wl, *mix)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zidian-loadgen: %v\n", err)
			os.Exit(2)
		}
		opts.Templates, opts.Setup = templates, setup
	}
	rep, err := loadgen.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zidian-loadgen: %v\n", err)
		os.Exit(1)
	}
	rep.Workload = *wl
	rep.Mix = *mix

	fmt.Printf("%d clients × %d requests in %.2fs\n", rep.Clients, *requests, rep.WallSeconds)
	fmt.Printf("  qps        %.0f\n", rep.QPS)
	fmt.Printf("  errors     %d\n", rep.Errors)
	fmt.Printf("  latency µs p50=%d p90=%d p95=%d p99=%d max=%d\n",
		rep.Latency.P50, rep.Latency.P90, rep.Latency.P95, rep.Latency.P99, rep.Latency.Max)
	fmt.Printf("  plan cache %.1f%% hit, scan-free %.1f%%\n", 100*rep.CacheHitRate, 100*rep.ScanFreeRate)
	if rep.Writes > 0 {
		fmt.Printf("  writes     %d (%.0f%% of requests)\n", rep.Writes, 100*float64(rep.Writes)/float64(rep.Requests))
	}
	if rep.Server != nil {
		fmt.Printf("  server     %d queries, %d sessions, %d rejected, %d timed out\n",
			rep.Server.Queries, rep.Server.TotalSessions, rep.Server.Admission.Rejected, rep.Server.Admission.TimedOut)
	}
	if sl := rep.ServerLatency; sl != nil {
		fmt.Printf("  server-side latency µs p50=%.0f p95=%.0f p99=%.0f (%d statements)\n",
			sl.P50Micros, sl.P95Micros, sl.P99Micros, sl.Count)
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "zidian-loadgen: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "zidian-loadgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}
