// Command zidian-server runs the Zidian middleware as a long-lived,
// concurrent query service over a generated workload dataset: the
// line-delimited JSON wire protocol on -tcp and the HTTP surface
// (/query, /healthz, /stats, Prometheus-text /metrics) on -http.
//
// Quickstart (two terminals):
//
//	zidian-server -workload mot -scale 1 -tcp :7071 -http :7072
//	zidian-loadgen -addr localhost:7071 -clients 64 -requests 200
//
// Or poke it by hand:
//
//	curl 'localhost:7072/query?q=select+T.result+from+TEST+T+where+T.vehicle_id+=+42'
//	curl localhost:7072/stats
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// statements before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zidian/internal/server"
)

func main() {
	var (
		tcpAddr  = flag.String("tcp", ":7071", "wire-protocol listen address (empty disables)")
		httpAddr = flag.String("http", ":7072", "HTTP listen address (empty disables)")
		wl       = flag.String("workload", "mot", "dataset to serve: mot, airca, tpch")
		scale    = flag.Float64("scale", 1.0, "dataset scale multiplier")
		seed     = flag.Int64("seed", 7, "generator seed")
		nodes    = flag.Int("nodes", 4, "storage nodes")
		opDelay  = flag.Duration("op-delay", 0, "emulated per-node service time per storage round trip (0 disables): each node serves at most 1/delay rounds per second, so -nodes becomes a real capacity axis")
		workers  = flag.Int("workers", 4, "per-query SQL-layer workers")
		inflight = flag.Int("max-inflight", 8, "statements executing concurrently")
		queue    = flag.Int("queue", 256, "admission queue depth")
		queueTO  = flag.Duration("queue-timeout", time.Second, "admission queue timeout")
		cacheSz  = flag.Int("plan-cache", 4096, "plan cache capacity (plans)")
		drainTO  = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain timeout")
		slowTO   = flag.Duration("slow-query-threshold", 0, "log statements slower than this as JSON lines (0 disables)")
		slowLog  = flag.String("slow-query-log", "", "slow-query log file (default stderr); with -slow-query-max-bytes the file rotates to <path>.1 at the cap")
		slowMax  = flag.Int64("slow-query-max-bytes", 0, "byte cap for the slow-query log: rotate a -slow-query-log file at the cap, or drop further lines (counted on zidian_slow_query_dropped_total); 0 = unbounded")
		capture  = flag.String("capture", "", "stream one anonymized JSON line per statement to this file for zidian-loadgen -replay (templates and bind kinds only — never literal values)")
		stmtCap  = flag.Int("stmt-stats", 512, "statement templates tracked by /stats/statements and SHOW STATEMENTS (cold templates fold into _evicted)")
		stmtTop  = flag.Int("stmt-metrics-top", 10, "templates exported as per-template zidian_stmt_* families on /metrics")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the HTTP listener")
	)
	flag.Parse()

	if *tcpAddr == "" && *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "zidian-server: need at least one of -tcp or -http")
		os.Exit(2)
	}

	fmt.Printf("loading workload %s (scale %g, %d nodes)...\n", *wl, *scale, *nodes)
	start := time.Now()
	inst, w, err := server.OpenWorkload(*wl, *scale, *seed, *nodes, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zidian-server: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("loaded %d relations, %d rows in %v\n",
		len(w.DB.Names()), w.DB.Cardinality(), time.Since(start).Round(time.Millisecond))
	if *opDelay > 0 {
		// Installed after the bulk load so startup stays fast; from here on
		// every storage round occupies its node for the delay.
		inst.Store().Cluster.SetServiceDelay(*opDelay)
		fmt.Printf("emulated storage service time: %v per node round\n", *opDelay)
	}

	cfg := server.Config{
		MaxConcurrent:      *inflight,
		QueueDepth:         *queue,
		QueueTimeout:       *queueTO,
		PlanCacheSize:      *cacheSz,
		SlowQueryThreshold: *slowTO,
		SlowQueryMaxBytes:  *slowMax,
		StmtStatsCapacity:  *stmtCap,
		StmtMetricsTopK:    *stmtTop,
		EnablePprof:        *pprofOn,
	}
	if *slowLog != "" {
		f, err := server.OpenRotatingFile(*slowLog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zidian-server: open slow-query log: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.SlowQueryLog = f
	}
	if *capture != "" {
		f, err := os.OpenFile(*capture, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zidian-server: open capture log: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.CaptureLog = f
		fmt.Printf("capturing workload to %s\n", *capture)
	}
	srv := server.New(inst, cfg)
	tcp, httpA, err := srv.Start(*tcpAddr, *httpAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zidian-server: %v\n", err)
		os.Exit(1)
	}
	if tcp != "" {
		fmt.Printf("wire protocol listening on %s\n", tcp)
	}
	if httpA != "" {
		fmt.Printf("http listening on %s\n", httpA)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down...")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "zidian-server: shutdown: %v\n", err)
		os.Exit(1)
	}
	st := srv.Stats()
	fmt.Printf("served %d statements (%d errors), plan cache hit rate %.1f%%\n",
		st.Queries, st.Errors, 100*st.PlanCache.HitRate)
}
