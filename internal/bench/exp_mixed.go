package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"zidian/internal/server"
	"zidian/internal/server/loadgen"
)

// ExpMixed measures the serving layer under mixed read/write traffic with an
// emulated network: the multi-relation readwrite suite (point and chain
// reads across VEHICLE, TEST and OBSERVATION; INSERT/DELETE writes on all
// three, including secondary-index posting maintenance) runs at several
// write fractions, and the report shows how much of the read-only rate
// survives as writes are mixed in. It is the repo's one write-path
// measurement under a storage round trip; benchmark/ (mixed_rw) measures the
// same path at zero delay.
//
// The cluster runs with an emulated per-node service time
// (mixedStorageDelay, kv.Cluster.SetServiceDelay), standing in for the
// network round trip every real SQL-over-NoSQL deployment pays per get.
// Without it the in-process cluster is pure CPU and the sweep degenerates
// into a measurement of host core count. The machine-readable report goes
// to jsonPath (BENCH_mixed.json).
func ExpMixed(out io.Writer, cfg Config, jsonPath string, clients, requests int) error {
	cfg = cfg.normalized()
	if clients <= 0 {
		clients = 32
	}
	if requests <= 0 {
		requests = 100
	}
	rep := &mixedReport{
		Bench: "mixed", Workload: "mot",
		Nodes: cfg.Nodes, Workers: cfg.Workers,
		Clients: clients, Requests: requests,
		CPUs:               runtime.NumCPU(),
		StorageDelayMicros: mixedStorageDelay.Microseconds(),
	}
	for _, frac := range []float64{0, 0.05, 0.20, 0.50} {
		// Best of mixedCellReps runs per cell: on a small shared host the
		// CPU-bound cells lose throughput to scheduler and GC noise — noise
		// only ever subtracts — so the fastest run is the least
		// contaminated estimate of the cell's capacity.
		var run *loadgen.Report
		for i := 0; i < mixedCellReps; i++ {
			r, err := expMixedRun(cfg, frac, clients, requests)
			if err != nil {
				return err
			}
			if run == nil || r.QPS > run.QPS {
				run = r
			}
		}
		ph := mixedPhase{
			WriteFraction: frac,
			QPS:           run.QPS,
			P99Micros:     run.Latency.P99,
			Errors:        run.Errors,
			Writes:        run.Writes,
			ServerLatency: run.ServerLatency,
			QPSVsReadOnly: 1,
		}
		if len(rep.Phases) > 0 && rep.Phases[0].QPS > 0 {
			ph.QPSVsReadOnly = ph.QPS / rep.Phases[0].QPS
		}
		rep.Phases = append(rep.Phases, ph)
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "write%%\tqps\tvs read-only\tp99 µs\twrites\terrors\n")
	for _, ph := range rep.Phases {
		fmt.Fprintf(w, "%.0f%%\t%.0f\t%.2f×\t%d\t%d\t%d\n",
			100*ph.WriteFraction, ph.QPS, ph.QPSVsReadOnly, ph.P99Micros, ph.Writes, ph.Errors)
	}
	w.Flush()

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", jsonPath)
	}
	return nil
}

// mixedReport is the BENCH_mixed.json payload. CPUs records the host's
// parallelism: statements spend most of their time parked on emulated
// storage rounds, but the 0%-write cell is CPU-bound on a small host.
type mixedReport struct {
	Bench    string `json:"bench"`
	Workload string `json:"workload"`
	Nodes    int    `json:"nodes"`
	Workers  int    `json:"workers"`
	Clients  int    `json:"clients"`
	Requests int    `json:"requests"`
	CPUs     int    `json:"cpus"`
	// StorageDelayMicros is the emulated per-node service time per storage
	// round (kv.Cluster.SetServiceDelay) the cells run under.
	StorageDelayMicros int64        `json:"storageDelayMicros"`
	Phases             []mixedPhase `json:"phases"`
}

// mixedStorageDelay emulates a same-datacenter KV round trip per storage
// round. 200µs is conservative for the Cassandra/HBase deployments the
// paper benchmarks against.
const mixedStorageDelay = 200 * time.Microsecond

// mixedCellReps is how many times each write-fraction cell runs; the report
// keeps each cell's fastest run (see ExpMixed).
const mixedCellReps = 2

type mixedPhase struct {
	// WriteFraction is the probability a request is an INSERT/DELETE.
	WriteFraction float64 `json:"writeFraction"`
	// QPS is client-observed throughput; QPSVsReadOnly is its ratio to the
	// 0%-write phase.
	QPS           float64 `json:"qps"`
	QPSVsReadOnly float64 `json:"qpsVsReadOnly"`
	// P99Micros is the client-observed tail: it shows a write stall even
	// when throughput is capacity-bound.
	P99Micros int64 `json:"p99Micros"`
	Errors    int64 `json:"errors"`
	// Writes counts the write statements issued.
	Writes int64 `json:"writes"`
	// ServerLatency is scraped from the cell's /metrics after the run: the
	// same tail without wire or client scheduling time.
	ServerLatency *loadgen.ServerLatency `json:"serverLatencyMicros,omitempty"`
}

// expMixedRun drives one write-fraction cell: a fresh mot instance — writes
// mutate the dataset, so every cell starts equal — behind an in-process
// server on a loopback port, loaded with the readwrite suite. The served
// instance runs with one SQL-layer worker per query: the suite is
// point/short-range statements whose throughput comes from running many
// statements at once, so per-query fan-out would only steal cores from
// inter-statement parallelism.
func expMixedRun(cfg Config, frac float64, clients, requests int) (*loadgen.Report, error) {
	inst, _, err := server.OpenWorkload("mot", cfg.Scale, cfg.Seed, cfg.Nodes, 1)
	if err != nil {
		return nil, err
	}
	// The delay goes in after the dataset is built — loading pays no
	// emulated round trips.
	inst.Store().Cluster.SetServiceDelay(mixedStorageDelay)
	// Statements spend most of their time parked on emulated storage round
	// trips, so the useful in-flight count is set by overlap, not cores.
	maxConc := 32
	if c := 2 * runtime.NumCPU(); c > maxConc {
		maxConc = c
	}
	srv := server.New(inst, server.Config{
		MaxConcurrent: maxConc,
		QueueDepth:    4 * clients,
		QueueTimeout:  30 * time.Second,
	})
	tcpAddr, httpAddr, err := srv.Start("127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	reads, writes, setup, err := loadgen.ReadWriteMix("mot")
	if err != nil {
		return nil, err
	}
	// Level the field across cells: collect the previous cell's instance
	// before the timed run, so late cells don't inherit its GC debt.
	runtime.GC()
	return loadgen.Run(loadgen.Options{
		Addr:           tcpAddr,
		Clients:        clients,
		Requests:       requests,
		Templates:      reads,
		WriteTemplates: writes,
		WriteFraction:  frac,
		Setup:          setup,
		Seed:           cfg.Seed,
		Parameterized:  true,
		MetricsURL:     "http://" + httpAddr + "/metrics",
	})
}
