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

// ExpScaleout measures horizontal read scaling through the whole serving
// stack: the mot point/chain read suite (scan-free key and index lookups —
// the query class the paper's middleware targets) runs against clusters of
// 1, 2, 4 and 8 storage nodes under an emulated per-node service time
// (kv.Cluster.SetServiceDelay).
//
// The service model is what makes node count a real axis: every storage
// round occupies its node for the delay, so one node serves at most
// 1/delay rounds per second and concurrent statements queue behind each
// other at hot nodes — exactly like region servers in an HBase or
// Cassandra deployment. Adding nodes adds aggregate service capacity, and
// because point gets batch one round per owning node, a point-read-heavy
// mix should scale near-linearly until the SQL layer's CPU becomes the
// bottleneck. (A whole-instance scan walks the nodes one after another and
// pays their seek rounds in turn; the suite makes none.) The delay=0 phase
// is the control: with no emulated service time the in-process cluster is
// pure CPU and the curve is expected flat — it measures the placement
// layer's overhead, not scaling.
//
// Cells reuse one loaded instance per node count (the suite is read-only,
// so every phase sees identical data) and the report keeps each cell's
// fastest of scaleoutCellReps runs. The machine-readable report goes to
// jsonPath (BENCH_scaleout.json); each phase carries Scale4x — 4-node qps
// over 1-node qps — which CI gates on for the 200µs phase.
func ExpScaleout(out io.Writer, cfg Config, jsonPath string, clients, requests int, delays []time.Duration) error {
	cfg = cfg.normalized()
	if clients <= 0 {
		clients = 32
	}
	if requests <= 0 {
		requests = 50
	}
	if len(delays) == 0 {
		delays = []time.Duration{0, 200 * time.Microsecond, time.Millisecond}
	}
	nodeCounts := []int{1, 2, 4, 8}

	rep := &scaleoutReport{
		Bench: "scaleout", Workload: "mot",
		Clients: clients, Requests: requests,
		CPUs:       runtime.NumCPU(),
		NodeCounts: nodeCounts,
	}
	for _, d := range delays {
		rep.Phases = append(rep.Phases, scaleoutPhase{OpDelayMicros: d.Microseconds()})
	}

	for _, nodes := range nodeCounts {
		cells, err := expScaleoutNode(cfg, nodes, clients, requests, delays)
		if err != nil {
			return err
		}
		for pi := range rep.Phases {
			rep.Phases[pi].Cells = append(rep.Phases[pi].Cells, cells[pi])
		}
	}
	for pi := range rep.Phases {
		ph := &rep.Phases[pi]
		base := ph.Cells[0].QPS // nodeCounts[0] == 1
		for _, c := range ph.Cells {
			if base <= 0 {
				break
			}
			switch c.Nodes {
			case 4:
				ph.Scale4x = c.QPS / base
			case 8:
				ph.Scale8x = c.QPS / base
			}
		}
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "op delay\t1 node\t2 nodes\t4 nodes\t8 nodes\t4n/1n\t8n/1n\terrors\n")
	for _, ph := range rep.Phases {
		var errs int64
		qps := make([]float64, len(ph.Cells))
		for i, c := range ph.Cells {
			qps[i] = c.QPS
			errs += c.Errors
		}
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.2f×\t%.2f×\t%d\n",
			time.Duration(ph.OpDelayMicros)*time.Microsecond,
			qps[0], qps[1], qps[2], qps[3], ph.Scale4x, ph.Scale8x, errs)
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

// scaleoutCellReps is how many times each (nodes, delay) cell runs; the
// report keeps each cell's fastest run (noise on a shared host only ever
// subtracts throughput).
const scaleoutCellReps = 2

// scaleoutReport is the BENCH_scaleout.json payload. CPUs matters for the
// delay=0 control phase only: without emulated service time the cluster is
// pure CPU and the node axis cannot show scaling on a small host. The
// delayed phases scale on aggregate service capacity, which exists
// regardless of core count.
type scaleoutReport struct {
	Bench      string          `json:"bench"`
	Workload   string          `json:"workload"`
	Clients    int             `json:"clients"`
	Requests   int             `json:"requests"`
	CPUs       int             `json:"cpus"`
	NodeCounts []int           `json:"nodeCounts"`
	Phases     []scaleoutPhase `json:"phases"`
}

type scaleoutPhase struct {
	// OpDelayMicros is the emulated per-node service time of the phase
	// (kv.Cluster.SetServiceDelay); 0 is the no-delay CPU control.
	OpDelayMicros int64          `json:"opDelayMicros"`
	Cells         []scaleoutCell `json:"cells"`
	// Scale4x (Scale8x) is 4-node (8-node) qps over 1-node qps — the
	// horizontal scaling headline CI gates on.
	Scale4x float64 `json:"scale4x"`
	Scale8x float64 `json:"scale8x"`
}

type scaleoutCell struct {
	Nodes     int     `json:"nodes"`
	QPS       float64 `json:"qps"`
	P99Micros int64   `json:"p99Micros"`
	Errors    int64   `json:"errors"`
}

// expScaleoutNode loads one mot instance on the given node count, serves it
// on a loopback port, and runs every delay phase's cell against it — the
// suite is read-only, so later phases see exactly the data earlier ones did.
// One SQL-layer worker per query, like the mixed bench: the suite is point
// statements whose throughput comes from running many at once.
func expScaleoutNode(cfg Config, nodes, clients, requests int, delays []time.Duration) ([]scaleoutCell, error) {
	inst, _, err := server.OpenWorkload("mot", cfg.Scale, cfg.Seed, nodes, 1)
	if err != nil {
		return nil, err
	}
	// Statements spend most of their time parked on emulated service
	// rounds; the useful in-flight count is set by overlap, not cores.
	maxConc := 32
	if c := 2 * runtime.NumCPU(); c > maxConc {
		maxConc = c
	}
	srv := server.New(inst, server.Config{
		MaxConcurrent: maxConc,
		QueueDepth:    4 * clients,
		QueueTimeout:  30 * time.Second,
	})
	tcpAddr, _, err := srv.Start("127.0.0.1:0", "")
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	templates, err := loadgen.Templates("mot")
	if err != nil {
		return nil, err
	}
	cells := make([]scaleoutCell, 0, len(delays))
	for _, d := range delays {
		// The delay goes in after the load and between phases — dataset
		// construction never pays emulated rounds.
		inst.Store().Cluster.SetServiceDelay(d)
		var best *loadgen.Report
		for rep := 0; rep < scaleoutCellReps; rep++ {
			runtime.GC()
			r, err := loadgen.Run(loadgen.Options{
				Addr:          tcpAddr,
				Clients:       clients,
				Requests:      requests,
				Templates:     templates,
				Seed:          cfg.Seed,
				Parameterized: true,
			})
			if err != nil {
				return nil, err
			}
			if best == nil || r.QPS > best.QPS {
				best = r
			}
		}
		cells = append(cells, scaleoutCell{
			Nodes: nodes, QPS: best.QPS,
			P99Micros: best.Latency.P99, Errors: best.Errors,
		})
	}
	return cells, nil
}
