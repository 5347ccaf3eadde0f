// Package parallel is the paper's parallel-execution comparison (Section 7):
// it shapes the relational answer of KBA plans run on the one executor
// (internal/kba) at a given worker count, and holds the two strategies the
// paper measures the interleaved one against — the Section 7.1 fetch-all
// strawman and the parallel TaaV baseline (retrieve-all, then parallel hash
// joins). Communication between workers is accounted explicitly.
package parallel

import (
	"time"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kba"
	"zidian/internal/obs"
	"zidian/internal/ra"
)

// Metrics reports one execution: the executor's logical data-access
// counters (the #get, #data and fetched bytes of the paper's tables, and
// the worker-to-worker shuffle volume), the worker count and wall time.
type Metrics struct {
	kba.ExecStats
	Workers int
	Wall    time.Duration
}

// RunKBA executes a generated KBA plan with the interleaved parallel
// strategy (Section 7.2) on the given number of workers and shapes the
// relational answer.
func RunKBA(info *core.PlanInfo, store *baav.Store, workers int) (*ra.Result, *Metrics, error) {
	return RunKBATraced(info, store, workers, nil)
}

// RunKBATraced is RunKBA with a per-statement trace: operator spans record
// rows, wall time, inclusive kv deltas, and the worker fan-out with
// per-worker row counts. A nil trace costs nothing.
func RunKBATraced(info *core.PlanInfo, store *baav.Store, workers int, t *obs.Trace) (*ra.Result, *Metrics, error) {
	return shaped(info, workers, func() (*kba.PartRel, kba.ExecStats, error) {
		return kba.Run(info.Root, store, workers, t)
	})
}

// RunKBAFetchAll executes a KBA plan with the strawman parallelization the
// paper describes and rejects in Section 7.1: fetch every relevant KV
// instance from the BaaV store first (full scans), flatten ∝ into ordinary
// hash joins, and only then compute. It answers correctly but forfeits the
// scan-free guarantee; the ablation benchmark contrasts it with the
// interleaved RunKBA.
func RunKBAFetchAll(info *core.PlanInfo, store *baav.Store, workers int) (*ra.Result, *Metrics, error) {
	return shaped(info, workers, func() (*kba.PartRel, kba.ExecStats, error) {
		return kba.RunFetchAll(info.Root, store, workers)
	})
}

// shaped times one executor run and shapes its output into the query's
// relational answer; an unsatisfiable plan answers empty without running.
func shaped(info *core.PlanInfo, workers int, run func() (*kba.PartRel, kba.ExecStats, error)) (*ra.Result, *Metrics, error) {
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	m := &Metrics{Workers: workers}
	var out *kba.PartRel
	if !info.Empty {
		var err error
		if out, m.ExecStats, err = run(); err != nil {
			return nil, nil, err
		}
	}
	res, err := info.ToResult(out)
	if err != nil {
		return nil, nil, err
	}
	m.Wall = time.Since(start)
	return res, m, nil
}
