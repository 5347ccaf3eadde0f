// Package bench implements the paper's experimental study (Section 9):
// environments that pair each of the three SQL-over-NoSQL systems (SoH,
// SoK, SoC — modelled by engine cost profiles) with a TaaV baseline store
// and a Zidian BaaV store, runners that execute workload queries under
// either system, and the four experiments that regenerate the paper's
// tables and figures.
package bench

import (
	"fmt"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kv"
	"zidian/internal/parallel"
	"zidian/internal/ra"
	"zidian/internal/taav"
	"zidian/internal/workload"
)

// System is one SQL-over-NoSQL deployment: a storage profile with both
// representations loaded.
type System struct {
	Profile kv.CostModel
	Taav    *taav.Store
	Baav    *baav.Store
}

// Env is a fully loaded experimental environment for one workload.
type Env struct {
	Workload *workload.Workload
	Checker  *core.Checker
	Systems  []*System
	Nodes    int

	queries map[string]*ra.Query
	plans   map[string]*core.PlanInfo
}

// SystemLabel names the paper's systems: SoH, SoK, SoC, with the Zidian
// suffix for the BaaV deployment.
func SystemLabel(profile kv.CostModel, zidian bool) string {
	var base string
	switch profile.Name {
	case "hstore":
		base = "SoH"
	case "kstore":
		base = "SoK"
	case "cstore":
		base = "SoC"
	default:
		base = profile.Name
	}
	if zidian {
		return base + "Zidian"
	}
	return base
}

// NewEnv generates the workload at the given scale and loads it into both
// representations for every profile.
func NewEnv(name string, scale float64, seed int64, nodes int, profiles []kv.CostModel) (*Env, error) {
	w, err := workload.Generate(name, workload.Spec{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	env := &Env{
		Workload: w,
		Checker:  core.NewChecker(w.Schema, baav.RelSchemas(w.DB)),
		Nodes:    nodes,
		queries:  make(map[string]*ra.Query),
		plans:    make(map[string]*core.PlanInfo),
	}
	for _, p := range profiles {
		sys := &System{Profile: p}
		sys.Taav, err = taav.Map(w.DB, kv.NewCluster(p.EngineKind(), nodes))
		if err != nil {
			return nil, err
		}
		sys.Baav, err = baav.Map(w.DB, w.Schema, kv.NewCluster(p.EngineKind(), nodes), baav.DefaultOptions())
		if err != nil {
			return nil, err
		}
		env.Systems = append(env.Systems, sys)
	}
	if len(env.Systems) > 0 {
		// All systems hold identical data; any store provides the planner's
		// cost statistics.
		env.Checker.WithStats(env.Systems[0].Baav)
	}
	for _, q := range w.Queries {
		bound, err := ra.Parse(q.SQL, w.DB)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %v", q.Name, err)
		}
		env.queries[q.Name] = bound
		info, err := env.Checker.Plan(bound)
		if err != nil {
			return nil, fmt.Errorf("bench: plan %s: %v", q.Name, err)
		}
		env.plans[q.Name] = info
	}
	return env, nil
}

// Query returns the bound form of a workload query.
func (e *Env) Query(name string) *ra.Query { return e.queries[name] }

// Plan returns the generated KBA plan of a workload query.
func (e *Env) Plan(name string) *core.PlanInfo { return e.plans[name] }

// Row is one measurement: the columns of the paper's Table 2.
type Row struct {
	System string
	Query  string
	WallMS float64
	// SimMS is the simulated cluster time from the system's cost profile —
	// the number the paper's absolute seconds correspond to.
	SimMS  float64
	Gets   int64
	Data   int64
	CommMB float64
}

// RunQuery executes one workload query on one system, under either Zidian
// (BaaV + KBA plan) or the TaaV baseline, with the given worker count.
func (e *Env) RunQuery(sys *System, zidian bool, queryName string, workers int) (Row, error) {
	row := Row{System: SystemLabel(sys.Profile, zidian), Query: queryName}
	q := e.queries[queryName]
	if q == nil {
		return row, fmt.Errorf("bench: unknown query %q", queryName)
	}
	if zidian {
		info := e.plans[queryName]
		before := sys.Baav.Cluster.Metrics()
		res, m, err := parallel.RunKBA(info, sys.Baav, workers)
		if err != nil {
			return row, err
		}
		_ = res
		delta := sys.Baav.Cluster.Metrics().Sub(before)
		row.WallMS = float64(m.Wall.Microseconds()) / 1000
		row.SimMS = sys.Profile.QueryUS(delta, m.ShuffleBytes, e.Nodes, workers) / 1000
		row.Gets = delta.Gets + delta.ScanNexts
		row.Data = m.DataValues
		row.CommMB = float64(m.BytesRead+m.ShuffleBytes) / (1 << 20)
		return row, nil
	}
	before := sys.Taav.Cluster.Metrics()
	res, m, err := parallel.RunTaaV(q, sys.Taav, workers)
	if err != nil {
		return row, err
	}
	_ = res
	delta := sys.Taav.Cluster.Metrics().Sub(before)
	row.WallMS = float64(m.Wall.Microseconds()) / 1000
	row.SimMS = sys.Profile.QueryUS(delta, m.ShuffleBytes, e.Nodes, workers) / 1000
	// Under TaaV a full scan costs one get per tuple (Section 1).
	row.Gets = delta.Gets + delta.ScanNexts
	row.Data = m.DataValues
	row.CommMB = float64(m.BytesRead+m.ShuffleBytes) / (1 << 20)
	return row, nil
}

// RunSuite averages a set of queries on one system.
func (e *Env) RunSuite(sys *System, zidian bool, queries []workload.Query, workers int) (Row, error) {
	avg := Row{System: SystemLabel(sys.Profile, zidian), Query: "avg"}
	if len(queries) == 0 {
		return avg, nil
	}
	for _, wq := range queries {
		r, err := e.RunQuery(sys, zidian, wq.Name, workers)
		if err != nil {
			return avg, fmt.Errorf("%s: %v", wq.Name, err)
		}
		avg.WallMS += r.WallMS
		avg.SimMS += r.SimMS
		avg.Gets += r.Gets
		avg.Data += r.Data
		avg.CommMB += r.CommMB
	}
	n := float64(len(queries))
	avg.WallMS /= n
	avg.SimMS /= n
	avg.Gets /= int64(len(queries))
	avg.Data /= int64(len(queries))
	avg.CommMB /= n
	return avg, nil
}
