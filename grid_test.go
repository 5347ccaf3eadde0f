package zidian

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"zidian/internal/core"
	"zidian/internal/kba"
	"zidian/internal/parallel"
	"zidian/internal/ra"
	sqlpkg "zidian/internal/sql"
	"zidian/internal/workload"
)

// The grid every held-behaviour test iterates: each kv engine × node
// count × worker count, over three datasets — the mot, airca and tpch
// suites, the ITEM range/scatter/LIMIT suites, and the serving templates
// over MOT at scale 1. Node count is placement and worker count is an
// execution axis; neither may change an answer.
var (
	gridEngines = []string{"hash", "lsm", "sorted"}
	gridNodes   = []int{1, 2, 4, 8}
	gridWorkers = []int{1, 2, 4, 7}
)

// GridQuery is one statement of a grid dataset, in both of the forms every
// cell runs: its literal text, and a `?` template with the values that
// bind it.
type GridQuery struct {
	Name     string
	SQL      string
	Template string
	Params   []Value
	// Ref is the reference evaluator's answer. For a LIMIT without ORDER
	// BY, which rows come back is the plan's choice: Ref is then the answer
	// without the LIMIT, and Limit is the LIMIT (0 otherwise).
	Ref   *Result
	Limit int
}

// GridCell is one point of the grid: an opened instance of a dataset, with
// or without its indexes, run at one worker count.
type GridCell struct {
	Dataset string
	Indexed bool
	Engine  string
	Nodes   int
	Workers int
	Inst    *Instance
	Queries []GridQuery
	phase   *gridPhase // shared by the cells of one instance and phase
}

// gridPhase holds what the cells of one instance and phase compile once: a
// plan does not depend on the worker count.
type gridPhase struct {
	plans []*core.PlanInfo // literal plans, by query
	forms [][]goldenForm   // TestGolden's compiled forms, by query
}

// plan is the literal plan of the cell's i-th query, compiled once per
// instance and phase.
func (c *GridCell) plan(t *testing.T, i int) *core.PlanInfo {
	t.Helper()
	plans := c.phase.plans
	if plans[i] == nil {
		q, err := ra.Parse(c.Queries[i].SQL, c.Inst.db)
		if err != nil {
			t.Fatalf("%s: %q: %v", c, c.Queries[i].SQL, err)
		}
		if plans[i], err = c.Inst.checker.Plan(q); err != nil {
			t.Fatalf("%s: %q: %v", c, c.Queries[i].SQL, err)
		}
	}
	return plans[i]
}

// run runs info, the literal plan of one of the cell's queries or a rewrite
// of it, at the cell's worker count on its store.
func (c *GridCell) run(t *testing.T, info *core.PlanInfo) (*Result, kba.ExecStats) {
	t.Helper()
	res, m, err := parallel.RunKBA(info, c.Inst.store, c.Workers)
	if err != nil {
		t.Fatalf("%s: %s: %v", c, info.Root, err)
	}
	return res, m.ExecStats
}

func (c *GridCell) String() string {
	phase := map[bool]string{false: "scan", true: "indexed"}[c.Indexed]
	return fmt.Sprintf("%s/%s %s nodes=%d workers=%d", c.Dataset, phase, c.Engine, c.Nodes, c.Workers)
}

// gridDataset is the data of one dataset, its DDL and its queries. Its
// queries run first with no index (unless alwaysIndexed), then again after
// its DDL (for a workload suite, only when the caller asks).
type gridDataset struct {
	db            *Database
	schema        *BaaVSchema
	ddl           []string
	alwaysIndexed bool
	suite         bool
	queries       []GridQuery
}

// gridDatasets build the grid's datasets, in the grid's order: the costliest
// first, so that the parallel subtests finish together.
var gridDatasets = []struct {
	name  string
	build func(t *testing.T) gridDataset
}{
	{"item", itemDataset},
	{"mot", suiteDataset("mot")},
	{"airca", suiteDataset("airca")},
	{"tpch", suiteDataset("tpch")},
	{"serving", servingDataset},
}

// eachCell calls fn on every cell of the grid at the given node and worker
// counts. Each dataset and engine runs in its own parallel subtest, so fn is
// called concurrently for different ones; within one, cells come in a fixed
// order. One instance per node count serves every worker count, first
// without the dataset's indexes and then, after its DDL, with them; the
// workload suites run after their ranged indexes only with suiteIndexes.
// eachCell returns when every cell is done.
//
// The grid allocates gigabytes over a live heap of tens of megabytes; at
// the default GC percent, collection is a third of its time, so it runs at
// 400.
func eachCell(t *testing.T, nodeCounts, workerCounts []int, suiteIndexes bool, fn func(t *testing.T, c *GridCell)) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	t.Run("grid", func(t *testing.T) {
		for _, gd := range gridDatasets {
			for _, eng := range gridEngines {
				t.Run(gd.name+"/"+eng, func(t *testing.T) {
					t.Parallel()
					ds := gd.build(t)
					for _, nodes := range nodeCounts {
						inst, err := Open(ds.db, ds.schema, Options{Engine: eng, Nodes: nodes})
						if err != nil {
							t.Fatal(err)
						}
						phases := []bool{false, true}
						switch {
						case ds.alwaysIndexed:
							phases = phases[1:]
						case ds.suite && !suiteIndexes:
							phases = phases[:1]
						}
						for _, indexed := range phases {
							if indexed {
								for _, ddl := range ds.ddl {
									if _, err := inst.Exec(ddl); err != nil {
										t.Fatalf("%s: %q: %v", gd.name, ddl, err)
									}
								}
							}
							phase := &gridPhase{plans: make([]*core.PlanInfo, len(ds.queries))}
							for _, workers := range workerCounts {
								inst.opts.Workers = workers
								fn(t, &GridCell{Dataset: gd.name, Indexed: indexed, Engine: eng, Nodes: nodes,
									Workers: workers, Inst: inst, Queries: ds.queries, phase: phase})
							}
						}
					}
				})
			}
		}
	})
}

// suiteDataset is a workload suite at scale 0.1, indexed on every attribute
// a literal range conjunct of its queries compares.
func suiteDataset(name string) func(t *testing.T) gridDataset {
	return func(t *testing.T) gridDataset {
		w, err := workload.Generate(name, workload.Spec{Scale: 0.1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ds := gridDataset{db: w.DB, schema: w.Schema, ddl: suiteRangeDDL[name], suite: true}
		for _, q := range w.Queries {
			ds.queries = append(ds.queries, literalQuery(t, w.DB, q.Name, q.SQL))
		}
		return ds
	}
}

var suiteRangeDDL = map[string][]string{
	"mot": {"create index ix_observation_speed on OBSERVATION(speed)", "create index ix_test_test_date on TEST(test_date)"},
	"airca": {"create index ix_monthly_ym on MONTHLY(ym)", "create index ix_route_distance on ROUTE(distance)",
		"create index ix_flight_flight_date on FLIGHT(flight_date)", "create index ix_aircraft_seats on AIRCRAFT(seats)"},
	"tpch": {"create index ix_lineitem_shipdate on LINEITEM(shipdate)", "create index ix_orders_orderdate on ORDERS(orderdate)",
		"create index ix_lineitem_discount on LINEITEM(discount)", "create index ix_lineitem_quantity on LINEITEM(quantity)"},
}

// itemDataset is the ITEM fixture under the range, scatter and LIMIT
// suites, indexed by rangeSuiteDDL.
func itemDataset(t *testing.T) gridDataset {
	db, bv := rangeItemsDB(t)
	ds := gridDataset{db: db, schema: bv, ddl: rangeSuiteDDL}
	for _, suite := range []struct {
		name    string
		queries []string
	}{{"range", rangeSuite}, {"scatter", scatterSuite}, {"limit", pruneLimitSuite}} {
		for i, src := range suite.queries {
			ds.queries = append(ds.queries, literalQuery(t, db, fmt.Sprintf("%s%02d", suite.name, i), src))
		}
	}
	return ds
}

// servingDataset is MOT at scale 1, large enough for the planner to pick
// index_scan's three indexes, under the serving templates at each of their
// bindings and servingExtras.
func servingDataset(t *testing.T) gridDataset {
	w := workload.MOT(workload.Spec{Scale: 1, Seed: 1})
	ds := gridDataset{db: w.DB, schema: w.Schema, ddl: pruneSuiteMOTDDL, alwaysIndexed: true}
	for _, tpl := range servingTemplates {
		for _, params := range tpl.params {
			q := literalQuery(t, w.DB, fmt.Sprintf("%s%v", tpl.name, params), inlineParams(tpl.sql, params))
			q.Template, q.Params = tpl.sql, params
			ds.queries = append(ds.queries, q)
		}
	}
	for i, src := range servingExtras {
		ds.queries = append(ds.queries, literalQuery(t, w.DB, fmt.Sprintf("extra%02d", i), src))
	}
	return ds
}

// servingExtras join the serving templates over MOT scale 1: a γ over a
// scan beside make_counts' walk of block headers, and an index lookup that
// returns its filter column.
var servingExtras = []string{
	"select V.color, COUNT(*) from VEHICLE V group by V.color",
	"select O.obs_id, O.road_id from OBSERVATION O where O.road_id = 7",
}

// literalQuery is a literal SQL query with its template (every WHERE
// literal a `?`) and its reference answer over db.
func literalQuery(t *testing.T, db *Database, name, src string) GridQuery {
	t.Helper()
	q := GridQuery{Name: name, SQL: src}
	q.Template, q.Params = paramize(t, src)
	ast, err := sqlpkg.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref := src
	if ast.Limit >= 0 && len(ast.OrderBy) == 0 {
		q.Limit, ast.Limit = ast.Limit, -1
		ref = ast.String()
	}
	bound, err := ra.Parse(ref, db)
	if err != nil {
		t.Fatalf("%s: %q: %v", name, ref, err)
	}
	if q.Ref, err = ra.Evaluate(bound, db); err != nil {
		t.Fatalf("%s: reference %q: %v", name, ref, err)
	}
	return q
}

// inlineParams writes params, numbers all, into the template's `?`
// placeholders in order.
func inlineParams(tmpl string, params []Value) string {
	for _, v := range params {
		tmpl = strings.Replace(tmpl, "?", v.String(), 1)
	}
	return tmpl
}

// TestScanFreeVerdictsAgree holds the GET/VC chase to the plans over every
// grid cell: wherever the planner labels a query's plan scan-free — an
// equality index lookup among them, one more ∝ over the index's KV schema
// R⟨A, K⟩ — the checker says scan-free too, on the parsed query and through
// Instance.ScanFree. A plan depends on no worker count, so each instance and
// phase is checked once.
func TestScanFreeVerdictsAgree(t *testing.T) {
	eachCell(t, gridNodes, gridWorkers[:1], true, func(t *testing.T, c *GridCell) {
		for i, q := range c.Queries {
			if !c.plan(t, i).ScanFree {
				continue
			}
			parsed, err := ra.Parse(q.SQL, c.Inst.db)
			if err != nil {
				t.Fatal(err)
			}
			viaInstance, err := c.Inst.ScanFree(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Inst.checker.ScanFree(parsed) || !viaInstance {
				t.Errorf("%s: %s: plan labelled scan-free, Checker.ScanFree %v, Instance.ScanFree %v: %s",
					c, q.Name, c.Inst.checker.ScanFree(parsed), viaInstance, c.plan(t, i).Root)
			}
		}
	})
}
