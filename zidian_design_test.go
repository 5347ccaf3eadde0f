package zidian

import (
	"fmt"
	"strings"
	"testing"

	"zidian/internal/workload"
)

// TestT2BGuarantee holds T2B (§8.1) to what its report claims, over the
// mot, airca and tpch suites at the budgets Exp uses, with and without
// EnsurePreserving: every query the report counts as scan-free plans
// scan-free and answers what the reference evaluator answers, an
// EnsurePreserving design satisfies Condition I, and the same input gives
// the same schema and report.
func TestT2BGuarantee(t *testing.T) {
	for _, name := range []string{"mot", "airca", "tpch"} {
		w, err := workload.Generate(name, workload.Spec{Scale: 0.1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var sqls []string
		var queries []GridQuery
		for _, q := range w.Queries {
			sqls = append(sqls, q.SQL)
			queries = append(queries, literalQuery(t, w.DB, q.Name, q.SQL))
		}
		for _, budget := range []int64{0, 200_000, 50_000} {
			for _, preserving := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/budget=%d/preserving=%v", name, budget, preserving), func(t *testing.T) {
					design := func() string {
						schema, report, err := DesignSchema(w.DB, sqls, budget, preserving)
						if err != nil {
							t.Fatal(err)
						}
						return fmt.Sprintf("%+v\n%+v", schema.KVs, *report)
					}
					first := design()
					if again := design(); again != first {
						t.Fatalf("two designs over one input differ:\n%s\n%s", first, again)
					}
					schema, report, _ := DesignSchema(w.DB, sqls, budget, preserving)
					inst, err := Open(w.DB, schema, Options{Nodes: 2, Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					if ok, missing := inst.DataPreserving(); preserving && !ok {
						t.Fatalf("an EnsurePreserving design does not preserve %v", missing)
					}
					for i, scanFree := range report.ScanFree {
						if !scanFree {
							continue
						}
						q := queries[i]
						p, err := inst.Prepare(q.SQL)
						if err != nil {
							t.Fatalf("%s, counted scan-free: %v", q.Name, err)
						}
						if !p.ScanFree() {
							t.Fatalf("%s, counted scan-free, plans a scan:\n%s", q.Name, p.Plan())
						}
						res, _, err := p.Run()
						if err == nil {
							err = checkAnswer(q, res)
						}
						if err != nil {
							t.Fatalf("%s: %v", q.Name, err)
						}
					}
				})
			}
		}
	}
}

// TestRefinementRepeatsColumns: under the airca suite's preserving design,
// ROUTE by carrier_id holds route_id and origin_id, and ROUTE by route_id,
// the primary key, holds the rest of the tuple. A query that reads an
// attribute only the second holds refines the first fetch through the
// primary key, which fetches again the attributes the fragment already
// has. The plan is scan-free and answers what the reference answers,
// whether or not the query reads a repeated attribute, and the refining ∝
// keeps only values its input lacks: carrier_id (the constant seeds its
// own column) and distance, two of the five.
func TestRefinementRepeatsColumns(t *testing.T) {
	w, err := workload.Generate("airca", workload.Spec{Scale: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var sqls []string
	for _, q := range w.Queries {
		sqls = append(sqls, q.SQL)
	}
	schema, _, err := DesignSchema(w.DB, sqls, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Open(w.DB, schema, Options{Nodes: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{
		"select R.route_id, R.distance from ROUTE R where R.carrier_id = 5",
		"select R.route_id, R.origin_id, R.carrier_id, R.distance from ROUTE R where R.carrier_id = 5",
	} {
		p, err := inst.Prepare(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if !p.ScanFree() || strings.Count(p.Plan(), "∝") != 2 {
			t.Fatalf("%q: want a scan-free plan refined through the primary key:\n%s", src, p.Plan())
		}
		res, _, err := p.Run()
		if err == nil {
			err = checkAnswer(literalQuery(t, w.DB, fmt.Sprint(i), src), res)
		}
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		analyzed, err := inst.Exec("explain analyze " + src)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range analyzed.Result.Rows {
			if line := row[0].Str; strings.Contains(line, "Extend ∝ ROUTE_by_route_id") && !strings.Contains(line, "cols=2/5") {
				t.Fatalf("%q: the refining ∝ keeps other than carrier_id and distance:\n%s", src, line)
			}
		}
	}
}
