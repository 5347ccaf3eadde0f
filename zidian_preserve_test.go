package zidian

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"zidian/internal/workload"
)

// TestConditionIRoundTrip holds Condition I (data preservation) to its
// meaning: every relation DataPreserving accepts reads back, by a SELECT of
// all its attributes, as exactly its base rows, a multiset with kinds. It
// runs on each engine at 1 and 4 nodes, after load and again after a seeded
// run of INSERTs and DELETEs through Exec, against a mirror the test keeps
// itself.
func TestConditionIRoundTrip(t *testing.T) {
	notPreserved := map[string][]string{"tpch": {"LINEITEM", "PARTSUPP", "REGION"}}
	for _, name := range []string{"mot", "airca", "tpch"} {
		for _, engine := range gridEngines {
			for _, nodes := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/nodes=%d", name, engine, nodes), func(t *testing.T) {
					w, err := workload.Generate(name, workload.Spec{Scale: 0.1, Seed: 7})
					if err != nil {
						t.Fatal(err)
					}
					inst, err := Open(w.DB, w.Schema, Options{Engine: engine, Nodes: nodes, Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					_, missing := inst.DataPreserving()
					if !slices.Equal(missing, notPreserved[name]) {
						t.Fatalf("relations not preserved: %v, want %v", missing, notPreserved[name])
					}
					mirror := map[string][]Tuple{}
					var rels []string
					for _, rel := range inst.Relations() {
						if !slices.Contains(missing, rel) {
							rels = append(rels, rel)
							for _, row := range w.DB.Relation(rel).Tuples {
								mirror[rel] = append(mirror[rel], slices.Clone(row))
							}
						}
					}
					roundTrip(t, inst, rels, mirror, "after load")
					rng := rand.New(rand.NewSource(7))
					for i := range 60 {
						rel := rels[rng.Intn(len(rels))]
						mirror[rel] = seededWrite(t, inst, rng, rel, mirror[rel], i)
					}
					roundTrip(t, inst, rels, mirror, "after writes")
				})
			}
		}
	}
}

// roundTrip checks that SELECTing every attribute of each relation answers
// its mirror's rows, kinds included.
func roundTrip(t *testing.T, inst *Instance, rels []string, mirror map[string][]Tuple, phase string) {
	t.Helper()
	for _, rel := range rels {
		var cols []string
		for _, a := range inst.db.Schema(rel).Attrs {
			cols = append(cols, "R."+a.Name)
		}
		res, _, err := inst.Query(fmt.Sprintf("select %s from %s R", strings.Join(cols, ", "), rel))
		if err != nil {
			t.Fatalf("%s: %s: %v", phase, rel, err)
		}
		if got, want := rowBag(res.Rows), rowBag(mirror[rel]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s reads back %d rows, not its %d base rows", phase, rel, len(res.Rows), len(mirror[rel]))
		}
	}
}

func rowBag(rows []Tuple) map[string]int {
	bag := make(map[string]int, len(rows))
	for _, r := range rows {
		bag[renderRow(r)]++
	}
	return bag
}

// seededWrite deletes one of rows by its primary key or inserts a copy of
// one under a fresh key (i makes it fresh), and returns rows updated.
func seededWrite(t *testing.T, inst *Instance, rng *rand.Rand, rel string, rows []Tuple, i int) []Tuple {
	t.Helper()
	schema := inst.db.Schema(rel)
	j := rng.Intn(len(rows))
	var pk []string
	var params []Value
	for _, k := range schema.Key {
		pk = append(pk, k+" = ?")
		params = append(params, rows[j][schema.Index(k)])
	}
	if rng.Intn(2) == 0 && len(rows) > 1 {
		sql := fmt.Sprintf("delete from %s where %s", rel, strings.Join(pk, " and "))
		if r, err := inst.Exec(sql, params...); err != nil || r.Affected != 1 {
			t.Fatalf("%s %v: %v, %+v", sql, params, err, r)
		}
		return slices.Delete(rows, j, j+1)
	}
	row := slices.Clone(rows[j])
	for _, k := range schema.Key {
		c := schema.Index(k)
		if row[c].Kind == KindInt {
			row[c] = Int(1_000_000 + int64(i))
		} else {
			row[c] = String(fmt.Sprintf("fresh-%d", i))
		}
	}
	sql := fmt.Sprintf("insert into %s values (%s)", rel, strings.TrimSuffix(strings.Repeat("?, ", len(row)), ", "))
	if r, err := inst.Exec(sql, row...); err != nil || r.Affected != 1 {
		t.Fatalf("%s %v: %v, %+v", sql, row, err, r)
	}
	return append(rows, row)
}
