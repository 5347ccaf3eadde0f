package main

import (
	"fmt"
	"strings"

	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/server/client"
)

// gateStream is the generator stream the correctness gate draws from; the
// load loop uses streams 0..C-1 and the traced pass the ones after.
const gateStream = 1 << 10

// gate runs every read template with n generated bindings through the wire
// protocol, rows decoded, and compares each answer with the reference
// evaluator on the generated database. It returns the number of statements
// attempted and the mismatches (each a failed statement).
func gate(env *Env, w *Workload, seed int64, n int) (attempted int, failures []string, err error) {
	c, err := client.Dial(env.Addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	g := NewGen(w, seed, gateStream, env.NVehicles)
	for ti := range w.Reads {
		t := &w.Reads[ti]
		for i := 0; i < n; i++ {
			st := g.read(t)
			attempted++
			if msg := checkStatement(env, c, t, st); msg != "" {
				failures = append(failures, fmt.Sprintf("%s %v: %s", t.Name, st.Params, msg))
			}
			if t.Draw == nil {
				break // no parameters: every binding is the same statement
			}
		}
	}
	return attempted, failures, nil
}

// checkStatement returns "" when the wire answer equals the reference.
func checkStatement(env *Env, c *client.Client, t *Template, st Stmt) string {
	cols, rows, _, err := c.Query(st.SQL, st.Params...)
	if err != nil {
		return "wire: " + err.Error()
	}
	refSQL := st.SQL
	if len(st.Params) > 0 {
		refSQL = inline(st.SQL, st.Params)
	}
	if t.Limit > 0 {
		refSQL = strings.TrimSuffix(refSQL, fmt.Sprintf(" limit %d", t.Limit))
	}
	q, err := ra.Parse(refSQL, env.DB)
	if err != nil {
		return "reference parse: " + err.Error()
	}
	want, err := ra.Evaluate(q, env.DB)
	if err != nil {
		return "reference: " + err.Error()
	}
	got := &ra.Result{Cols: cols, Rows: wireTuples(rows, want)}
	if t.Limit == 0 {
		if !got.Equal(want) {
			return fmt.Sprintf("got %d rows, want %d (or contents differ)", len(got.Rows), len(want.Rows))
		}
		return ""
	}
	// LIMIT without ORDER BY: any Limit rows of the full answer.
	if len(got.Rows) != min(t.Limit, len(want.Rows)) {
		return fmt.Sprintf("got %d rows, want %d", len(got.Rows), min(t.Limit, len(want.Rows)))
	}
	have := make(map[string]int, len(want.Rows))
	for _, r := range want.Rows {
		have[relation.KeyString(r)]++
	}
	for _, r := range got.Rows {
		k := relation.KeyString(r)
		if have[k] == 0 {
			return fmt.Sprintf("row %v is not in the unlimited answer", r)
		}
		have[k]--
	}
	return ""
}

// wireTuples converts JSON-decoded rows to tuples. JSON has one number
// type, so each column takes its kind from the reference answer.
func wireTuples(rows [][]any, ref *ra.Result) []relation.Tuple {
	kinds := make([]relation.Kind, len(ref.Cols))
	for _, r := range ref.Rows {
		for j, v := range r {
			if j < len(kinds) && kinds[j] == relation.KindNull {
				kinds[j] = v.Kind
			}
		}
	}
	out := make([]relation.Tuple, len(rows))
	for i, row := range rows {
		t := make(relation.Tuple, len(row))
		for j, cell := range row {
			switch v := cell.(type) {
			case string:
				t[j] = relation.String(v)
			case float64:
				if j < len(kinds) && kinds[j] == relation.KindInt {
					t[j] = relation.Int(int64(v))
				} else {
					t[j] = relation.Float(v)
				}
			default:
				t[j] = relation.Null()
			}
		}
		out[i] = t
	}
	return out
}

// checkRowCounts verifies, per relation, rows = initial + inserts − deletes
// acknowledged over the whole life of the env.
func checkRowCounts(env *Env, net map[string]int64) []string {
	var failures []string
	for _, rel := range env.DB.Names() {
		want := int64(env.InitialRows[rel]) + net[rel]
		if got := int64(env.DB.Relation(rel).Cardinality()); got != want {
			failures = append(failures, fmt.Sprintf("%s holds %d rows, want %d (initial %d, net acknowledged writes %+d)",
				rel, got, want, env.InitialRows[rel], net[rel]))
		}
	}
	return failures
}
