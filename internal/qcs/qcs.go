// Package qcs implements module M4 of Zidian (Section 8.1): QCS access
// patterns Z[X] extracted from historical queries, and the T2B algorithm
// that designs a BaaV schema from them under a storage budget.
package qcs

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/ra"
	"zidian/internal/relation"
)

// QCS is one access pattern Z[X] over a relation: a plan frequently accesses
// attributes Z of the relation when the values of X ⊆ Z are already known.
// X may be empty (a full-scan pattern).
type QCS struct {
	Rel string
	Z   []string
	X   []string
}

// String renders the pattern as "Rel: Z[X]".
func (q QCS) String() string {
	return fmt.Sprintf("%s: {%s}[%s]", q.Rel, strings.Join(q.Z, ","), strings.Join(q.X, ","))
}

// key returns a canonical identity for deduplication.
func (q QCS) key() string {
	z := append([]string{}, q.Z...)
	x := append([]string{}, q.X...)
	sort.Strings(z)
	sort.Strings(x)
	return q.Rel + "|" + strings.Join(z, ",") + "|" + strings.Join(x, ",")
}

// Extract derives the QCS of one query by simulating the access order of a
// plan: starting from constant-bound attributes, atoms are visited as soon
// as one of their used attributes is derivable; X is the set of attributes
// already known at that moment (the probe key), and visiting an atom makes
// the rest of its used attributes Z known for downstream atoms. Section
// 8.1's example πF(σA=1 R(A,B,C) ⋈B=E S(E,F,G)) yields AB[A] and EF[E].
func Extract(q *ra.Query) []QCS {
	eq := ra.BuildEqClasses(q)
	known := make(map[ra.ColRef]bool)
	for _, ce := range eq.ConstCols() {
		known[eq.Find(ce.Col)] = true
	}
	for _, in := range q.Ins {
		known[eq.Find(in.Col)] = true
	}
	// Parameter-pinned columns are constant-bound at execution time, so a
	// template query contributes the same access patterns as any of its
	// literal instantiations.
	for _, pe := range q.EqParams {
		known[eq.Find(pe.Col)] = true
	}

	visited := make(map[string]bool)
	out := make([]QCS, 0, len(q.Atoms))
	for len(visited) < len(q.Atoms) {
		// Prefer an atom with some known attribute (a probe); otherwise
		// take the first unvisited one (a scan).
		pick := -1
		for i, atom := range q.Atoms {
			if visited[atom.Alias] {
				continue
			}
			for _, attr := range q.AttrsUsed(atom.Alias) {
				if known[eq.Find(ra.ColRef{Alias: atom.Alias, Attr: attr})] {
					pick = i
					break
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 {
			for i, atom := range q.Atoms {
				if !visited[atom.Alias] {
					pick = i
					break
				}
			}
		}
		atom := q.Atoms[pick]
		z := q.AttrsUsed(atom.Alias)
		var x []string
		for _, attr := range z {
			if known[eq.Find(ra.ColRef{Alias: atom.Alias, Attr: attr})] {
				x = append(x, attr)
			}
		}
		for _, attr := range z {
			known[eq.Find(ra.ColRef{Alias: atom.Alias, Attr: attr})] = true
		}
		visited[atom.Alias] = true
		out = append(out, QCS{Rel: atom.Rel, Z: z, X: x})
	}
	return out
}

// ExtractAll unions the deduplicated QCS of a workload.
func ExtractAll(queries []*ra.Query) []QCS {
	seen := make(map[string]bool)
	var out []QCS
	for _, q := range queries {
		for _, pattern := range Extract(q) {
			k := pattern.key()
			if !seen[k] {
				seen[k] = true
				out = append(out, pattern)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// Config parameterizes T2B.
type Config struct {
	// Budget bounds the estimated size in bytes of the mapped BaaV store;
	// zero means unlimited.
	Budget int64
	// EnsurePreserving adds a primary-key-keyed full schema per relation so
	// the result is data preserving (users can then drop the TaaV store).
	EnsurePreserving bool
}

// Report records what T2B did.
type Report struct {
	Patterns      int
	InitialKVs    int
	FinalKVs      int
	EstimatedSize int64
	// ScanFree maps each workload query (by index) to its scan-free status
	// under the final schema.
	ScanFree []bool
	Dropped  []string
}

// Designer runs T2B for a relational schema and a query workload.
type Designer struct {
	Rels     map[string]*relation.Schema
	Workload []*ra.Query
}

// Design computes a BaaV schema supporting the workload's access patterns
// within the storage budget (algorithm T2B, Section 8.1): (1) one KV schema
// per QCS, (2) drop schemas that are redundant for the workload, (3) merge
// and drop under the budget, preferring the schemas with the least impact
// on workload efficiency.
func (d *Designer) Design(db *relation.Database, cfg Config) (*baav.Schema, *Report, error) {
	patterns := ExtractAll(d.Workload)
	report := &Report{Patterns: len(patterns)}

	// Step 1: initial schema, one KV schema per usable pattern.
	var kvs []baav.KVSchema
	seen := make(map[string]bool)
	add := func(s baav.KVSchema) {
		id := s.Rel + "|" + strings.Join(s.Key, ",") + "|" + strings.Join(s.Val, ",")
		if !seen[id] {
			seen[id] = true
			kvs = append(kvs, s)
		}
	}
	for _, p := range patterns {
		if s, ok := d.schemaFor(p); ok {
			add(s)
		}
	}
	protected := make(map[string]bool)
	if cfg.EnsurePreserving {
		for _, relName := range slices.Sorted(maps.Keys(d.Rels)) {
			if s, ok := fullSchema(relName, d.Rels[relName]); ok {
				add(s)
				protected[s.Rel+"|"+strings.Join(s.Key, ",")] = true
			}
		}
	}
	for i := range kvs {
		kvs[i].Name = fmt.Sprintf("%s_by_%s_%d", kvs[i].Rel, strings.Join(kvs[i].Key, "_"), i)
	}
	report.InitialKVs = len(kvs)
	if len(kvs) == 0 {
		return nil, nil, fmt.Errorf("qcs: workload produced no usable access patterns")
	}
	isProtected := func(s baav.KVSchema) bool {
		return protected[s.Rel+"|"+strings.Join(s.Key, ",")]
	}

	// Step 2: drop redundant schemas (answerability and scan-freeness of
	// the workload unchanged without them). Preservation schemas stay.
	baseline := d.evaluate(kvs)
	for i := 0; i < len(kvs); {
		if isProtected(kvs[i]) {
			i++
			continue
		}
		candidate := removeAt(kvs, i)
		if len(candidate) > 0 && !worse(baseline, d.evaluate(candidate)) {
			report.Dropped = append(report.Dropped, kvs[i].Name)
			kvs = candidate
			continue
		}
		i++
	}

	// Step 3: merge same-relation same-key schemas, then drop by impact
	// until within budget.
	kvs = mergeSameKey(kvs)
	if cfg.Budget > 0 {
		for estimate(db, kvs) > cfg.Budget && len(kvs) > 1 {
			drop := d.leastImpact(db, kvs, isProtected)
			if drop < 0 {
				break // only protected schemas left
			}
			report.Dropped = append(report.Dropped, kvs[drop].Name)
			kvs = removeAt(kvs, drop)
		}
	}

	schema, err := baav.NewSchema(d.Rels, kvs...)
	if err != nil {
		return nil, nil, err
	}
	report.FinalKVs = len(kvs)
	report.EstimatedSize = estimate(db, kvs)
	checker := core.NewChecker(schema, d.Rels)
	for _, q := range d.Workload {
		report.ScanFree = append(report.ScanFree, checker.ScanFree(q))
	}
	return schema, report, nil
}

// schemaFor maps one QCS Z[X] to a KV schema ⟨X, Z\X⟩; full-scan patterns
// (empty X) are keyed by the relation's primary key.
func (d *Designer) schemaFor(p QCS) (baav.KVSchema, bool) {
	rel, ok := d.Rels[p.Rel]
	if !ok {
		return baav.KVSchema{}, false
	}
	key := append([]string{}, p.X...)
	if len(key) == 0 {
		key = append(key, rel.Key...)
	}
	if len(key) == 0 && len(p.Z) > 1 {
		key = p.Z[:1]
	}
	if len(key) == 0 {
		return baav.KVSchema{}, false
	}
	inKey := make(map[string]bool)
	for _, k := range key {
		inKey[k] = true
	}
	var val []string
	for _, z := range p.Z {
		if !inKey[z] {
			val = append(val, z)
		}
	}
	if len(val) == 0 {
		// The pattern only touches key attributes; widen with the primary
		// key so the schema remains well-formed and useful for probing.
		for _, k := range rel.Key {
			if !inKey[k] {
				val = append(val, k)
			}
		}
		if len(val) == 0 {
			return baav.KVSchema{}, false
		}
	}
	return baav.KVSchema{Rel: p.Rel, Key: key, Val: val}, true
}

// fullSchema builds the data-preserving ⟨pk, rest⟩ schema of a relation.
func fullSchema(name string, rel *relation.Schema) (baav.KVSchema, bool) {
	if len(rel.Key) == 0 || len(rel.Key) == len(rel.Attrs) {
		return baav.KVSchema{}, false
	}
	inKey := make(map[string]bool)
	for _, k := range rel.Key {
		inKey[k] = true
	}
	var val []string
	for _, a := range rel.Attrs {
		if !inKey[a.Name] {
			val = append(val, a.Name)
		}
	}
	return baav.KVSchema{Rel: name, Key: append([]string{}, rel.Key...), Val: val}, true
}

// evaluation is the workload status under a candidate schema.
type evaluation struct {
	answerable []bool
	scanFree   []bool
}

func (d *Designer) evaluate(kvs []baav.KVSchema) evaluation {
	schema, err := baav.NewSchema(d.Rels, kvs...)
	ev := evaluation{
		answerable: make([]bool, len(d.Workload)),
		scanFree:   make([]bool, len(d.Workload)),
	}
	if err != nil {
		return ev
	}
	checker := core.NewChecker(schema, d.Rels)
	for i, q := range d.Workload {
		ev.answerable[i] = checker.ResultPreserving(q)
		ev.scanFree[i] = checker.ScanFree(q)
	}
	return ev
}

// worse reports whether candidate loses any capability baseline had.
func worse(baseline, candidate evaluation) bool {
	for i := range baseline.answerable {
		if baseline.answerable[i] && !candidate.answerable[i] {
			return true
		}
		if baseline.scanFree[i] && !candidate.scanFree[i] {
			return true
		}
	}
	return false
}

// leastImpact picks the schema whose removal hurts the workload least:
// fewest queries losing scan-freeness or answerability, size as tiebreak.
// It returns -1 when only protected schemas remain.
func (d *Designer) leastImpact(db *relation.Database, kvs []baav.KVSchema, isProtected func(baav.KVSchema) bool) int {
	baseline := d.evaluate(kvs)
	best, bestImpact, bestSize := -1, 1<<30, int64(-1)
	for i := range kvs {
		if isProtected(kvs[i]) {
			continue
		}
		candidate := removeAt(kvs, i)
		if len(candidate) == 0 {
			continue
		}
		ev := d.evaluate(candidate)
		impact := 0
		for j := range baseline.answerable {
			if baseline.answerable[j] && !ev.answerable[j] {
				impact += 10 // losing answerability hurts more
			}
			if baseline.scanFree[j] && !ev.scanFree[j] {
				impact++
			}
		}
		size := estimateOne(db, kvs[i])
		if impact < bestImpact || (impact == bestImpact && size > bestSize) {
			best, bestImpact, bestSize = i, impact, size
		}
	}
	return best
}

func removeAt(kvs []baav.KVSchema, i int) []baav.KVSchema {
	out := make([]baav.KVSchema, 0, len(kvs)-1)
	out = append(out, kvs[:i]...)
	return append(out, kvs[i+1:]...)
}

// mergeSameKey merges schemas over the same relation and key into one wider
// schema (keys are stored once, so the merge shrinks the mapping).
func mergeSameKey(kvs []baav.KVSchema) []baav.KVSchema {
	type groupKey struct{ rel, key string }
	groups := make(map[groupKey]*baav.KVSchema)
	var order []groupKey
	for _, s := range kvs {
		k := append([]string{}, s.Key...)
		sort.Strings(k)
		gk := groupKey{s.Rel, strings.Join(k, ",")}
		g, ok := groups[gk]
		if !ok {
			copied := s
			copied.Val = append([]string{}, s.Val...)
			groups[gk] = &copied
			order = append(order, gk)
			continue
		}
		have := make(map[string]bool)
		for _, v := range g.Val {
			have[v] = true
		}
		for _, v := range s.Val {
			if !have[v] {
				g.Val = append(g.Val, v)
			}
		}
	}
	out := make([]baav.KVSchema, 0, len(order))
	for _, gk := range order {
		out = append(out, *groups[gk])
	}
	return out
}

// estimate computes the exact mapped size of the schemas over the database.
func estimate(db *relation.Database, kvs []baav.KVSchema) int64 {
	var total int64
	for _, s := range kvs {
		total += estimateOne(db, s)
	}
	return total
}

func estimateOne(db *relation.Database, s baav.KVSchema) int64 {
	rel := db.Relation(s.Rel)
	if rel == nil {
		return 0
	}
	keyPos, err := rel.Schema.Positions(s.Key)
	if err != nil {
		return 0
	}
	valPos, err := rel.Schema.Positions(s.Val)
	if err != nil {
		return 0
	}
	keys := make(map[string]bool)
	var total int64
	for _, t := range rel.Tuples {
		k := t.Project(keyPos)
		ks := relation.KeyString(k)
		if !keys[ks] {
			keys[ks] = true
			total += int64(k.SizeBytes())
		}
		total += int64(t.Project(valPos).SizeBytes())
	}
	return total
}
