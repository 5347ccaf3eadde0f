// Package core implements Zidian's middleware logic — the paper's primary
// contribution: the closure clo(~R, ~𝐑) and data/result preservability
// characterizations (Conditions (I) and (II), Theorems 1–3), the GET/VC
// chase and the scan-free characterization (Condition (III), Theorems 4–5),
// and chase-based KBA plan generation (Section 6.2, Theorem 6) with its
// bounded-plan check.
package core

import (
	"sort"

	"zidian/internal/baav"
	"zidian/internal/ra"
	"zidian/internal/relation"
)

// PlanStats supplies the cardinality statistics the planner uses for its
// scan-vs-probe cost decision, and advertises whether blocks carry
// statistics headers (enabling aggregate pushdown). *baav.Store implements
// it.
type PlanStats interface {
	// InstanceBlocks returns the number of keyed blocks in a KV instance.
	InstanceBlocks(name string) int
	// RelationRows returns the tuple count of a base relation.
	RelationRows(rel string) int
	// HasBlockStats reports whether blocks carry min/max/sum statistics.
	HasBlockStats() bool
}

// IndexCatalog lists the secondary indexes available to the planner. It is
// implemented by baav.Indexes. An index on R.A is the KV schema R⟨A, K⟩: the
// chase reasons over it like any KV schema, and an equality lookup is a ∝
// over it. Unlike the BaaV schema, the catalog is mutable at runtime (CREATE
// INDEX / DROP INDEX), so the planner consults it on every Plan call; cached
// plans must be invalidated when it changes (the serving layer's schema
// epoch does this).
type IndexCatalog interface {
	// OnRelation returns the indexes on rel as KV schemas R⟨A, K⟩, named
	// by the index: Key is [A], Val the block-key attributes its postings
	// hold (the relation's primary key).
	OnRelation(rel string) []baav.KVSchema
	// KVSchema returns the named index as the KV schema R⟨A, K⟩, or nil.
	KVSchema(name string) *baav.KVSchema
	// Shape returns the index's distinct-entry and total-posting counts —
	// the statistics behind the index-vs-scan decision (posting lists read
	// × average posting).
	Shape(name string) (entries, postings int)
	// ValueBounds returns the smallest and largest value the index
	// currently holds (ok false when unknown or empty). The planner uses
	// them to replace the shape-only matched-fraction guess with an
	// interpolated estimate when a range's bounds are literals; the
	// statistic is maintained incrementally on insert and delete, so it
	// stays exact under churn.
	ValueBounds(name string) (lo, hi relation.Value, ok bool)
}

// Checker answers the fundamental questions of modules M1 and M2: whether a
// BaaV schema preserves a relational schema or a query, and whether a query
// is scan-free or bounded.
type Checker struct {
	Schema *baav.Schema
	Rels   map[string]*relation.Schema
	// Stats, when set, enables the planner's cost-based choice between
	// probing an instance with ∝ and scanning it (relevant only for plans
	// that already contain a scan; scan-free plans never probe from an
	// unbounded fragment).
	Stats PlanStats
	// Indexes, when set, adds the secondary indexes to the KV schemas the
	// chase and the planner reason over: ∝ steps over an index for constant
	// predicates on non-key attributes, and range reads.
	Indexes IndexCatalog
}

// NewChecker builds a checker for the BaaV schema over the relational
// schemas.
func NewChecker(schema *baav.Schema, rels map[string]*relation.Schema) *Checker {
	return &Checker{Schema: schema, Rels: rels}
}

// WithStats attaches planner statistics (usually the BaaV store itself).
func (c *Checker) WithStats(stats PlanStats) *Checker {
	c.Stats = stats
	return c
}

// WithIndexes attaches the secondary-index catalog (usually the store's
// Indexes).
func (c *Checker) WithIndexes(idx IndexCatalog) *Checker {
	c.Indexes = idx
	return c
}

// pkOf returns the primary key pk(~S) of a KV schema: the source relation's
// primary key when the schema contains all of its attributes, nil otherwise
// (a schema without the full primary key never carries one). A primary key
// inside clo certifies that the remaining attributes of the relation are
// functionally determined, so combinations reconstructed through it are
// verified (Section 5.2).
func (c *Checker) pkOf(s baav.KVSchema) []string {
	rel, ok := c.Rels[s.Rel]
	if !ok || len(rel.Key) == 0 {
		return nil
	}
	for _, k := range rel.Key {
		if !s.Has(k) {
			return nil
		}
	}
	return rel.Key
}

// kvSchemas returns the KV schemas over rel that the chase reasons with:
// the BaaV schema's, then each secondary index on rel as R⟨A, K⟩.
func (c *Checker) kvSchemas(rel string) []baav.KVSchema {
	out := c.Schema.ForRelation(rel)
	if c.Indexes == nil {
		return out
	}
	return append(out, c.Indexes.OnRelation(rel)...)
}

// KVSchema returns the KV schema named name — the BaaV schema's, or a
// secondary index's — or nil: what kba.Resolve looks plan nodes up in.
func (c *Checker) KVSchema(name string) *baav.KVSchema {
	if s := c.Schema.ByName(name); s != nil || c.Indexes == nil {
		return s
	}
	return c.Indexes.KVSchema(name)
}

// Clo computes clo(~S, ~𝐑) for the named anchor KV schema: the attribute
// closure within the anchor's relation, expanded through KV schemas whose
// primary key is already in the closure (Condition (I)'s inductive
// definition). The optional allowed filter restricts which schemas may
// participate (used by VC, which only admits GET-covered schemas).
func (c *Checker) Clo(anchor string, allowed func(baav.KVSchema) bool) map[string]bool {
	s := c.KVSchema(anchor)
	if s == nil {
		return nil
	}
	return c.clo(*s, c.kvSchemas(s.Rel), allowed)
}

// clo is Clo for anchor s among its relation's KV schemas sameRel.
func (c *Checker) clo(s baav.KVSchema, sameRel []baav.KVSchema, allowed func(baav.KVSchema) bool) map[string]bool {
	clo := make(map[string]bool)
	for _, a := range s.Attrs() {
		clo[a] = true
	}
	for changed := true; changed; {
		changed = false
		for _, s2 := range sameRel {
			if allowed != nil && !allowed(s2) {
				continue
			}
			pk := c.pkOf(s2)
			if pk == nil {
				continue
			}
			inClo := true
			for _, a := range pk {
				if !clo[a] {
					inClo = false
					break
				}
			}
			if !inClo {
				continue
			}
			for _, attrs := range [2][]string{s2.Key, s2.Val} {
				for _, a := range attrs {
					if !clo[a] {
						clo[a] = true
						changed = true
					}
				}
			}
		}
	}
	return clo
}

// DataPreserving checks Condition (I): for every relation there is a KV
// schema whose closure equals the relation's full attribute set (Theorem 1).
// It returns the names of relations that are not preserved.
func (c *Checker) DataPreserving() (bool, []string) {
	var missing []string
	for relName, rel := range c.Rels {
		ok := false
		schemas := c.kvSchemas(relName)
		for _, s := range schemas {
			clo := c.clo(s, schemas, nil)
			if len(clo) != len(rel.Attrs) {
				continue
			}
			all := true
			for _, a := range rel.Attrs {
				if !clo[a.Name] {
					all = false
					break
				}
			}
			if all {
				ok = true
				break
			}
		}
		if !ok {
			missing = append(missing, relName)
		}
	}
	sort.Strings(missing)
	return len(missing) == 0, missing
}

// ResultPreserving checks Condition (II) on min(Q): every atom of the
// minimal equivalent query has a KV schema whose closure covers the
// attributes the query uses from it (Theorem 2; Theorem 3 reduces RAaggr to
// its max SPC sub-queries, which in this fragment is the SPC core checked
// here).
func (c *Checker) ResultPreserving(q *ra.Query) bool {
	m := q.Minimize()
	for _, atom := range m.Atoms {
		used := m.AttrsUsed(atom.Alias)
		ok := false
		schemas := c.kvSchemas(atom.Rel)
		for _, s := range schemas {
			clo := c.clo(s, schemas, nil)
			covered := true
			for _, a := range used {
				if !clo[a] {
					covered = false
					break
				}
			}
			if covered {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// ScanFree checks Condition (III) on min(Q): every atom's used attributes
// X_R^min(Q) lie inside some verifiable combination W ∈ VC(min(Q), ~𝐑)
// (Theorem 4; the RAaggr effective syntax of Theorem 5 again reduces to the
// SPC core). The secondary indexes are KV schemas of ~𝐑 here, so a query
// the planner answers by a ∝ over an index is scan-free.
func (c *Checker) ScanFree(q *ra.Query) bool {
	m := q.Minimize()
	eq := ra.BuildEqClasses(m)
	if eq.Unsat {
		return true // trivially scan-free: the empty plan answers it
	}
	get := c.GetSet(m, eq)
	for _, atom := range m.Atoms {
		if !c.atomScanFree(m, eq, get, atom) {
			return false
		}
	}
	return true
}

// atomScanFree reports whether one atom's used attributes fit inside a
// verifiable combination: an anchor schema all of whose attributes are in
// GET, whose GET-restricted closure covers X_a.
func (c *Checker) atomScanFree(q *ra.Query, eq *ra.EqClasses, get map[ra.ColRef]bool, atom ra.Atom) bool {
	used := q.AttrsUsed(atom.Alias)
	inGet := func(s baav.KVSchema) bool {
		for _, attrs := range [2][]string{s.Key, s.Val} {
			for _, a := range attrs {
				if !get[eq.Find(ra.ColRef{Alias: atom.Alias, Attr: a})] {
					return false
				}
			}
		}
		return true
	}
	schemas := c.kvSchemas(atom.Rel)
	for _, s := range schemas {
		if !inGet(s) {
			continue
		}
		clo := c.clo(s, schemas, inGet)
		covered := true
		for _, a := range used {
			if !clo[a] {
				covered = false
				break
			}
		}
		if covered {
			return true
		}
	}
	return false
}

// GetSet computes GET(Q, ~𝐑) as the set of equality-class roots whose
// values are retrievable with scan-free plans (Section 6.1): constant
// attributes seed the set (rule a; IN lists count as finite constant sets),
// equality transitivity is built into the class representation (rule b),
// and KV schemas — secondary indexes among them — propagate keys to values
// per atom (rule c).
func (c *Checker) GetSet(q *ra.Query, eq *ra.EqClasses) map[ra.ColRef]bool {
	get := make(map[ra.ColRef]bool)
	for _, ce := range eq.ConstCols() {
		get[eq.Find(ce.Col)] = true
	}
	for _, in := range q.Ins {
		get[eq.Find(in.Col)] = true
	}
	// Parameter-pinned classes are constants whose value arrives at bind
	// time: retrievability depends only on the pin, not the value, so the
	// template chases exactly like any literal instantiation.
	for _, pe := range q.EqParams {
		get[eq.Find(pe.Col)] = true
	}
	schemas := make([][]baav.KVSchema, len(q.Atoms))
	for i, atom := range q.Atoms {
		schemas[i] = c.kvSchemas(atom.Rel)
	}
	for changed := true; changed; {
		changed = false
		for i, atom := range q.Atoms {
			for _, s := range schemas[i] {
				keyIn := true
				for _, k := range s.Key {
					if !get[eq.Find(ra.ColRef{Alias: atom.Alias, Attr: k})] {
						keyIn = false
						break
					}
				}
				if !keyIn {
					continue
				}
				for _, v := range s.Val {
					root := eq.Find(ra.ColRef{Alias: atom.Alias, Attr: v})
					if !get[root] {
						get[root] = true
						changed = true
					}
				}
			}
		}
	}
	return get
}
