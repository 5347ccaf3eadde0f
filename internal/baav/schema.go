// Package baav implements the block-as-a-value data model of the paper
// (Section 4.1): KV schemas ~R⟨X,Y⟩, keyed blocks (k,B), BaaV stores over a
// KV cluster, the mapping from relational databases to BaaV stores, block
// segmentation, block compression with multiplicity counters, per-block
// group-by statistics, and incremental maintenance under updates.
package baav

import (
	"fmt"
	"slices"
	"sort"

	"zidian/internal/relation"
)

// KVSchema is one KV schema ~R⟨X,Y⟩ over a source relation: keys are tuples
// over the Key attributes, values are blocks of tuples over the Val
// attributes.
type KVSchema struct {
	// Name identifies the KV schema uniquely within a BaaV schema.
	Name string
	// Rel is the source relation the schema projects.
	Rel string
	// Key is X: the key attributes (any attributes, not just primary keys).
	Key []string
	// Val is Y: the value attributes grouped into blocks.
	Val []string
}

// Attrs returns X ∪ Y in key-then-value order.
func (s KVSchema) Attrs() []string {
	out := make([]string, 0, len(s.Key)+len(s.Val))
	out = append(out, s.Key...)
	out = append(out, s.Val...)
	return out
}

// Has reports whether a is one of X ∪ Y.
func (s KVSchema) Has(a string) bool {
	return slices.Contains(s.Key, a) || slices.Contains(s.Val, a)
}

// String renders the schema as "name: Rel⟨X | Y⟩".
func (s KVSchema) String() string {
	return fmt.Sprintf("%s: %s<%v | %v>", s.Name, s.Rel, s.Key, s.Val)
}

// Schema is a BaaV schema ~R: a set of KV schemas. The paper assumes each KV
// schema draws its attributes from a single relation schema; so does this
// implementation.
type Schema struct {
	KVs    []KVSchema
	byName map[string]int
}

// NewSchema validates and indexes a set of KV schemas against the relational
// schemas they project.
func NewSchema(rels map[string]*relation.Schema, kvs ...KVSchema) (*Schema, error) {
	s := &Schema{KVs: kvs, byName: make(map[string]int, len(kvs))}
	for i, kvSchema := range kvs {
		if kvSchema.Name == "" {
			return nil, fmt.Errorf("baav: KV schema %d has no name", i)
		}
		if _, dup := s.byName[kvSchema.Name]; dup {
			return nil, fmt.Errorf("baav: duplicate KV schema name %q", kvSchema.Name)
		}
		rel, ok := rels[kvSchema.Rel]
		if !ok {
			return nil, fmt.Errorf("baav: KV schema %s references unknown relation %q", kvSchema.Name, kvSchema.Rel)
		}
		if len(kvSchema.Key) == 0 || len(kvSchema.Val) == 0 {
			return nil, fmt.Errorf("baav: KV schema %s needs non-empty key and value attribute sets", kvSchema.Name)
		}
		seen := make(map[string]bool)
		for _, a := range kvSchema.Attrs() {
			if !rel.Has(a) {
				return nil, fmt.Errorf("baav: KV schema %s: relation %s has no attribute %q", kvSchema.Name, kvSchema.Rel, a)
			}
			if seen[a] {
				return nil, fmt.Errorf("baav: KV schema %s: attribute %q repeated", kvSchema.Name, a)
			}
			seen[a] = true
		}
		s.byName[kvSchema.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for static workload schemas.
func MustSchema(rels map[string]*relation.Schema, kvs ...KVSchema) *Schema {
	s, err := NewSchema(rels, kvs...)
	if err != nil {
		panic(err)
	}
	return s
}

// RelSchemas collects a database's relation schemas into the map NewSchema
// expects.
func RelSchemas(db *relation.Database) map[string]*relation.Schema {
	out := make(map[string]*relation.Schema)
	for _, s := range db.Schemas() {
		out[s.Name] = s
	}
	return out
}

// ByName returns the KV schema with the given name, or nil.
func (s *Schema) ByName(name string) *KVSchema {
	if i, ok := s.byName[name]; ok {
		return &s.KVs[i]
	}
	return nil
}

// ForRelation returns the KV schemas projecting the given relation, in
// declaration order.
func (s *Schema) ForRelation(rel string) []KVSchema {
	var out []KVSchema
	for _, kvSchema := range s.KVs {
		if kvSchema.Rel == rel {
			out = append(out, kvSchema)
		}
	}
	return out
}

// Names returns all KV schema names, sorted.
func (s *Schema) Names() []string {
	out := make([]string, 0, len(s.KVs))
	for _, kvSchema := range s.KVs {
		out = append(out, kvSchema.Name)
	}
	sort.Strings(out)
	return out
}
