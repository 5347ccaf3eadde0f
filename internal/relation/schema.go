package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Attr is a named, typed attribute of a relation schema.
type Attr struct {
	Name string
	Kind Kind
}

// Schema describes a relation: its name, ordered attributes, and primary key.
type Schema struct {
	Name  string
	Attrs []Attr
	// Key holds the primary-key attribute names (a subset of Attrs).
	Key []string

	index map[string]int // lazily built name -> position
}

// NewSchema builds a schema and validates that key attributes exist.
func NewSchema(name string, attrs []Attr, key []string) (*Schema, error) {
	s := &Schema{Name: name, Attrs: attrs, Key: key}
	s.buildIndex()
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if seen[a.Name] {
			return nil, fmt.Errorf("relation %s: duplicate attribute %q", name, a.Name)
		}
		seen[a.Name] = true
	}
	for _, k := range key {
		if !seen[k] {
			return nil, fmt.Errorf("relation %s: key attribute %q not in schema", name, k)
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for static workload schemas.
func MustSchema(name string, attrs []Attr, key []string) *Schema {
	s, err := NewSchema(name, attrs, key)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Schema) buildIndex() {
	s.index = make(map[string]int, len(s.Attrs))
	for i, a := range s.Attrs {
		s.index[a.Name] = i
	}
}

// Index returns the position of the named attribute, or -1.
func (s *Schema) Index(name string) int {
	if s.index == nil {
		s.buildIndex()
	}
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named attribute.
func (s *Schema) Has(name string) bool { return s.Index(name) >= 0 }

// AttrNames returns the attribute names in schema order.
func (s *Schema) AttrNames() []string {
	out := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		out[i] = a.Name
	}
	return out
}

// Positions maps attribute names to their positions; it errors on unknown
// attributes.
func (s *Schema) Positions(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		j := s.Index(n)
		if j < 0 {
			return nil, fmt.Errorf("relation %s: unknown attribute %q", s.Name, n)
		}
		out[i] = j
	}
	return out, nil
}

// String renders the schema as "Name(a, b, c key(a))".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
	}
	if len(s.Key) > 0 {
		b.WriteString(" key(")
		b.WriteString(strings.Join(s.Key, ", "))
		b.WriteByte(')')
	}
	b.WriteByte(')')
	return b.String()
}

// Relation is an in-memory instance of a schema.
//
// Insert copies each row into the relation's own storage: a caller may
// mutate or reuse its tuple afterwards. The rows live in chunks of a few
// hundred rows each, so the collector marks one object per chunk instead of
// one per row; every element of Tuples is a window into a chunk, capped at
// the row's end, so an append to one reallocates it instead of reaching the
// next. A chunk is never written after a row has been carved from it: a
// tuple anyone still holds keeps its values whatever later happens to the
// relation. Code that removes rows splices Tuples directly; once the slots
// of removed rows outnumber the live rows, the next Insert re-packs the live
// rows into fresh chunks so the memory of the removed ones comes back.
type Relation struct {
	Schema *Schema
	Tuples []Tuple

	// chunk is the chunk rows are being carved from: its free tail is
	// cap(chunk)-len(chunk) values. placed counts the rows carved since the
	// last re-pack, removed ones included, and chunkValues the capacity of
	// every chunk allocated since then.
	chunk       []Value
	placed      int
	chunkValues int
}

// Chunks double from firstChunkRows rows up to maxChunkValues values
// (160 KB of Values), or one row when a row is wider than that.
const (
	firstChunkRows = 8
	maxChunkValues = 4096
)

// NewRelation returns an empty relation over the schema.
func NewRelation(s *Schema) *Relation { return &Relation{Schema: s} }

// Insert appends a copy of the tuple after arity checking.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != len(r.Schema.Attrs) {
		return fmt.Errorf("relation %s: tuple arity %d != schema arity %d",
			r.Schema.Name, len(t), len(r.Schema.Attrs))
	}
	if r.placed-len(r.Tuples) > len(r.Tuples) {
		r.repack()
	}
	r.Tuples = append(r.Tuples, r.place(t))
	return nil
}

// place copies t into the current chunk, starting the next one when it has
// no room, and returns the copy as a capped window.
func (r *Relation) place(t Tuple) Tuple {
	if cap(r.chunk)-len(r.chunk) < len(t) {
		n := min(max(2*cap(r.chunk), firstChunkRows*len(t)), max(maxChunkValues, len(t)))
		r.chunk = make([]Value, 0, n)
		r.chunkValues += n
	}
	i := len(r.chunk)
	r.chunk = append(r.chunk, t...)
	r.placed++
	return r.chunk[i:len(r.chunk):len(r.chunk)]
}

// repack copies the live rows into fresh chunks, in place in Tuples. The
// old chunks stay intact for whoever still holds a row of them.
func (r *Relation) repack() {
	r.chunk, r.placed, r.chunkValues = nil, 0, 0
	for i, t := range r.Tuples {
		r.Tuples[i] = r.place(t)
	}
}

// MustInsert is Insert that panics on arity mismatch.
func (r *Relation) MustInsert(t Tuple) {
	if err := r.Insert(t); err != nil {
		panic(err)
	}
}

// Cardinality returns |R|, the number of tuples.
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// ValueCount returns ||R||, the number of values (tuples × arity).
func (r *Relation) ValueCount() int { return len(r.Tuples) * len(r.Schema.Attrs) }

// SizeBytes returns the accounting size of the relation.
func (r *Relation) SizeBytes() int {
	n := 0
	for _, t := range r.Tuples {
		n += t.SizeBytes()
	}
	return n
}

// Database is a named collection of relations, the "D of schema R" of the
// paper.
type Database struct {
	rels  map[string]*Relation
	order []string
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Relation)}
}

// Add registers a relation; it replaces any prior relation of the same name.
func (d *Database) Add(r *Relation) {
	if _, ok := d.rels[r.Schema.Name]; !ok {
		d.order = append(d.order, r.Schema.Name)
	}
	d.rels[r.Schema.Name] = r
}

// Relation returns the named relation, or nil.
func (d *Database) Relation(name string) *Relation { return d.rels[name] }

// Schema returns the schema of the named relation, or nil.
func (d *Database) Schema(name string) *Schema {
	if r := d.rels[name]; r != nil {
		return r.Schema
	}
	return nil
}

// Names returns relation names in insertion order.
func (d *Database) Names() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// Schemas returns all relation schemas, sorted by name for determinism.
func (d *Database) Schemas() []*Schema {
	out := make([]*Schema, 0, len(d.rels))
	for _, r := range d.rels {
		out = append(out, r.Schema)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Cardinality returns |D|, total tuples across relations.
func (d *Database) Cardinality() int {
	n := 0
	for _, r := range d.rels {
		n += r.Cardinality()
	}
	return n
}

// ValueCount returns ||D||, total values across relations.
func (d *Database) ValueCount() int {
	n := 0
	for _, r := range d.rels {
		n += r.ValueCount()
	}
	return n
}

// SizeBytes returns the accounting size of the whole database.
func (d *Database) SizeBytes() int {
	n := 0
	for _, r := range d.rels {
		n += r.SizeBytes()
	}
	return n
}
