// Package taav implements the conventional tuple-as-a-value representation
// of relations in KV stores (Section 3) and the baseline SQL-over-NoSQL
// evaluation strategy the paper compares against: retrieve every relation a
// query mentions from the storage layer with full scans, move the data to
// the SQL layer, and evaluate there. TaaV is the special case of BaaV where
// every block holds a single tuple and keys are primary keys.
package taav

import (
	"encoding/binary"
	"fmt"

	"zidian/internal/kv"
	"zidian/internal/relation"
)

// Store is a TaaV store: each tuple of each relation is one KV pair whose
// key is the relation id plus the tuple's primary key (or a synthetic row
// id when the relation has no key), and whose value is the whole tuple. As
// in a BaaV block, the key is in the order-preserving codec and the value
// in the compact one, so the two layouts compare on layout, not codec.
type Store struct {
	Cluster *kv.Cluster
	Rels    map[string]*relation.Schema

	ids    map[string]uint32
	nextID map[string]uint64 // synthetic row ids for keyless relations
}

// NewStore creates an empty TaaV store for the relational schemas.
func NewStore(rels map[string]*relation.Schema, cluster *kv.Cluster) *Store {
	s := &Store{
		Cluster: cluster,
		Rels:    rels,
		ids:     make(map[string]uint32),
		nextID:  make(map[string]uint64),
	}
	names := make([]string, 0, len(rels))
	for n := range rels {
		names = append(names, n)
	}
	// Deterministic ids.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for i, n := range names {
		s.ids[n] = uint32(i + 1)
	}
	return s
}

// Map loads a database into a fresh TaaV store on the cluster.
func Map(db *relation.Database, cluster *kv.Cluster) (*Store, error) {
	rels := make(map[string]*relation.Schema)
	for _, sc := range db.Schemas() {
		rels[sc.Name] = sc
	}
	s := NewStore(rels, cluster)
	for _, name := range db.Names() {
		rel := db.Relation(name)
		for _, t := range rel.Tuples {
			if err := s.Insert(name, t); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *Store) keyOf(rel string, t relation.Tuple) ([]byte, error) {
	schema, ok := s.Rels[rel]
	if !ok {
		return nil, fmt.Errorf("taav: unknown relation %q", rel)
	}
	out := make([]byte, 4, 4+16)
	binary.BigEndian.PutUint32(out, s.ids[rel])
	if len(schema.Key) > 0 {
		pos, err := schema.Positions(schema.Key)
		if err != nil {
			return nil, err
		}
		return relation.AppendTuple(out, t.Project(pos)), nil
	}
	s.nextID[rel]++
	return binary.BigEndian.AppendUint64(out, s.nextID[rel]), nil
}

// Insert stores one tuple.
func (s *Store) Insert(rel string, t relation.Tuple) error {
	schema, ok := s.Rels[rel]
	if !ok {
		return fmt.Errorf("taav: unknown relation %q", rel)
	}
	if len(t) != len(schema.Attrs) {
		return fmt.Errorf("taav: tuple arity %d != %s arity %d", len(t), rel, len(schema.Attrs))
	}
	key, err := s.keyOf(rel, t)
	if err != nil {
		return err
	}
	s.Cluster.Put(key, relation.AppendCompactTuple(nil, t))
	return nil
}

// Delete removes the tuple with the given primary key values.
func (s *Store) Delete(rel string, pk relation.Tuple) (bool, error) {
	schema, ok := s.Rels[rel]
	if !ok {
		return false, fmt.Errorf("taav: unknown relation %q", rel)
	}
	if len(schema.Key) == 0 {
		return false, fmt.Errorf("taav: relation %q has no primary key", rel)
	}
	out := make([]byte, 4, 4+16)
	binary.BigEndian.PutUint32(out, s.ids[rel])
	return s.Cluster.Delete(relation.AppendTuple(out, pk)), nil
}

// Get performs the TaaV point access: fetch the whole tuple by primary key.
func (s *Store) Get(rel string, pk relation.Tuple) (relation.Tuple, bool, error) {
	schema, ok := s.Rels[rel]
	if !ok {
		return nil, false, fmt.Errorf("taav: unknown relation %q", rel)
	}
	out := make([]byte, 4, 4+16)
	binary.BigEndian.PutUint32(out, s.ids[rel])
	data, found := s.Cluster.Get(relation.AppendTuple(out, pk))
	if !found {
		return nil, false, nil
	}
	t, _, err := relation.DecodeCompactTuple(data, len(schema.Attrs))
	if err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// Scan visits every tuple of the relation in key order: the "blind scan"
// that costs as many get invocations as the relation has tuples.
func (s *Store) Scan(rel string, fn func(relation.Tuple) bool) error {
	schema, ok := s.Rels[rel]
	if !ok {
		return fmt.Errorf("taav: unknown relation %q", rel)
	}
	prefix := make([]byte, 4)
	binary.BigEndian.PutUint32(prefix, s.ids[rel])
	var scanErr error
	s.Cluster.Scan(prefix, func(_, v []byte) bool {
		t, _, err := relation.DecodeCompactTuple(v, len(schema.Attrs))
		if err != nil {
			scanErr = err
			return false
		}
		return fn(t)
	})
	return scanErr
}

// ScanNode visits the relation's tuples held by one storage node; parallel
// scan drivers split work across nodes with it.
func (s *Store) ScanNode(node int, rel string, fn func(relation.Tuple) bool) error {
	schema, ok := s.Rels[rel]
	if !ok {
		return fmt.Errorf("taav: unknown relation %q", rel)
	}
	prefix := make([]byte, 4)
	binary.BigEndian.PutUint32(prefix, s.ids[rel])
	var scanErr error
	s.Cluster.ScanNode(node, prefix, func(_, v []byte) bool {
		t, _, err := relation.DecodeCompactTuple(v, len(schema.Attrs))
		if err != nil {
			scanErr = err
			return false
		}
		return fn(t)
	})
	return scanErr
}
