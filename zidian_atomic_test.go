package zidian

import (
	"encoding/binary"
	"fmt"
	"testing"

	"zidian/internal/relation"
)

// atomicItemsDB builds the write-path atomicity fixture: 100 ITEM rows over
// a pk-keyed full schema plus a sku-keyed schema, so one inserted tuple
// maintains two blocks (and, with an index, a posting) — three stores that
// must move together or not at all.
func atomicItemsDB(t *testing.T) (*Database, *BaaVSchema) {
	t.Helper()
	db := NewDatabase()
	schema := MustRelSchema("ITEM", []Attr{
		{Name: "item_id", Kind: KindInt},
		{Name: "sku", Kind: KindString},
		{Name: "qty", Kind: KindInt},
	}, []string{"item_id"})
	rel := NewRelation(schema)
	for i := 0; i < 100; i++ {
		rel.MustInsert(Tuple{
			Int(int64(i)),
			String(fmt.Sprintf("SKU-%03d", i/4)),
			Int(int64(i % 50)),
		})
	}
	db.Add(rel)
	bv, err := NewBaaVSchema(db,
		KVSchema{Name: "item_full", Rel: "ITEM", Key: []string{"item_id"}, Val: []string{"sku", "qty"}},
		KVSchema{Name: "item_by_sku", Rel: "ITEM", Key: []string{"sku"}, Val: []string{"item_id", "qty"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return db, bv
}

// corruptPair overwrites a stored pair with garbage and returns an undo. The
// predicate selects the pair by the first value of its block key; prefixes
// under the given ids are probed (BaaV instance ids are small integers,
// index ids set the top bit — see the package layouts). Every key carries
// segment (4) and version (8) suffixes; a block routes by its prefix, a
// posting fragment by its index id and value.
func corruptPair(t *testing.T, in *Instance, ids []uint32, match func(relation.Value) bool, garbage []byte) func() {
	t.Helper()
	cluster := in.Store().Cluster
	for _, id := range ids {
		prefix := make([]byte, 4)
		binary.BigEndian.PutUint32(prefix, id)
		var key, val, route []byte
		cluster.Scan(prefix, func(k, v []byte) bool {
			dv, n, err := relation.DecodeValue(k[4 : len(k)-12])
			if err != nil || !match(dv) {
				return true
			}
			key = append([]byte{}, k...)
			val = append([]byte{}, v...)
			route = key[:len(key)-12]
			if id&(1<<31) != 0 {
				route = key[:4+n]
			}
			return false
		})
		if key == nil {
			continue
		}
		cluster.PutRouted(route, key, garbage)
		return func() { cluster.PutRouted(route, key, val) }
	}
	t.Fatalf("no pair matching the corruption target under ids %v", ids)
	return nil
}

// skuMatch matches a stored pair keyed by the given sku string.
func skuMatch(sku string) func(relation.Value) bool {
	return func(v relation.Value) bool { return v.Kind == relation.KindString && v.Str == sku }
}

// TestInsertAbortsOnCorruptBlock: Insert validates and reads every affected
// block before writing anything, so a failure reading one KV schema's block
// leaves the relation and every other schema untouched — no half-applied
// insert survives.
func TestInsertAbortsOnCorruptBlock(t *testing.T) {
	db, bv := atomicItemsDB(t)
	inst, err := Open(db, bv, Options{Nodes: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rel := db.Relation("ITEM")
	// Corrupt the item_by_sku block of an existing sku: the new tuple's
	// pk block is fresh, but its sku block must be read-modify-written.
	// A truncated segment-count varint fails the read deterministically.
	undo := corruptPair(t, inst, []uint32{1, 2}, skuMatch("SKU-010"), []byte{0x80})

	bad := Tuple{Int(999), String("SKU-010"), Int(7)}
	if err := inst.Insert("ITEM", bad); err == nil {
		t.Fatal("insert over a corrupt block succeeded")
	}
	if rel.Cardinality() != 100 {
		t.Fatalf("failed insert left the relation at %d tuples, want 100", rel.Cardinality())
	}
	res, _, err := inst.Query("select I.qty from ITEM I where I.item_id = 999")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("failed insert left %d rows in the pk instance", len(res.Rows))
	}

	undo()
	if err := inst.Insert("ITEM", bad); err != nil {
		t.Fatalf("insert after restoring the block: %v", err)
	}
	if rel.Cardinality() != 100+1 {
		t.Fatalf("cardinality = %d after recovery insert", rel.Cardinality())
	}
	res, _, err = inst.Query("select I.item_id from ITEM I where I.sku = 'SKU-010'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 { // 4 seeded + the recovered insert
		t.Fatalf("sku block holds %d rows after recovery, want 5", len(res.Rows))
	}
}

// TestInsertRollsBackOnCorruptPosting: an Insert reads its posting fragment
// before anything is written, so a corrupt posting fails it whole and
// un-appends the relation tuple: all three stores still agree.
func TestInsertRollsBackOnCorruptPosting(t *testing.T) {
	db, bv := atomicItemsDB(t)
	inst, err := Open(db, bv, Options{Nodes: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Exec("create index ix_sku on ITEM(sku)"); err != nil {
		t.Fatal(err)
	}
	rel := db.Relation("ITEM")
	// A truncated segment-count varint fails the commit's read phase.
	undo := corruptPair(t, inst, []uint32{1 << 31, 1<<31 | 1, 1<<31 | 2}, skuMatch("SKU-010"), []byte{0xFE})

	bad := Tuple{Int(999), String("SKU-010"), Int(7)}
	if err := inst.Insert("ITEM", bad); err == nil {
		t.Fatal("insert over a corrupt posting succeeded")
	}
	if rel.Cardinality() != 100 {
		t.Fatalf("failed insert left the relation at %d tuples, want 100", rel.Cardinality())
	}
	res, _, err := inst.Query("select I.qty from ITEM I where I.item_id = 999")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("failed insert left %d rows in the pk instance after rollback", len(res.Rows))
	}

	undo()
	st, ok := inst.IndexStats("ix_sku")
	if !ok || st.Postings != 100 {
		t.Fatalf("postings = %d (ok=%v) after rollback, want 100", st.Postings, ok)
	}
	if err := inst.Insert("ITEM", bad); err != nil {
		t.Fatalf("insert after restoring the posting: %v", err)
	}
	if st, _ := inst.IndexStats("ix_sku"); st.Postings != 101 {
		t.Fatalf("postings = %d after recovery insert, want 101", st.Postings)
	}
	res, _, err = inst.Query("select I.item_id from ITEM I where I.sku = 'SKU-010'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("sku block holds %d rows after recovery insert, want 5", len(res.Rows))
	}
}

// TestDeleteFailsWholeOverCorruptPosting: a DELETE reads its blocks and its
// posting fragment in the commit's one prefetch round, so a corrupt block or
// a corrupt posting fails it whole, leaving the relation, the pk block and
// the posting untouched; once the posting reads again, the DELETE goes
// through.
func TestDeleteFailsWholeOverCorruptPosting(t *testing.T) {
	db, bv := atomicItemsDB(t)
	inst, err := Open(db, bv, Options{Nodes: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Exec("create index ix_sku on ITEM(sku)"); err != nil {
		t.Fatal(err)
	}
	rel := db.Relation("ITEM")
	victim := Tuple{Int(40), String("SKU-010"), Int(40)}
	pkRows := func() int {
		t.Helper()
		res, _, err := inst.Query("select I.qty from ITEM I where I.item_id = 40")
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}

	undoBlock := corruptPair(t, inst, []uint32{1, 2}, skuMatch("SKU-010"), []byte{0x80})
	if err := inst.Delete("ITEM", victim); err == nil {
		t.Fatal("delete over a corrupt block succeeded")
	}
	if rel.Cardinality() != 100 || pkRows() != 1 {
		t.Fatalf("failed delete left %d tuples and %d pk rows, want 100 and 1", rel.Cardinality(), pkRows())
	}
	undoBlock()

	undo := corruptPair(t, inst, []uint32{1 << 31, 1<<31 | 1, 1<<31 | 2}, skuMatch("SKU-010"), []byte{0xFE})
	if err := inst.Delete("ITEM", victim); err == nil {
		t.Fatal("delete over a corrupt posting succeeded")
	}
	if rel.Cardinality() != 100 || pkRows() != 1 {
		t.Fatalf("failed delete left %d tuples and %d pk rows, want 100 and 1", rel.Cardinality(), pkRows())
	}
	if st, _ := inst.IndexStats("ix_sku"); st.Postings != 100 {
		t.Fatalf("postings = %d after the failed delete, want 100", st.Postings)
	}

	undo()
	if err := inst.Delete("ITEM", victim); err != nil {
		t.Fatalf("delete after restoring the posting: %v", err)
	}
	if rel.Cardinality() != 99 || pkRows() != 0 {
		t.Fatalf("delete left %d tuples and %d pk rows, want 99 and 0", rel.Cardinality(), pkRows())
	}
	if st, _ := inst.IndexStats("ix_sku"); st.Postings != 99 {
		t.Fatalf("postings = %d after the delete, want 99", st.Postings)
	}
	res, _, err := inst.Query("select I.item_id from ITEM I where I.sku = 'SKU-010'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("sku posting holds %d rows after the delete, want 3", len(res.Rows))
	}
}
