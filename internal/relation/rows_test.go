package relation_test

import (
	"fmt"
	"slices"
	"testing"

	"zidian/internal/relation"
)

func rowsRelation() *relation.Relation {
	return relation.NewRelation(relation.MustSchema("R",
		[]relation.Attr{{Name: "id", Kind: relation.KindInt}, {Name: "name", Kind: relation.KindString}}, nil))
}

func row(i int) relation.Tuple {
	return relation.Tuple{relation.Int(int64(i)), relation.String(fmt.Sprint("row-", i))}
}

// checkRows holds the relation to exactly the rows of ids, in order.
func checkRows(t *testing.T, r *relation.Relation, ids []int) {
	t.Helper()
	if len(r.Tuples) != len(ids) {
		t.Fatalf("relation holds %d rows, want %d", len(r.Tuples), len(ids))
	}
	for i, id := range ids {
		if !r.Tuples[i].Equal(row(id)) {
			t.Fatalf("row %d = %v, want %v", i, r.Tuples[i], row(id))
		}
	}
}

// TestInsertCopiesTheRow: a caller that mutates its tuple after Insert, or
// reuses it for the next row, leaves the rows already inserted as they were.
func TestInsertCopiesTheRow(t *testing.T) {
	r := rowsRelation()
	buf := make(relation.Tuple, 2)
	var ids []int
	for i := 0; i < 100; i++ {
		copy(buf, row(i))
		r.MustInsert(buf)
		ids = append(ids, i)
	}
	buf[0], buf[1] = relation.Int(-1), relation.String("mutated")
	checkRows(t, r, ids)
}

// TestRowAppendStaysInItsRow: rows are windows of shared chunks, capped at
// their end, so an append to one reallocates it instead of writing over the
// next — before and after a re-pack.
func TestRowAppendStaysInItsRow(t *testing.T) {
	r := rowsRelation()
	var ids []int
	for i := 0; i < 50; i++ {
		r.MustInsert(row(i))
		ids = append(ids, i)
	}
	check := func() {
		t.Helper()
		for i := range r.Tuples {
			_ = append(r.Tuples[i], relation.Int(-1), relation.String("spill"))
		}
		checkRows(t, r, ids)
	}
	check()
	r.Tuples, ids = r.Tuples[40:], ids[40:] // 40 removed, 10 live: the next insert re-packs
	r.MustInsert(row(50))
	ids = append(ids, 50)
	check()
}

// TestRemovedRowsComeBack: after N inserts, N−1 removals (spliced out of
// Tuples, as the committer does) and one more insert, the chunks the
// relation holds are bounded by its two live rows, not by the N it once
// had; and the rows held from before the re-pack keep their values.
func TestRemovedRowsComeBack(t *testing.T) {
	const n = 5_000
	r := rowsRelation()
	for i := 0; i < n; i++ {
		r.MustInsert(row(i))
	}
	if got := r.ChunkValues(); got < 2*n {
		t.Fatalf("%d rows of 2 values sit in chunks of %d values", n, got)
	}
	held := slices.Clone(r.Tuples)
	for at := n - 1; at > 0; at -= 2 { // every other row from the back ...
		r.Tuples = append(r.Tuples[:at], r.Tuples[at+1:]...)
	}
	for len(r.Tuples) > 1 { // ... then from the front
		r.Tuples = append(r.Tuples[:0], r.Tuples[1:]...)
	}
	r.MustInsert(row(n))
	checkRows(t, r, []int{n - 2, n})
	if got, bound := r.ChunkValues(), 2*2*2+relation.MaxChunkValues; got > bound {
		t.Fatalf("2 live rows hold chunks of %d values, want at most %d", got, bound)
	}
	for i, h := range held {
		if !h.Equal(row(i)) {
			t.Fatalf("row %d, held across the re-pack, became %v", i, h)
		}
	}
}
