package index_test

import (
	"fmt"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/kv"
	"zidian/internal/relation"
)

// benchIndex builds ix_sku over n ITEM tuples on a 4-node hash cluster: ten
// sku values of n/10 postings each.
func benchIndex(b *testing.B, n int) *baav.Store {
	st := itemStore(b, kv.EngineHash, 4)
	if _, err := st.CreateIndex("ix_sku", "ITEM", "sku", itemTuples(n)); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkIndexLookup times Lookup of one value's posting list, 100 and
// 2 000 keys long: one get, and ⌈2 000/M⌉ fragment gets in one round.
func BenchmarkIndexLookup(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("postings%d", n/10), func(b *testing.B) {
			st := benchIndex(b, n)
			v := relation.String("S03")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				keys, _, err := st.Index.Lookup("ix_sku", v)
				if err != nil || len(keys) != n/10 {
					b.Fatalf("%d keys, %v", len(keys), err)
				}
			}
		})
	}
}

// BenchmarkIndexRange times RangeLimitT over three values of 2 000
// postings each: the whole window, and a LIMIT 20 that stops in the first
// fragment.
func BenchmarkIndexRange(b *testing.B) {
	st := benchIndex(b, 20000)
	lo, hi := relation.String("S03"), relation.String("S05")
	for _, c := range []struct {
		name  string
		limit int
	}{{"all", -1}, {"limit20", 20}} {
		b.Run(c.name, func(b *testing.B) {
			want := 6000
			if c.limit > 0 {
				want = c.limit
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, keys, _, err := st.Index.RangeLimitT(nil, "ix_sku", &lo, &hi, true, true, c.limit)
				if err != nil || len(keys) != want {
					b.Fatalf("%d keys, %v", len(keys), err)
				}
			}
		})
	}
}
