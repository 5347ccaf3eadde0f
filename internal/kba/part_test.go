package kba

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"zidian/internal/relation"
)

// mixedRows builds n rows (id, tag, weight) dealt round-robin over the
// workers, with repeating tags so that a repartition by tag moves most rows.
func mixedRows(n, workers int) *PartRel {
	v := NewPartRel([]string{"id", "tag", "weight"}, workers)
	for i := 0; i < n; i++ {
		row := relation.Tuple{relation.Int(int64(i)), relation.String(fmt.Sprintf("tag-%03d", i*7%61)), relation.Float(float64(i) / 3)}
		v.Parts[i%workers] = append(v.Parts[i%workers], row)
	}
	return v
}

// expand is the per-worker loop of ∝ over an already fetched cache: project
// the key, look it up, concatenate.
func expand(in, out *PartRel, keyIdx []int, cache map[string][]relation.Tuple) func(w int) error {
	return func(w int) error {
		var local []relation.Tuple
		for _, row := range in.Parts[w] {
			for _, r := range cache[relation.KeyString(row.Project(keyIdx))] {
				local = append(local, row.Concat(r))
			}
		}
		out.Parts[w] = local
		return nil
	}
}

func tagCache() map[string][]relation.Tuple {
	cache := make(map[string][]relation.Tuple)
	for i := 0; i < 61; i++ {
		key := relation.Tuple{relation.String(fmt.Sprintf("tag-%03d", i))}
		cache[relation.KeyString(key)] = []relation.Tuple{{relation.Int(int64(i))}, {relation.Int(int64(-i))}}
	}
	return cache
}

// TestInlineAndFanOutAgree: below inlineRows an operator runs its
// per-worker closures in order on the calling goroutine, from inlineRows up
// it fans them out, and nothing but the goroutines differs — on each side of
// the constant and well above it, both forms of repartition and of the
// per-worker loop give the same partitions, row for row and in the same
// order, and the same shuffle bytes; and the form the input size selects is
// one of them.
func TestInlineAndFanOutAgree(t *testing.T) {
	keyIdx := []int{1}
	cache := tagCache()
	for _, workers := range []int{2, 4, 7} {
		for _, n := range []int{0, inlineRows - 1, inlineRows, inlineRows + 1, 10 * inlineRows} {
			v := mixedRows(n, workers)
			var moved [3]atomic.Int64
			inl := repartitionAs(v, keyIdx, &moved[0], true)
			fan := repartitionAs(v, keyIdx, &moved[1], false)
			picked := repartition(v, keyIdx, &moved[2])
			if !reflect.DeepEqual(inl.Parts, fan.Parts) || !reflect.DeepEqual(inl.Parts, picked.Parts) {
				t.Fatalf("p=%d n=%d: repartition forms disagree on the partitions", workers, n)
			}
			if moved[0].Load() != moved[1].Load() || moved[0].Load() != moved[2].Load() {
				t.Fatalf("p=%d n=%d: shuffle bytes %d inline, %d fanned out, %d picked",
					workers, n, moved[0].Load(), moved[1].Load(), moved[2].Load())
			}
			if n > workers && moved[0].Load() == 0 {
				t.Fatalf("p=%d n=%d: nothing moved, the comparison is blind", workers, n)
			}
			var outs [3]*PartRel
			for i := range outs {
				outs[i] = NewPartRel(nil, workers)
			}
			if err := forWorkers(workers, true, expand(inl, outs[0], keyIdx, cache)); err != nil {
				t.Fatal(err)
			}
			if err := forWorkers(workers, false, expand(inl, outs[1], keyIdx, cache)); err != nil {
				t.Fatal(err)
			}
			if err := ForWorkers(workers, inl.Len(), expand(inl, outs[2], keyIdx, cache)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(outs[0].Parts, outs[1].Parts) || !reflect.DeepEqual(outs[0].Parts, outs[2].Parts) {
				t.Fatalf("p=%d n=%d: per-worker loop forms disagree", workers, n)
			}
			if outs[0].Len() != 2*n {
				t.Fatalf("p=%d n=%d: expanded to %d rows", workers, n, outs[0].Len())
			}
		}
	}
}

// BenchmarkFanoutBreakEven is the sweep inlineRows is read from: one ∝ step
// over already fetched blocks (repartition by key, then the per-worker
// expansion) at each input size, run in order on the caller and fanned out.
// The constant sits where fanning out starts to win.
func BenchmarkFanoutBreakEven(b *testing.B) {
	keyIdx := []int{1}
	cache := tagCache()
	for _, workers := range []int{2, 4} {
		for _, n := range []int{16, 64, 128, 256, 512, 1024, 4096} {
			v := mixedRows(n, workers)
			for _, form := range []struct {
				name   string
				inline bool
			}{{"inline", true}, {"fanout", false}} {
				b.Run(fmt.Sprintf("workers=%d/rows=%d/%s", workers, n, form.name), func(b *testing.B) {
					b.ReportAllocs()
					var moved atomic.Int64
					for i := 0; i < b.N; i++ {
						shuffled := repartitionAs(v, keyIdx, &moved, form.inline)
						out := NewPartRel(nil, workers)
						if err := forWorkers(workers, form.inline, expand(shuffled, out, keyIdx, cache)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
