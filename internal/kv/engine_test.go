package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

var allKinds = []EngineKind{EngineHash, EngineLSM, EngineSorted}

// forEachEngine runs the test body against every engine implementation.
func forEachEngine(t *testing.T, body func(t *testing.T, e Engine)) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) { body(t, NewEngine(kind)) })
	}
}

// scanPrefix walks the engine's pairs carrying prefix the way the cluster
// does: the range [prefix, successor(prefix)], fenced by the prefix check.
func scanPrefix(e Engine, prefix []byte, fn func(key, value []byte) bool) {
	e.ScanRange(prefix, prefixSuccessor(prefix), func(k, v []byte) bool {
		return bytes.HasPrefix(k, prefix) && fn(k, v)
	})
}

func TestEngineGetPut(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		if _, ok := e.Get([]byte("a")); ok {
			t.Fatal("empty engine must miss")
		}
		e.Put([]byte("a"), []byte("1"))
		e.Put([]byte("b"), []byte("2"))
		if v, ok := e.Get([]byte("a")); !ok || string(v) != "1" {
			t.Fatalf("get a = %q, %v", v, ok)
		}
		e.Put([]byte("a"), []byte("9")) // overwrite
		if v, _ := e.Get([]byte("a")); string(v) != "9" {
			t.Fatalf("overwrite failed: %q", v)
		}
		if e.Len() != 2 {
			t.Fatalf("len = %d", e.Len())
		}
	})
}

func TestEngineDelete(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		e.Put([]byte("x"), []byte("1"))
		if !e.Delete([]byte("x")) {
			t.Fatal("delete existing must return true")
		}
		if e.Delete([]byte("x")) {
			t.Fatal("delete missing must return false")
		}
		if _, ok := e.Get([]byte("x")); ok {
			t.Fatal("deleted key must miss")
		}
		if e.Len() != 0 {
			t.Fatalf("len = %d", e.Len())
		}
	})
}

func TestEngineScanOrderAndPrefix(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		keys := []string{"b/2", "a/1", "b/1", "c", "a/2", "b/10"}
		for _, k := range keys {
			e.Put([]byte(k), []byte("v"+k))
		}
		var got []string
		scanPrefix(e, []byte("b/"), func(k, v []byte) bool {
			got = append(got, string(k))
			if string(v) != "v"+string(k) {
				t.Fatalf("value mismatch for %s", k)
			}
			return true
		})
		want := []string{"b/1", "b/10", "b/2"}
		if len(got) != len(want) {
			t.Fatalf("scan got %v want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("scan got %v want %v", got, want)
			}
		}
		// Early stop.
		n := 0
		scanPrefix(e, nil, func(k, v []byte) bool { n++; return n < 2 })
		if n != 2 {
			t.Fatalf("early stop visited %d", n)
		}
	})
}

func TestEngineScanAllSorted(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		r := rand.New(rand.NewSource(7))
		want := make([]string, 0, 200)
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("k%06d", r.Intn(100000))
			e.Put([]byte(k), []byte("v"))
			want = append(want, k)
		}
		sort.Strings(want)
		// Dedup (overwrites collapse).
		dedup := want[:0]
		for i, k := range want {
			if i == 0 || want[i-1] != k {
				dedup = append(dedup, k)
			}
		}
		var got []string
		scanPrefix(e, nil, func(k, _ []byte) bool { got = append(got, string(k)); return true })
		if len(got) != len(dedup) {
			t.Fatalf("scan %d keys, want %d", len(got), len(dedup))
		}
		for i := range got {
			if got[i] != dedup[i] {
				t.Fatalf("position %d: got %s want %s", i, got[i], dedup[i])
			}
		}
	})
}

// TestEngineMatchesModel drives every engine with a random workload and
// checks it against a plain map model after every operation batch.
func TestEngineMatchesModel(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		r := rand.New(rand.NewSource(42))
		model := make(map[string]string)
		for step := 0; step < 3000; step++ {
			k := fmt.Sprintf("key%03d", r.Intn(150))
			switch r.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("val%d", step)
				e.Put([]byte(k), []byte(v))
				model[k] = v
			case 2:
				got := e.Delete([]byte(k))
				_, want := model[k]
				if got != want {
					t.Fatalf("step %d: delete %s = %v, model %v", step, k, got, want)
				}
				delete(model, k)
			}
			if step%500 == 0 {
				kk := fmt.Sprintf("key%03d", r.Intn(150))
				gv, gok := e.Get([]byte(kk))
				mv, mok := model[kk]
				if gok != mok || (gok && string(gv) != mv) {
					t.Fatalf("step %d: get %s = %q,%v; model %q,%v", step, kk, gv, gok, mv, mok)
				}
			}
		}
		if e.Len() != len(model) {
			t.Fatalf("len = %d, model %d", e.Len(), len(model))
		}
		scanPrefix(e, nil, func(k, v []byte) bool {
			if model[string(k)] != string(v) {
				t.Fatalf("scan mismatch at %s", k)
			}
			return true
		})
	})
}

func TestLSMFlushAndCompaction(t *testing.T) {
	e := newLSMEngine()
	e.flushSize = 64 // force frequent flushes
	e.maxRuns = 2
	for i := 0; i < 500; i++ {
		e.Put([]byte(fmt.Sprintf("k%04d", i%50)), bytes.Repeat([]byte("x"), 8))
	}
	if len(e.runs) > e.maxRuns+1 {
		t.Fatalf("compaction did not bound runs: %d", len(e.runs))
	}
	if e.Len() != 50 {
		t.Fatalf("len = %d want 50", e.Len())
	}
	// Tombstones survive flush and hide older versions.
	e.Delete([]byte("k0001"))
	if _, ok := e.Get([]byte("k0001")); ok {
		t.Fatal("tombstoned key visible")
	}
	e.flush()
	if _, ok := e.Get([]byte("k0001")); ok {
		t.Fatal("tombstoned key visible after flush")
	}
	if e.Len() != 49 {
		t.Fatalf("len = %d want 49", e.Len())
	}
}

func TestSortedMerge(t *testing.T) {
	e := newSortedEngine()
	e.mergeAt = 4
	for i := 9; i >= 0; i-- {
		e.Put([]byte(fmt.Sprintf("k%d", i)), []byte{byte('0' + i)})
	}
	var got []string
	scanPrefix(e, nil, func(k, _ []byte) bool { got = append(got, string(k)); return true })
	if len(got) != 10 || got[0] != "k0" || got[9] != "k9" {
		t.Fatalf("scan = %v", got)
	}
	e.Delete([]byte("k5"))
	if e.Len() != 9 {
		t.Fatalf("len = %d", e.Len())
	}
	if e.SizeBytes() <= 0 {
		t.Fatal("size must be positive")
	}
}

func TestEngineKindString(t *testing.T) {
	names := map[EngineKind]string{EngineHash: "hash", EngineLSM: "lsm", EngineSorted: "sorted"}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%v.String() = %s", k, k.String())
		}
	}
	if EngineKind(99).String() != "unknown" {
		t.Fatal("unknown kind")
	}
}

// settle folds an engine's write buffers into its sorted store, as a
// long-lived node's are between bursts: the hash engine's pending buffer and
// tombstones, the sorted engine's write buffer, the LSM engine's memtable
// and runs.
func settle(e Engine) {
	switch e := e.(type) {
	case *hashEngine:
		e.mergePending()
	case *sortedEngine:
		e.merge()
	case *lsmEngine:
		e.flush()
		e.compact()
	}
}

// benchSink keeps the benchmarks' results alive.
var benchSink []byte

// BenchmarkEngineGetPut is each engine's point operations over 10⁵ settled
// keys: a get that hits and one that misses, a batch of 700 gets, a put of a new key and one
// overwriting a stored key, and a delete. The put-new and delete cases
// rebuild the engine, untimed, every 10⁵ operations. delete/after-puts is
// one delete after an untimed burst of puts, over 10⁴ and 10⁵ settled keys,
// as MVCC reclaim deletes between commits. Every engine buffers a delete as
// a tombstone that a later O(n) merge drops, so what grows with the keys is
// that merge's share: the hash engine merges every 4 096 writes and gallops,
// the sorted engine every 1 024 and compares every key.
func BenchmarkEngineGetPut(b *testing.B) {
	const n = 100_000
	keys := make([][]byte, 2*n) // even keys are stored, odd keys never are
	for i := range keys {
		keys[i] = hashKey(i)
	}
	val := []byte("a value of about the size of a posting")
	for _, kind := range allKinds {
		fillN := func(size int) Engine {
			e := NewEngine(kind)
			for i := 0; i < size; i++ {
				e.Put(keys[2*i], val)
			}
			settle(e)
			return e
		}
		b.Run(kind.String(), func(b *testing.B) {
			e := fillN(n)
			b.Run("get/hit", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink, _ = e.Get(keys[2*(i*7919%n)])
				}
			})
			b.Run("get/miss", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink, _ = e.Get(keys[2*(i*7919%n)+1])
				}
			})
			// One GetMany of 700 random stored keys, as a ∝ batch hands a
			// node, each batch another of 64: 44 800 keys, so the records a
			// batch reads are mostly out of cache.
			const batch, batches = 700, 64
			reqs := make([]GetRequest, batch*batches)
			idxs := make([]int32, batch)
			r := rand.New(rand.NewSource(1))
			for i := range reqs {
				reqs[i].Key = keys[2*r.Intn(n)]
			}
			out := make([]GetResult, len(reqs))
			b.Run("get/batch=700", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j := range idxs {
						idxs[j] = int32(i%batches*batch + j)
					}
					e.GetMany(reqs, idxs, out)
				}
				if !out[batch-1].OK {
					b.Fatal("a stored key missed")
				}
			})
			b.Run("put/overwrite", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e.Put(keys[2*(i*7919%n)], val)
				}
			})
			rounds := func(op func(e Engine, i int)) func(b *testing.B) {
				return func(b *testing.B) {
					b.ReportAllocs()
					var e Engine
					for i := 0; i < b.N; i++ {
						if i%n == 0 {
							b.StopTimer()
							e = fillN(n)
							b.StartTimer()
						}
						op(e, i*7919%n)
					}
				}
			}
			b.Run("put/new", rounds(func(e Engine, i int) { e.Put(keys[2*i+1], val) }))
			b.Run("delete", rounds(func(e Engine, i int) { e.Delete(keys[2*i]) }))
			const burst = 16
			for _, size := range []int{10_000, 100_000} {
				b.Run(fmt.Sprintf("delete/after-puts/%dk", size/1000), func(b *testing.B) {
					b.ReportAllocs()
					var e Engine
					for i := 0; i < b.N; i++ {
						j := i % (size / burst)
						b.StopTimer()
						if j == 0 {
							e = fillN(size)
						}
						for k := range burst {
							e.Put(keys[2*(j*burst+k)+1], val)
						}
						b.StartTimer()
						e.Delete(keys[2*(j*7919%size)])
					}
				})
			}
		})
	}
}

// BenchmarkEngineRange is a range walk of each engine with 10⁵ keys settled
// and 4 000 fresh ones written after them, over a window of 1 and of 100
// settled keys (and the fresh keys between them): what a posting-range walk
// pays between two writes.
func BenchmarkEngineRange(b *testing.B) {
	const merged, fresh = 100_000, 4_000
	keys := make([][]byte, 2*merged)
	for i := range keys {
		keys[i] = hashKey(i)
	}
	for _, kind := range allKinds {
		b.Run(kind.String(), func(b *testing.B) {
			e := NewEngine(kind)
			r := rand.New(rand.NewSource(1))
			for _, i := range r.Perm(merged) {
				e.Put(keys[2*i], []byte("v"))
			}
			settle(e)
			for _, i := range r.Perm(fresh) {
				e.Put(keys[2*i*(merged/fresh)+1], []byte("v"))
			}
			for _, span := range []int{1, 100} {
				b.Run(fmt.Sprintf("keys=%d", span), func(b *testing.B) {
					b.ReportAllocs()
					n := 0
					// One callback for every walk: built per call, the
					// closure would escape through the interface and
					// allocate.
					count := func(_, _ []byte) bool { n++; return true }
					for i := 0; i < b.N; i++ {
						lo := 2 * (i * 7919 % (merged - span))
						e.ScanRange(keys[lo], keys[lo+2*(span-1)], count)
					}
					if n < b.N*span {
						b.Fatalf("walked %d keys in %d walks of %d", n, b.N, span)
					}
				})
			}
		})
	}
}
