package kv

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// hashKey is the i-th key of the hash-engine tests: fixed width, so key
// order is index order.
func hashKey(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

// walk collects what ScanRange visits in [from, to].
func walk(e Engine, from, to []byte) []string {
	var got []string
	e.ScanRange(from, to, func(k, v []byte) bool {
		got = append(got, string(k)+"="+string(v))
		return true
	})
	return got
}

// TestHashEngineMatchesSorted drives the hash engine and the sorted engine
// with the same seeded interleaving of puts, deletes, range walks and
// prefix probes, and holds every walk to be equal and every probe to match
// a model of the stored keys exactly (the hash engine's PrefixEmpty is
// exact; the sorted engine's may say "maybe" where a buffered delete sits).
// Each run drives the hash engine's pending buffer to a different size
// before it starts reading — empty, one key, one short of the merge — and
// keeps writing across at least one merge while it reads.
func TestHashEngineMatchesSorted(t *testing.T) {
	for _, pending := range []int{0, 1, hashMergeAt - 1} {
		t.Run(fmt.Sprintf("pending=%d", pending), func(t *testing.T) {
			h, s := newHashEngine(), newSortedEngine()
			model := map[string]bool{}
			put := func(i, v int) {
				k, val := hashKey(i), []byte(fmt.Sprint(v))
				h.Put(k, val)
				s.Put(k, val)
				model[string(k)] = true
			}
			// A merged base, then exactly `pending` fresh keys on top of it.
			for i := 0; i < hashMergeAt; i++ {
				put(2*i, i)
			}
			for i := 0; i < pending; i++ {
				put(2*i+1, i)
			}
			if len(h.pending) != pending {
				t.Fatalf("pending buffer holds %d keys, want %d", len(h.pending), pending)
			}
			r := rand.New(rand.NewSource(int64(7 + pending)))
			merges := 0
			for step := 0; step < 3000; step++ {
				i := r.Intn(3 * hashMergeAt)
				before := len(h.pending)
				switch op := r.Intn(10); {
				case op < 4:
					put(i, step)
				case op < 5:
					k := hashKey(i)
					if got, want := h.Delete(k), model[string(k)]; got != want {
						t.Fatalf("step %d: delete %s = %v, want %v", step, k, got, want)
					}
					s.Delete(k)
					delete(model, string(k))
				case op < 8:
					from, to := hashKey(i), hashKey(i+r.Intn(100))
					switch r.Intn(4) {
					case 0:
						from = nil
					case 1:
						to = nil
					}
					if got, want := walk(h, from, to), walk(s, from, to); !slices.Equal(got, want) {
						t.Fatalf("step %d: walk [%s, %s] = %d pairs, sorted engine %d", step, from, to, len(got), len(want))
					}
				default:
					prefix := hashKey(i)[:5]
					empty := true
					for k := range model {
						if k[:5] == string(prefix) {
							empty = false
							break
						}
					}
					if got := h.PrefixEmpty(prefix); got != empty {
						t.Fatalf("step %d: PrefixEmpty(%s) = %v, want %v", step, prefix, got, empty)
					}
					if !empty && s.PrefixEmpty(prefix) {
						t.Fatalf("step %d: sorted engine calls non-empty prefix %s empty", step, prefix)
					}
				}
				if len(h.pending) < before {
					merges++ // a put filled the buffer, or a delete folded it
				}
			}
			if pending == hashMergeAt-1 && merges == 0 {
				t.Fatal("no merge happened between walks")
			}
			if got, want := walk(h, nil, nil), walk(s, nil, nil); !slices.Equal(got, want) {
				t.Fatalf("final walk: %d pairs, sorted engine %d", len(got), len(want))
			}
		})
	}
}

// TestHashEngineSortedViewRace: eight readers under the shared lock race to
// build the sorted view of a freshly written pending buffer while a writer
// keeps writing under the exclusive lock; every reader sees every key the
// writer had put before it locked. Run it under -race.
func TestHashEngineSortedViewRace(t *testing.T) {
	e := newHashEngine()
	var mu sync.RWMutex
	for i := 0; i < 500; i++ {
		e.Put(hashKey(2*i), []byte("v"))
	}
	written := 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.RLock()
				n := 0
				e.ScanRange(nil, nil, func(k, _ []byte) bool { n++; return true })
				want := written
				empty := e.PrefixEmpty(hashKey(2 * (want - 1)))
				mu.RUnlock()
				if n != want || empty {
					t.Errorf("reader saw %d keys (last key empty: %v), want %d", n, empty, want)
					return
				}
			}
		}()
	}
	for i := 500; i < 1500; i++ {
		mu.Lock()
		e.Put(hashKey(2*i), []byte("v"))
		written++
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
}

// TestHashEngineRangeAllocs: the first range walk after a write sorts the
// pending buffer into a view; the next walks reuse it and allocate nothing
// but the keys they hand out.
func TestHashEngineRangeAllocs(t *testing.T) {
	e := newHashEngine()
	for i := 0; i < hashMergeAt+100; i++ {
		e.Put(hashKey(2*i), []byte("v"))
	}
	e.Put(hashKey(1), []byte("v")) // a write: the view must be rebuilt
	if len(e.pending) != 101 {
		t.Fatalf("pending buffer holds %d keys, want 101", len(e.pending))
	}
	none, one := hashKey(3), hashKey(2*hashMergeAt+2)
	walk := func(from, to []byte) {
		e.ScanRange(from, to, func(_, _ []byte) bool { return true })
	}
	walk(none, none)
	if got := testing.AllocsPerRun(100, func() { walk(none, none) }); got != 0 {
		t.Errorf("a walk over no key allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { walk(one, one) }); got > 1 {
		t.Errorf("a walk over one key allocates %v times, want at most 1 (the key)", got)
	}
	if got := testing.AllocsPerRun(100, func() { e.PrefixEmpty(none) }); got != 0 {
		t.Errorf("PrefixEmpty allocates %v times, want 0", got)
	}
}

// BenchmarkHashEngineRange is a range walk of the hash engine with 10⁵ keys
// merged and 4 000 pending, over a window of 1 and of 100 merged keys (and
// the pending keys between them): what a posting-range walk pays between
// two writes.
func BenchmarkHashEngineRange(b *testing.B) {
	e := newHashEngine()
	const merged, pending = 100_000, 4_000
	keys := make([][]byte, 2*merged)
	for i := range keys {
		keys[i] = hashKey(i)
	}
	r := rand.New(rand.NewSource(1))
	for _, i := range r.Perm(merged) {
		e.Put(keys[2*i], []byte("v"))
	}
	e.mergePending()
	for _, i := range r.Perm(pending) {
		e.Put(keys[2*i*(merged/pending)+1], []byte("v"))
	}
	for _, span := range []int{1, 100} {
		b.Run(fmt.Sprintf("keys=%d", span), func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				lo := 2 * (i * 7919 % (merged - span))
				e.ScanRange(keys[lo], keys[lo+2*(span-1)], func(_, _ []byte) bool { n++; return true })
			}
			if n < b.N*span {
				b.Fatalf("walked %d keys in %d walks of %d", n, b.N, span)
			}
		})
	}
}
