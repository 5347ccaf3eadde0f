package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
					merges++ // a put or a delete filled the buffer
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
// keeps putting and deleting under the exclusive lock, its deletes leaving
// tombstones the readers step over; every reader sees exactly the keys live
// when it locked. Run it under -race.
func TestHashEngineSortedViewRace(t *testing.T) {
	e := newHashEngine()
	var mu sync.RWMutex
	for i := 0; i < 500; i++ {
		e.Put(hashKey(2*i), []byte("v"))
	}
	live, last := 500, 499 // the live keys, and the index of the newest
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
				want := live
				empty := e.PrefixEmpty(hashKey(2 * last))
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
		live, last = live+1, i
		if i%2 == 0 {
			e.Delete(hashKey(i - 500)) // each of the first 500 keys once
			live--
		}
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
}

// TestHashEngineRangeAllocs: the first range walk after a write sorts the
// pending buffer into a view; the next walks reuse it and, handing out
// windows into the stored records, allocate nothing at all.
func TestHashEngineRangeAllocs(t *testing.T) {
	e := newHashEngine()
	for i := 0; i < hashMergeAt+100; i++ {
		e.Put(hashKey(2*i), []byte("v"))
	}
	e.Put(hashKey(1), []byte("v")) // a write: the view must be rebuilt
	if len(e.pending) != 101 {
		t.Fatalf("pending buffer holds %d keys, want 101", len(e.pending))
	}
	// The window of 100 keys straddles the merged keys and the pending ones.
	none, one := hashKey(3), hashKey(2*hashMergeAt+2)
	hundred := [2][]byte{hashKey(2*hashMergeAt - 100), hashKey(2*hashMergeAt + 98)}
	n := 0
	walk := func(from, to []byte) {
		n = 0
		e.ScanRange(from, to, func(_, _ []byte) bool { n++; return true })
	}
	walk(none, none)
	for _, c := range []struct {
		from, to []byte
		keys     int
	}{{none, none, 0}, {one, one, 1}, {hundred[0], hundred[1], 100}} {
		if got := testing.AllocsPerRun(100, func() { walk(c.from, c.to) }); got != 0 || n != c.keys {
			t.Errorf("a walk over %d keys visits %d and allocates %v times, want 0", c.keys, n, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() { e.PrefixEmpty(none) }); got != 0 {
		t.Errorf("PrefixEmpty allocates %v times, want 0", got)
	}
}

// pair is a key and value an engine handed out, and copies of their bytes
// when it did.
type pair struct{ k, v, wantK, wantV []byte }

// handOut walks the engine and records every pair it hands out.
func handOut(e Engine) []pair {
	var out []pair
	e.ScanRange(nil, nil, func(k, v []byte) bool {
		out = append(out, pair{k, v, bytes.Clone(k), bytes.Clone(v)})
		return true
	})
	return out
}

// TestEngineWindowsAreCapped: appending to a key or value an engine handed
// out — by Get or by a walk — reallocates it; no other pair changes. The
// values were put as adjacent windows of one buffer, which an engine keeping
// them would hand out with the next value's bytes as their capacity.
func TestEngineWindowsAreCapped(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		backing := []byte("val-aval-bval-c")
		for i, k := range []string{"a", "b", "c"} {
			e.Put([]byte(k), backing[5*i:5*i+5])
		}
		want := walk(e, nil, nil)
		v, _ := e.Get([]byte("a"))
		_ = append(v, "XXXX"...)
		for _, p := range handOut(e) {
			_ = append(p.k, "XXXX"...)
			_ = append(p.v, "XXXX"...)
		}
		if got := walk(e, nil, nil); !slices.Equal(got, want) {
			t.Fatalf("appending to handed-out windows changed the engine: %v, want %v", got, want)
		}
	})
}

// TestEnginePairsOutliveWrites is the kv.Pair contract: pairs already handed
// out keep their bytes across later overwrites — with values of the same
// length, which an engine writing in place would reuse — deletes and enough
// fresh writes to merge, flush or compact every engine's buffers.
func TestEnginePairsOutliveWrites(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine) {
		for i := 0; i < 50; i++ {
			e.Put(hashKey(i), []byte(fmt.Sprintf("first-%02d", i)))
		}
		held := handOut(e)
		if v, ok := e.Get(hashKey(7)); ok {
			held = append(held, pair{hashKey(7), v, hashKey(7), bytes.Clone(v)})
		}
		for i := 0; i < 50; i += 2 {
			e.Put(hashKey(i), []byte(fmt.Sprintf("again-%02d", i)))
			e.Delete(hashKey(i + 1))
		}
		big := bytes.Repeat([]byte("x"), 128)
		for i := 50; i < 50+hashMergeAt+defaultMergeAt; i++ {
			e.Put(hashKey(i), big)
		}
		for i := 0; i < 50; i++ {
			e.Put(hashKey(i), []byte(fmt.Sprintf("third-%02d", i)))
		}
		for _, p := range held {
			if !bytes.Equal(p.k, p.wantK) || !bytes.Equal(p.v, p.wantV) {
				t.Fatalf("handed-out pair %q=%q became %q=%q", p.wantK, p.wantV, p.k, p.v)
			}
		}
	})
}

// FuzzHashEngine decodes a sequence of operations from its input — puts,
// deletes, gets, range walks, prefix probes and forced merges over short
// keys of four symbols, so keys collide, nest and cross merges — and runs it
// on the hash engine and the sorted engine side by side beside a model of
// the stored pairs. Every answer must match the model, and after every
// operation both engines agree on Len, SizeBytes and the whole walk, and the
// hash engine's id lists hold checkTombstones.
func FuzzHashEngine(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 3, 3, 1, 1, 2, 1, 1, 4, 1, 0, 3, 5, 1, 1, 6})
	f.Add(bytes.Repeat([]byte{0, 2, 1, 2, 7, 0, 2, 2, 3, 9, 1, 0, 1, 5, 2, 2}, 40))
	f.Add(bytes.Repeat([]byte{0, 0, 3, 1, 2, 0, 8, 0, 1, 6, 2, 0, 1, 6}, 60))
	// Long random sequences: most of the 84 keys live at once, the table
	// grows, and deletes shift back entries of crossing probe runs.
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	var o fuzzOps
	// A key put again while its dead id is still listed: once merged, once
	// still pending, and twice over within one pending buffer.
	f.Add([]byte(o.put("a").merge().del("a").put("a").walk().get("a").probe("a").
		put("b").del("b").put("b").del("b").put("b").walk().probe("b").merge().walk()))
	// Walks across a run of dead ids, merged and pending, from inside it
	// and from outside it.
	f.Add([]byte(o.put("a").put("aa").put("ab").put("ab\x00").put("b").put("ba").merge().
		del("aa").del("ab").del("ab\x00").walk().walkFrom("aa").
		put("a\x00").put("a\xff").del("a\x00").del("a\xff").walk().walkFrom("a\x00").merge().walk()))
	// A prefix whose only keys are dead: in the sorted ids, in pending, and
	// in both, with a live key on either side of it.
	f.Add([]byte(o.put("\x00").put("a").put("aa").put("ab").put("b").merge().
		del("a").del("aa").del("ab").probe("a").
		put("a\x00").put("ab").del("a\x00").del("ab").probe("a").probe("ab").merge().probe("a")))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, s := newHashEngine(), newSortedEngine()
		model := map[string]string{}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		key := func() []byte {
			k := make([]byte, 1+next()%3)
			for i := range k {
				k[i] = "\x00ab\xff"[next()%4]
			}
			return k
		}
		orNil := func(k []byte) []byte {
			if next()%4 == 0 {
				return nil
			}
			return k
		}
		for step := 0; len(data) > 0; step++ {
			switch next() % 7 {
			case 0, 1:
				k, v := key(), bytes.Repeat([]byte{'0' + byte(step%10)}, int(next()%5))
				h.Put(k, v)
				s.Put(k, v)
				model[string(k)] = string(v)
			case 2:
				k := key()
				_, want := model[string(k)]
				if got := h.Delete(k); got != want {
					t.Fatalf("step %d: Delete(%q) = %v, want %v", step, k, got, want)
				}
				s.Delete(k)
				delete(model, string(k))
			case 3:
				k := key()
				v, ok := h.Get(k)
				want, wantOK := model[string(k)]
				if ok != wantOK || string(v) != want {
					t.Fatalf("step %d: Get(%q) = %q, %v; want %q, %v", step, k, v, ok, want, wantOK)
				}
			case 4:
				from, to := orNil(key()), orNil(key())
				if got, want := walk(h, from, to), walk(s, from, to); !slices.Equal(got, want) {
					t.Fatalf("step %d: walk [%q, %q] = %v, sorted engine %v", step, from, to, got, want)
				}
			case 5:
				p := key()
				p = p[:min(len(p), 1+int(next()%2))]
				empty := true
				for k := range model {
					empty = empty && !strings.HasPrefix(k, string(p))
				}
				if got := h.PrefixEmpty(p); got != empty {
					t.Fatalf("step %d: PrefixEmpty(%q) = %v, want %v", step, p, got, empty)
				}
			case 6:
				h.mergePending()
			}
			if h.Len() != len(model) || s.Len() != len(model) || h.SizeBytes() != s.SizeBytes() {
				t.Fatalf("step %d: Len %d / %d, SizeBytes %d / %d, model holds %d pairs",
					step, h.Len(), s.Len(), h.SizeBytes(), s.SizeBytes(), len(model))
			}
			if got, want := walk(h, nil, nil), walk(s, nil, nil); !slices.Equal(got, want) {
				t.Fatalf("step %d: walk = %v, sorted engine %v", step, got, want)
			}
			if err := checkTombstones(h); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

// fuzzOps encodes FuzzHashEngine's operations, so a seed reads as what it
// does. Keys are spelled in its four symbols, \x00, a, b and \xff; a range
// bound is a key and then 0 for nil or 1 to keep it.
type fuzzOps []byte

func (o fuzzOps) key(k string) fuzzOps {
	o = append(o, byte(len(k)-1))
	for _, c := range []byte(k) {
		o = append(o, byte(strings.IndexByte("\x00ab\xff", c)))
	}
	return o
}

func (o fuzzOps) put(k string) fuzzOps { return append(append(o, 0).key(k), 2) }
func (o fuzzOps) del(k string) fuzzOps { return append(o, 2).key(k) }
func (o fuzzOps) get(k string) fuzzOps { return append(o, 3).key(k) }
func (o fuzzOps) merge() fuzzOps       { return append(o, 6) }

// walk walks every pair, from nil to nil.
func (o fuzzOps) walk() fuzzOps { return append(append(append(o, 4).key("a"), 0).key("a"), 0) }

// walkFrom walks from k to the last key there can be.
func (o fuzzOps) walkFrom(k string) fuzzOps {
	return append(append(append(o, 4).key(k), 1).key("\xff\xff\xff"), 1)
}

// probe asks PrefixEmpty of k, one or two symbols long.
func (o fuzzOps) probe(k string) fuzzOps { return append(append(o, 5).key(k), byte(len(k)-1)) }

// checkTombstones holds the hash engine's id lists to the tombstone rules:
// every id listed in keys or pending is listed once, and is either the
// table's id for its key or marked dead; every mark is on a listed id, and
// ndead counts them; and no free id is listed.
func checkTombstones(h *hashEngine) error {
	listed := map[int32]int{}
	for _, id := range slices.Concat(h.keys, h.pending) {
		listed[id]++
	}
	for id, n := range listed {
		_, got, live := h.find(h.key(id), h.tag(h.key(id)))
		if live = live && got == id; n != 1 || live == h.isDead(id) {
			return fmt.Errorf("id %d (%q) listed %d times, in the table %v, marked dead %v",
				id, h.key(id), n, live, h.isDead(id))
		}
	}
	marked := 0
	for id := range int32(64 * len(h.dead)) {
		if h.isDead(id) {
			if marked++; listed[id] == 0 {
				return fmt.Errorf("dead id %d is not listed in keys or pending", id)
			}
		}
	}
	if marked != h.ndead {
		return fmt.Errorf("%d ids marked dead, ndead %d", marked, h.ndead)
	}
	for _, id := range h.free {
		if listed[id] != 0 {
			return fmt.Errorf("free id %d is still listed", id)
		}
	}
	return nil
}

// TestHashEngineDeleteCost: a delete leaves a tombstone. Over 10⁵ merged
// keys and a burst of 16 fresh ones, it allocates nothing, leaves the burst
// pending and the merged ids where they are — no fold of the buffer and no
// splice of the sorted ids, both O(n) — and a later merge drops every
// tombstone.
func TestHashEngineDeleteCost(t *testing.T) {
	const n, burst, deletes = 100_000, 16, 101
	e := newHashEngine()
	val := []byte("a value of about the size of a posting")
	for i := 0; i < n; i++ {
		e.Put(hashKey(2*i), val)
	}
	e.mergePending()
	for i := 0; i < burst; i++ {
		e.Put(hashKey(2*i+1), val)
	}
	victims := make([][]byte, deletes)
	for i := range victims {
		victims[i] = hashKey(2 * 7 * i)
	}
	merged := &e.keys[0]
	i := 0
	// AllocsPerRun calls the delete once more than it measures.
	allocs := testing.AllocsPerRun(deletes-1, func() {
		if !e.Delete(victims[i]) {
			t.Fatalf("delete of stored key %s missed", victims[i])
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("a delete allocates %v times, want 0", allocs)
	}
	if len(e.pending) != burst || len(e.keys) != n || &e.keys[0] != merged {
		t.Errorf("deletes moved the id lists: %d pending (want %d), %d merged ids (want %d, in place)",
			len(e.pending), burst, len(e.keys), n)
	}
	if got, want := e.Len(), n+burst-deletes; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	e.mergePending()
	if len(e.keys) != n+burst-deletes || e.ndead != 0 || len(e.free) != deletes {
		t.Errorf("after the merge: %d ids, %d dead, %d free; want %d, 0, %d",
			len(e.keys), len(e.dead), len(e.free), n+burst-deletes, deletes)
	}
	if err := checkTombstones(e); err != nil {
		t.Error(err)
	}
}
