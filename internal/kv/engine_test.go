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
