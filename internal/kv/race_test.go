package kv

import (
	"fmt"
	"sync"
	"testing"
)

// TestScanDuringGetRace drives concurrent scans, gets and writes against
// every engine kind. Its job is to fail under the race detector if a scan
// mutates engine state while only holding the read lock: the hash engine's
// precomputed key order, the LSM engine's snapshot scan, and the sorted
// engine's buffer-overlay scan must all stay pure reads (every cluster scan
// runs under the shared lock).
func TestScanDuringGetRace(t *testing.T) {
	for _, kind := range []EngineKind{EngineHash, EngineLSM, EngineSorted} {
		t.Run(kind.String(), func(t *testing.T) {
			c := NewCluster(kind, 4)
			for i := 0; i < 512; i++ {
				c.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
			}
			const loops = 200
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(3)
				go func(w int) { // scanner
					defer wg.Done()
					for i := 0; i < loops; i++ {
						n := 0
						c.Scan([]byte("k"), func(_, _ []byte) bool {
							n++
							return n < 64
						})
					}
				}(w)
				go func(w int) { // getter
					defer wg.Done()
					for i := 0; i < loops; i++ {
						c.Get([]byte(fmt.Sprintf("k%04d", (i*7+w)%512)))
					}
				}(w)
				go func(w int) { // writer
					defer wg.Done()
					for i := 0; i < loops; i++ {
						k := []byte(fmt.Sprintf("w%d-%04d", w, i))
						c.Put(k, []byte("x"))
						if i%3 == 0 {
							c.Delete(k)
						}
					}
				}(w)
			}
			wg.Wait()
			// The seeded pairs must all survive the churn.
			for i := 0; i < 512; i += 61 {
				if _, ok := c.Get([]byte(fmt.Sprintf("k%04d", i))); !ok {
					t.Fatalf("%s: seeded key k%04d lost", kind, i)
				}
			}
		})
	}
}

// TestSortedEngineScanOverlay checks the sorted engine's read-only scan:
// unmerged buffered inserts, overrides and deletions must all be visible in
// key order without the scan folding the buffer.
func TestSortedEngineScanOverlay(t *testing.T) {
	e := newSortedEngine()
	for _, k := range []string{"d", "a", "c"} {
		e.Put([]byte(k), []byte("s:"+k))
	}
	e.merge() // sorted array now holds a, c, d
	// Buffered, unmerged writes: a fresh key, an override, and a delete.
	e.Put([]byte("b"), []byte("b:new"))
	e.Put([]byte("c"), []byte("c:override"))
	e.Delete([]byte("d"))
	if len(e.buf) == 0 {
		t.Fatal("test needs an unmerged buffer")
	}
	bufBefore := len(e.buf)
	var got []string
	scanPrefix(e, nil, func(k, v []byte) bool {
		got = append(got, string(k)+"="+string(v))
		return true
	})
	want := []string{"a=s:a", "b=b:new", "c=c:override"}
	if len(got) != len(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
	if len(e.buf) != bufBefore {
		t.Fatalf("scan mutated the buffer: %d -> %d entries", bufBefore, len(e.buf))
	}
	if n := e.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
	if e.SizeBytes() <= 0 {
		t.Fatalf("SizeBytes = %d", e.SizeBytes())
	}
	// Prefix scans see the overlay too.
	e.Put([]byte("cc"), []byte("cc:new"))
	got = nil
	scanPrefix(e, []byte("c"), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 2 || got[0] != "c" || got[1] != "cc" {
		t.Fatalf("prefix scan = %v", got)
	}
}

// TestHashEngineIncrementalOrder checks that the hash engine's precomputed
// key order survives interleaved puts and deletes.
func TestHashEngineIncrementalOrder(t *testing.T) {
	e := newHashEngine()
	for _, k := range []string{"d", "a", "c", "b", "e"} {
		e.Put([]byte(k), []byte(k))
	}
	e.Delete([]byte("c"))
	e.Put([]byte("ab"), []byte("ab"))
	e.Put([]byte("a"), []byte("a2")) // overwrite must not duplicate the key
	var got []string
	scanPrefix(e, nil, func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"a", "ab", "b", "d", "e"}
	if len(got) != len(want) {
		t.Fatalf("scan order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order %v, want %v", got, want)
		}
	}
	if v, ok := e.Get([]byte("a")); !ok || string(v) != "a2" {
		t.Fatalf("overwrite lost: %q %v", v, ok)
	}
}
