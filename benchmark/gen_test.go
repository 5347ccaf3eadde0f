package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
)

const testVehicles = 12000

// streamHash hashes the first n statements of a stream: template, text and
// parameters.
func streamHash(w *Workload, seed int64, stream, n int) uint64 {
	g := NewGen(w, seed, stream, testVehicles)
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		st := g.Next()
		fmt.Fprintf(h, "%s|%s|%v\n", st.Template, st.SQL, st.Params)
	}
	return h.Sum64()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads() {
		a, b := streamHash(w, 7, 0, 10000), streamHash(w, 7, 0, 10000)
		if a != b {
			t.Errorf("%s: the same seed gave two different streams", w.Name)
		}
		if c := streamHash(w, 8, 0, 10000); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.Name)
		}
		if d := streamHash(w, 7, 1, 10000); d == a {
			t.Errorf("%s: streams 0 and 1 of one seed are the same", w.Name)
		}
	}
}

// drawnKeys counts how often each vehicle id is the first parameter of the
// workload's first n statements.
func drawnKeys(w *Workload, n int) map[int]int {
	g := NewGen(w, 7, 0, testVehicles)
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		t := &w.Reads[i%len(w.Reads)]
		counts[t.Draw(g)[0].(int)]++
	}
	return counts
}

func TestUniformKeysCoverTheIDSpace(t *testing.T) {
	counts := drawnKeys(workloadByName("adhoc_literal"), 20000)
	if covered := float64(len(counts)) / testVehicles; covered <= 0.5 {
		t.Errorf("20 000 uniform draws touched %.0f%% of the ids, want more than 50%%", 100*covered)
	}
}

func TestZipfKeysAreSkewedAndSpread(t *testing.T) {
	const draws = 50000
	counts := drawnKeys(workloadByName("point_zipf"), draws)
	perID := make([]int, 0, len(counts))
	for _, c := range counts {
		perID = append(perID, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(perID)))
	hot := 0
	for _, c := range perID[:min(len(perID), testVehicles/5)] {
		hot += c
	}
	if share := float64(hot) / draws; share <= 0.8 {
		t.Errorf("the hottest 20%% of ids took %.0f%% of the draws, want more than 80%%", 100*share)
	}
	// The permutation must move the hot ranks off the low ids.
	g := NewGen(workloadByName("point_zipf"), 7, 0, testVehicles)
	low := 0
	for rank := 0; rank < 100; rank++ {
		if g.perm[rank] < 100 {
			low++
		}
	}
	if low > 10 {
		t.Errorf("%d of the 100 hottest ranks map to ids below 100: the permutation does not spread them", low)
	}
}

func TestTemplateWeights(t *testing.T) {
	w := workloadByName("index_scan")
	g := NewGen(w, 7, 0, testVehicles)
	const n = 20000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[g.Next().Template]++
	}
	for _, tpl := range w.Reads {
		want := float64(tpl.Weight) / 10
		if got := float64(counts[tpl.Name]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s is %.3f of the stream, want %.2f", tpl.Name, got, want)
		}
	}
}

func TestWritesUseUniqueIDsAndDeleteOnlyTheirOwn(t *testing.T) {
	w := workloadByName("mixed_rw")
	seen := map[string]bool{} // relation/id ever inserted, all streams
	writes, deletes := 0, 0
	const n = 20000
	for stream := 0; stream < 4; stream++ {
		g := NewGen(w, 7, stream, testVehicles)
		live := map[string]bool{}
		for i := 0; i < n; i++ {
			st := g.Next()
			if !st.Write {
				continue
			}
			writes++
			key := fmt.Sprintf("%s/%v", st.Rel, st.Params[0])
			switch st.Delta {
			case +1:
				if seen[key] {
					t.Fatalf("stream %d inserts %s a second time", stream, key)
				}
				if st.UserBytes == 0 {
					t.Fatalf("insert %s carries no user byte count", key)
				}
				seen[key], live[key] = true, true
			case -1:
				deletes++
				if !live[key] {
					t.Fatalf("stream %d deletes %s, which it does not hold", stream, key)
				}
				delete(live, key)
			}
		}
	}
	if share := float64(writes) / (4 * n); share < 0.18 || share > 0.22 {
		t.Errorf("writes are %.3f of the stream, want 0.20", share)
	}
	if share := float64(deletes) / float64(writes); share < 0.25 || share > 0.35 {
		t.Errorf("deletes are %.3f of the writes, want 0.30", share)
	}
}
