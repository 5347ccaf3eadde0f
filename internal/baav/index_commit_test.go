package baav_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"zidian/internal/baav"
	"zidian/internal/kv"
	"zidian/internal/relation"
)

// postingPairs dumps the cluster's posting pairs — every key under an index
// id — node by node in key order, each key without its version suffix.
func postingPairs(c *kv.Cluster) [][2][]byte {
	var out [][2][]byte
	c.Scan([]byte{0x80}, func(k, v []byte) bool {
		out = append(out, [2][]byte{bytes.Clone(k[:len(k)-8]), bytes.Clone(v)})
		return true
	})
	return out
}

// TestCommitMatchesBackfill: postings maintained by commits converge, once
// no reader pins an old sequence and reclamation has run, on exactly what a
// backfill of the surviving tuples builds — the same posting pairs byte for
// byte up to their version, one version per fragment, and the same
// statistics. Pins lag the commits by up to three sequences, so drained
// fragments and superseded versions wait for reclamation in between. The
// sequence mixes multi-tuple batches, delete-then-reinsert of a pair, and
// values that drain and reappear.
func TestCommitMatchesBackfill(t *testing.T) {
	for _, kind := range []kv.EngineKind{kv.EngineHash, kv.EngineLSM, kv.EngineSorted} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", kind, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				tuple := func(id int) relation.Tuple {
					return relation.Tuple{
						relation.Int(int64(id)),
						relation.String(fmt.Sprintf("S%02d", id%7)),
						relation.Int(int64(id % 5)),
					}
				}
				live := make(map[int]bool)
				var seedTuples []relation.Tuple
				for id := 0; id < 20; id++ {
					live[id] = true
					seedTuples = append(seedTuples, tuple(id))
				}
				indexes := [][2]string{{"ix_sku", "sku"}, {"ix_qty", "qty"}}
				backfill := func(tuples []relation.Tuple) *baav.Store {
					st := itemStore(t, kind, 3)
					for _, ix := range indexes {
						if _, err := st.CreateIndex(ix[0], "ITEM", ix[1], tuples); err != nil {
							t.Fatal(err)
						}
					}
					return st
				}
				st := backfill(seedTuples)

				var pins []*baav.Snapshot
				for ops := 0; ops < 240; {
					pins = append(pins, st.PinSnapshot([]string{"ITEM"}))
					for lag := r.Intn(4); len(pins) > lag; pins = pins[1:] {
						pins[0].Release()
					}
					err := commit(st, func(c *baav.Commit) error {
						for n := 1 + r.Intn(4); n > 0; n-- {
							id := r.Intn(40)
							ops++
							if live[id] {
								delete(live, id)
								if _, err := c.StageDelete(nil, tuple(id)); err != nil {
									return err
								}
							} else {
								live[id] = true
								if err := c.StageInsert(nil, tuple(id)); err != nil {
									return err
								}
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				for _, p := range pins {
					p.Release()
				}
				if _, ok := st.SweepRelation("ITEM"); !ok {
					t.Fatal("sweep did not run")
				}

				var survivors []relation.Tuple
				for id := 0; id < 40; id++ {
					if live[id] {
						survivors = append(survivors, tuple(id))
					}
				}
				want := postingPairs(backfill(survivors).Cluster)
				got := postingPairs(st.Cluster)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d posting pairs after the commits, backfill has %d:\n got %x\nwant %x", len(got), len(want), got, want)
				}
				for _, ix := range indexes {
					gs, _ := st.Indexes().Stats(ix[0])
					gl, gh, _ := st.Indexes().ValueBounds(ix[0])
					ref := backfill(survivors)
					ws, _ := ref.Indexes().Stats(ix[0])
					wl, wh, _ := ref.Indexes().ValueBounds(ix[0])
					if gs != ws || !relation.Equal(gl, wl) || !relation.Equal(gh, wh) {
						t.Fatalf("%s stats %+v bounds %s..%s, backfill has %+v %s..%s", ix[0], gs, gl, gh, ws, wl, wh)
					}
				}
			})
		}
	}
}

// TestReclaimDoesNotBlockReaders: reclamation deletes superseded posting
// versions holding no lock an index reader takes across its round trip, so
// under a service delay a Lookup of a posting on another node, started while
// a sweep is in its round trip, finishes within about one delay of its own.
func TestReclaimDoesNotBlockReaders(t *testing.T) {
	const delay = 100 * time.Millisecond
	st := itemStore(t, kv.EngineHash, 2)
	tuples := itemTuples(40)
	if _, err := st.CreateIndex("ix_sku", "ITEM", "sku", tuples); err != nil {
		t.Fatal(err)
	}
	// A posting list routes by its index id (the store's first: 1, with
	// the top bit set) and value.
	node := func(v relation.Value) int {
		return st.Cluster.NodeFor(relation.AppendValue([]byte{0x80, 0, 0, 1}, v))
	}
	victim, other := tuples[0], relation.Value{}
	for _, tp := range tuples {
		if node(tp[1]) != node(victim[1]) {
			other = tp[1]
			break
		}
	}
	if other.Kind == relation.KindNull {
		t.Fatal("every posting on one node")
	}
	// Under a pin the delete's superseded posting version stays.
	snap := st.PinSnapshot([]string{"ITEM"})
	if err := deleteTuple(st, victim); err != nil {
		t.Fatal(err)
	}
	snap.Release()
	st.Cluster.SetServiceDelay(delay)
	done := make(chan int)
	go func() {
		swept, _ := st.SweepRelation("ITEM")
		done <- swept
	}()
	time.Sleep(delay / 4)
	start := time.Now()
	if _, _, err := st.Index.Lookup("ix_sku", other); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if swept := <-done; swept == 0 {
		t.Fatal("the sweep reclaimed nothing")
	}
	if elapsed > 2*delay {
		t.Fatalf("a lookup during reclamation took %v, want about one %v round trip", elapsed, delay)
	}
	st.Cluster.SetServiceDelay(0)
	if ids := lookupIDs(t, st, "ix_sku", victim[1]); slices.Contains(ids, victim[0].Int) {
		t.Fatalf("deleted id %d still posted: %v", victim[0].Int, ids)
	}
}
