package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"zidian/internal/kv"
	"zidian/internal/relation"
)

// clusterPairs dumps every pair of the cluster, node by node in key order.
// The clusters below hold nothing but index pairs: catalog and postings.
func clusterPairs(c *kv.Cluster) [][2][]byte {
	var out [][2][]byte
	c.Scan(nil, func(k, v []byte) bool {
		out = append(out, [2][]byte{append([]byte{}, k...), append([]byte{}, v...)})
		return true
	})
	return out
}

// TestCommitMatchesBackfill: incremental maintenance through Commit +
// ReclaimRemovals converges on exactly what a backfill of the surviving
// tuples builds — the same posting pairs byte for byte and the same Stats,
// histogram and value list included. The sequence mixes multi-tuple
// batches, delete-then-reinsert of a pair whose shrink is still pending
// (the watermark lags the commit sequence by up to three commits), and
// values that drain and reappear.
func TestCommitMatchesBackfill(t *testing.T) {
	for _, kind := range []kv.EngineKind{kv.EngineHash, kv.EngineLSM, kv.EngineSorted} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", kind, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				schema := itemSchema(t)
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
				backfill := func(tuples []relation.Tuple) (*kv.Cluster, *Manager) {
					c := kv.NewCluster(kind, 3)
					m := NewManager(c)
					for _, ix := range indexes {
						if _, err := m.Create(ix[0], "ITEM", ix[1], schema, tuples); err != nil {
							t.Fatal(err)
						}
					}
					return c, m
				}
				c, m := backfill(seedTuples)

				ops := 0
				var seq uint64
				for ops < 240 {
					seq++
					lag := uint64(r.Intn(4))
					if lag > seq {
						lag = seq
					}
					err := commit(m, "ITEM", seq, seq-lag, func(cm *Commit) error {
						for n := 1 + r.Intn(4); n > 0; n-- {
							id := r.Intn(40)
							ops++
							if live[id] {
								delete(live, id)
								if err := cm.StageDelete(nil, tuple(id)); err != nil {
									return err
								}
							} else {
								live[id] = true
								if err := cm.StageInsert(nil, tuple(id)); err != nil {
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
				if err := m.ReclaimRemovals(nil, "ITEM", seq); err != nil {
					t.Fatal(err)
				}
				if n := m.PendingRemovals("ITEM"); n != 0 {
					t.Fatalf("%d removals still pending at a passed watermark", n)
				}

				var survivors []relation.Tuple
				for id := 0; id < 40; id++ {
					if live[id] {
						survivors = append(survivors, tuple(id))
					}
				}
				c2, m2 := backfill(survivors)

				got, want := clusterPairs(c), clusterPairs(c2)
				if len(got) != len(want) {
					t.Fatalf("%d index pairs after %d ops, backfill has %d", len(got), ops, len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i][0], want[i][0]) || !bytes.Equal(got[i][1], want[i][1]) {
						t.Fatalf("pair %d differs from backfill:\n got %x -> %x\nwant %x -> %x",
							i, got[i][0], got[i][1], want[i][0], want[i][1])
					}
				}
				for _, ix := range indexes {
					// The live Stats, not the StatsOf copy: the length
					// histogram behind MaxPosting must agree too.
					if gs, ws := m.stats[ix[0]], m2.stats[ix[0]]; !reflect.DeepEqual(gs, ws) {
						t.Fatalf("%s stats = %+v, backfill has %+v", ix[0], gs, ws)
					}
				}
			})
		}
	}
}

// TestReclaimDoesNotBlockReaders: ReclaimRemovals reads and rewrites its
// fragments holding no manager lock, so under a service delay a Lookup of a
// posting on another node, started while a reclamation is in its round
// trips, finishes within about one delay of its own round trip instead of
// first waiting out both of the reclamation's.
func TestReclaimDoesNotBlockReaders(t *testing.T) {
	const delay = 100 * time.Millisecond
	c := kv.NewCluster(kv.EngineHash, 2)
	m := NewManager(c)
	tuples := itemTuples(40)
	if _, err := m.Create("ix_sku", "ITEM", "sku", itemSchema(t), tuples); err != nil {
		t.Fatal(err)
	}
	id := m.defs["ix_sku"].id
	// The reclaimed posting and the looked-up one live on different nodes.
	victim, other := tuples[0], relation.Value{}
	for _, tp := range tuples {
		if c.NodeFor(postingKey(id, tp[1])) != c.NodeFor(postingKey(id, victim[1])) {
			other = tp[1]
			break
		}
	}
	if other.Kind == relation.KindNull {
		t.Fatal("every posting on one node")
	}
	// Watermark 0: the delete's shrink stays pending.
	if err := commit(m, "ITEM", 1, 0, func(cm *Commit) error { return cm.StageDelete(nil, victim) }); err != nil {
		t.Fatal(err)
	}
	c.SetServiceDelay(delay)
	done := make(chan error)
	go func() { done <- m.ReclaimRemovals(nil, "ITEM", 1) }()
	time.Sleep(delay / 4)
	start := time.Now()
	if _, _, err := m.Lookup("ix_sku", other); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.PendingRemovals("ITEM") != 0 {
		t.Fatal("the shrink is still pending after reclamation")
	}
	if elapsed > 2*delay {
		t.Fatalf("a lookup during reclamation took %v, want about one %v round trip", elapsed, delay)
	}
}
