package baav_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/kv"
	"zidian/internal/relation"
)

// FuzzPostings runs a seeded stream of commits against a sorted-set model
// at each sequence: a backfill, insert and delete batches over three qty
// values and 600 ids (so lists cross M, split and drain), readers pinned at
// past sequences, and reclamation sweeps. The model records the live (qty,
// id) pairs at each pin. After every step:
//   - at the latest sequence and at every pin, Lookup of each value, and of
//     a value never indexed, returns exactly the model's ids at that
//     sequence, in order;
//   - at the latest sequence and at every pin, RangeLimitT over the whole
//     index and over an open-closed window returns the model's pairs in
//     (value, id) order, and over the whole index with a limit their first
//     limit;
//   - the statistics agree with the model, and no fragment holds more than
//     M keys;
//   - once no reader is pinned and a sweep has run, every posting fragment
//     is one live version: drained fragments and superseded versions are
//     gone.
func FuzzPostings(f *testing.F) {
	f.Add(int64(0), []byte{0, 8, 16, 5, 3, 11, 19, 7, 6, 7})
	f.Add(int64(4), []byte{0xF8, 0xF8, 0xF8, 0xF8, 5, 0xF8, 0xF8, 0xBB, 0xBB, 0xBB, 0xBB, 6, 7})
	for seed := int64(1); seed <= 6; seed++ {
		b := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(seed, b)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 200 {
			ops = ops[:200]
		}
		r := rand.New(rand.NewSource(seed))
		kinds := []kv.EngineKind{kv.EngineHash, kv.EngineLSM, kv.EngineSorted}
		useed := uint64(seed)
		st := itemStore(t, kinds[useed%3], 1+int(useed/3%3))
		const ids, vals = 600, 3
		tuple := func(id, q int) relation.Tuple {
			return relation.Tuple{relation.Int(int64(id)), relation.String("S"), relation.Int(int64(q))}
		}
		valueOf := map[int]int{} // live id → its qty
		var seedTuples []relation.Tuple
		for id, n := 0, r.Intn(ids); id < n; id++ {
			q := r.Intn(vals)
			seedTuples = append(seedTuples, tuple(id, q))
			valueOf[id] = q
		}
		if _, err := st.CreateIndex("ix_qty", "ITEM", "qty", seedTuples); err != nil {
			t.Fatal(err)
		}

		// lists returns the ids of each value live in valueOf, ascending.
		lists := func(valueOf map[int]int) [][]int64 {
			out := make([][]int64, vals+1)
			for id, q := range valueOf {
				out[q] = append(out[q], int64(id))
			}
			for _, ids := range out {
				slices.Sort(ids)
			}
			return out
		}
		type pin struct {
			snap  *baav.Snapshot
			lists [][]int64
		}
		var pins []pin
		batch := func(n int, del bool) {
			err := commit(st, func(c *baav.Commit) error {
				for ; n > 0; n-- {
					id := r.Intn(ids)
					q, live := valueOf[id]
					if live != del {
						continue // an insert needs a free id, a delete a live one
					}
					if del {
						delete(valueOf, id)
						if _, err := c.StageDelete(nil, tuple(id, q)); err != nil {
							return err
						}
						continue
					}
					q = r.Intn(vals)
					valueOf[id] = q
					if err := c.StageInsert(nil, tuple(id, q)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		flat := func(ts []relation.Tuple) []int64 {
			out := make([]int64, len(ts))
			for i, k := range ts {
				out[i] = k[0].Int
			}
			return out
		}
		ints := func(vs []relation.Value) []int64 {
			out := make([]int64, len(vs))
			for i, v := range vs {
				out[i] = v.Int
			}
			return out
		}
		// read checks every read form of view against lists, the model at
		// the view's sequence.
		read := func(step int, at string, view *baav.Store, lists [][]int64) {
			for q := 0; q <= vals; q++ {
				keys, _, err := view.Index.Lookup("ix_qty", relation.Int(int64(q)))
				if err != nil {
					t.Fatal(err)
				}
				if got := flat(keys); !reflect.DeepEqual(got, lists[q]) && len(got)+len(lists[q]) > 0 {
					t.Fatalf("step %d %s: Lookup(%d) = %v, model has %v", step, at, q, got, lists[q])
				}
			}
			lo, hi := relation.Int(0), relation.Int(vals-1)
			for _, w := range []struct {
				loIncl bool
				from   int
				limits []int
			}{{true, 0, []int{-1, 5, baav.M + 3}}, {false, 1, []int{-1}}} {
				var wantQs, want []int64
				for q := w.from; q < vals; q++ {
					for _, id := range lists[q] {
						wantQs, want = append(wantQs, int64(q)), append(want, id)
					}
				}
				for _, limit := range w.limits {
					gotVals, gotKeys, _, err := view.Index.RangeLimitT(nil, "ix_qty", &lo, &hi, w.loIncl, true, limit)
					if err != nil {
						t.Fatal(err)
					}
					n := len(want)
					if limit >= 0 && limit < n {
						n = limit
					}
					if got := flat(gotKeys); !reflect.DeepEqual(got, want[:n]) && len(got)+n > 0 {
						t.Fatalf("step %d %s: range from %d limit %d = %v, model walks %v", step, at, w.from, limit, got, want[:n])
					}
					if got := ints(gotVals); !reflect.DeepEqual(got, wantQs[:n]) && len(got)+n > 0 {
						t.Fatalf("step %d %s: range from %d limit %d values = %v, model walks %v", step, at, w.from, limit, got, wantQs[:n])
					}
				}
			}
		}

		check := func(step int, swept bool) {
			now := lists(valueOf)
			read(step, "latest", st, now)
			for _, p := range pins {
				read(step, "pinned", st.AtSnapshot(p.snap), p.lists)
			}
			postings, entries, maxLen := 0, 0, 0
			for q := 0; q < vals; q++ {
				if n := len(now[q]); n > 0 {
					postings, entries, maxLen = postings+n, entries+1, max(maxLen, n)
				}
			}
			if s, _ := st.Indexes().Stats("ix_qty"); s != (baav.IndexStats{Entries: entries, Postings: postings, MaxPosting: maxLen}) {
				t.Fatalf("step %d: stats %+v; model %d postings, %d entries, max %d", step, s, postings, entries, maxLen)
			}
			blocks := map[string]int{}
			for _, p := range postingPairs(st.Cluster) {
				blocks[string(p[0])]++
				if p[1][0] == 0 {
					if swept && len(pins) == 0 {
						t.Fatalf("step %d: a drained fragment outlived reclamation", step)
					}
					continue
				}
				blk, _, err := baav.DecodeBlock(p[1][1:], 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(blk.Tuples) > baav.M {
					t.Fatalf("step %d: a fragment holds %d keys", step, len(blk.Tuples))
				}
			}
			for _, n := range blocks {
				if n > 1 && swept && len(pins) == 0 {
					t.Fatalf("step %d: a fragment keeps %d versions after reclamation", step, n)
				}
			}
		}

		check(-1, false)
		for step, b := range ops {
			arg := int(b >> 3)
			swept := false
			switch b % 8 {
			case 0, 1, 2:
				batch(1+arg%48, false)
			case 3, 4:
				batch(1+arg%24, true)
			case 5:
				pins = append(pins, pin{snap: st.PinSnapshot([]string{"ITEM"}), lists: lists(valueOf)})
				continue // a pin reads what the last check read at the latest sequence
			case 6:
				if len(pins) > 0 {
					at := arg % len(pins)
					pins[at].snap.Release()
					pins = slices.Delete(pins, at, at+1)
				}
				continue // no reader's view changed
			case 7:
				_, swept = st.SweepRelation("ITEM")
			}
			check(step, swept)
		}
	})
}
