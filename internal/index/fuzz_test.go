package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"zidian/internal/kv"
	"zidian/internal/relation"
)

// FuzzPostings runs a seeded stream of index maintenance against a
// sorted-set model: a backfill, insert and delete batches over three qty
// values and 600 ids (so lists cross M, split and drain), pinned readers,
// and reclamation at the watermark they hold and below it. The model keeps
// each (value, id) pair's liveness and the sequence of its pending removal;
// a pair is stored while it is live or its removal is pending. After every
// step:
//   - Lookup of each value, and of a value never indexed, returns exactly
//     the stored ids, in order;
//   - RangeLimitT over the whole index and over an open-closed window
//     returns the stored pairs in (value, id) order, each id under its
//     first value, and over the whole index with a limit their first
//     limit;
//   - every pinned reader still finds each pair live at its snapshot;
//   - with no removal pending, the stats and the fragment directory agree
//     with the store pair for pair, and no fragment holds more than M keys.
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
		c := kv.NewCluster(kinds[useed%3], 1+int(useed/3%3))
		m := NewManager(c)
		const ids, vals = 600, 3
		tuple := func(id, q int) relation.Tuple {
			return relation.Tuple{relation.Int(int64(id)), relation.String("S"), relation.Int(int64(q))}
		}
		type pair struct{ q, id int }
		type state struct {
			live, stored, added bool
			pend                uint64 // sequence of the pending removal, 0 for none
		}
		model := map[pair]*state{}
		valueOf := map[int]int{} // live id → its qty
		var seedTuples []relation.Tuple
		for id, n := 0, r.Intn(ids); id < n; id++ {
			q := r.Intn(vals)
			seedTuples = append(seedTuples, tuple(id, q))
			model[pair{q, id}] = &state{live: true, stored: true}
			valueOf[id] = q
		}
		if _, err := m.Create("ix_qty", "ITEM", "qty", itemSchema(t), seedTuples); err != nil {
			t.Fatal(err)
		}

		var seq uint64
		type pin struct {
			seq  uint64
			live []pair
		}
		var pins []pin // ascending seq
		watermark := func() uint64 {
			if len(pins) > 0 {
				return pins[0].seq
			}
			return seq
		}
		reclaim := func(w uint64) {
			if err := m.ReclaimRemovals(nil, "ITEM", w); err != nil {
				t.Fatal(err)
			}
			for _, s := range model {
				if s.pend != 0 && s.pend <= w {
					s.pend, s.stored = 0, false
				}
			}
		}
		commit := func(n int, del bool) {
			seq++
			cm := m.BeginCommit("ITEM")
			var added []*state
			for ; n > 0; n-- {
				id := r.Intn(ids)
				q, live := valueOf[id]
				if live != del {
					continue // an insert needs a free id, a delete a live one
				}
				if del {
					delete(valueOf, id)
					if err := cm.StageDelete(nil, tuple(id, q)); err != nil {
						t.Fatal(err)
					}
					s := model[pair{q, id}]
					s.live = false
					if s.added {
						s.stored, s.added = false, false // inserted and deleted in one batch
					} else {
						s.pend = seq
					}
					continue
				}
				q = r.Intn(vals)
				valueOf[id] = q
				if err := cm.StageInsert(nil, tuple(id, q)); err != nil {
					t.Fatal(err)
				}
				s := model[pair{q, id}]
				if s == nil {
					s = &state{}
					model[pair{q, id}] = s
				}
				s.live = true
				if s.stored {
					s.pend = 0 // re-added: its pending removal is canceled
				} else {
					s.stored, s.added = true, true
					added = append(added, s)
				}
			}
			c.ApplyBatch(nil, cm.Ops())
			cm.Apply(seq)
			for _, s := range added {
				s.added = false
			}
		}

		// stored returns the model's stored ids of each value, ascending.
		stored := func() [][]int64 {
			out := make([][]int64, vals+1)
			for p, s := range model {
				if s.stored {
					out[p.q] = append(out[p.q], int64(p.id))
				}
			}
			for _, ids := range out {
				slices.Sort(ids)
			}
			return out
		}
		// walk is the model's ordered walk over values [lo, hi]: each id
		// under its first value.
		walk := func(lists [][]int64, lo, hi int) (qs, out []int64) {
			seen := map[int64]bool{}
			for q := lo; q <= hi; q++ {
				for _, id := range lists[q] {
					if !seen[id] {
						seen[id] = true
						qs, out = append(qs, int64(q)), append(out, id)
					}
				}
			}
			return qs, out
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

		check := func(step int) {
			lists := stored()
			found := map[pair]bool{}
			for q := 0; q <= vals; q++ {
				keys, _, err := m.Lookup("ix_qty", relation.Int(int64(q)))
				if err != nil {
					t.Fatal(err)
				}
				got, want := flat(keys), lists[q]
				if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("step %d: Lookup(%d) = %v, model stores %v", step, q, got, want)
				}
				for _, id := range got {
					found[pair{q, int(id)}] = true
				}
			}
			for _, p := range pins {
				for _, lp := range p.live {
					if !found[lp] {
						t.Fatalf("step %d: reader pinned at %d lost id %d under %d", step, p.seq, lp.id, lp.q)
					}
				}
			}
			lo, hi := relation.Int(0), relation.Int(vals-1)
			for _, w := range []struct {
				loIncl bool
				from   int
				limits []int
			}{{true, 0, []int{-1, 5, M + 3}}, {false, 1, []int{-1}}} {
				wantQs, want := walk(lists, w.from, vals-1)
				for _, limit := range w.limits {
					gotVals, gotKeys, _, err := m.RangeLimitT(nil, "ix_qty", &lo, &hi, w.loIncl, true, limit)
					if err != nil {
						t.Fatal(err)
					}
					n := len(want)
					if limit >= 0 && limit < n {
						n = limit
					}
					if got := flat(gotKeys); !reflect.DeepEqual(got, want[:n]) && len(got)+n > 0 {
						t.Fatalf("step %d: range from %d limit %d = %v, model walks %v", step, w.from, limit, got, want[:n])
					}
					if got := ints(gotVals); !reflect.DeepEqual(got, wantQs[:n]) && len(got)+n > 0 {
						t.Fatalf("step %d: range from %d limit %d values = %v, model walks %v", step, w.from, limit, got, wantQs[:n])
					}
				}
			}
			if m.PendingRemovals("ITEM") > 0 {
				return
			}
			st := m.stats["ix_qty"]
			postings, entries, maxLen := 0, 0, 0
			for q := 0; q < vals; q++ {
				if n := len(lists[q]); n > 0 {
					postings, entries, maxLen = postings+n, entries+1, max(maxLen, n)
				}
			}
			if st.Postings != postings || st.Entries != entries || st.MaxPosting != maxLen {
				t.Fatalf("step %d: stats %d postings, %d entries, max %d; model %d, %d, %d",
					step, st.Postings, st.Entries, st.MaxPosting, postings, entries, maxLen)
			}
			d := m.defs["ix_qty"]
			var dir []string
			for _, e := range st.vals {
				for _, fr := range e.frags {
					if fr.n > M {
						t.Fatalf("step %d: a fragment of %s holds %d keys", step, e.val, fr.n)
					}
					dir = append(dir, fmt.Sprintf("%x %d", fragKey(postingKey(d.id, e.val), fr.fence), fr.n))
				}
			}
			var pairs []string
			for _, p := range clusterPairs(c) {
				if k := p[0]; len(k) > 4 && string(k[:4]) == string(prefix(d.id)) {
					lst, err := splitPostings(p[1], 1)
					if err != nil {
						t.Fatal(err)
					}
					pairs = append(pairs, fmt.Sprintf("%x %d", k, len(lst)))
				}
			}
			slices.Sort(dir)
			slices.Sort(pairs)
			if !reflect.DeepEqual(dir, pairs) {
				t.Fatalf("step %d: directory %v, store %v", step, dir, pairs)
			}
		}

		check(-1)
		for step, b := range ops {
			arg := int(b >> 3)
			switch b % 8 {
			case 0, 1, 2:
				commit(1+arg%48, false)
				if arg%2 == 0 {
					reclaim(watermark())
				}
			case 3, 4:
				commit(1+arg%24, true)
				if arg%2 == 0 {
					reclaim(watermark())
				}
			case 5:
				var live []pair
				for id, q := range valueOf {
					live = append(live, pair{q, id})
				}
				pins = append(pins, pin{seq: seq, live: live})
			case 6:
				if len(pins) > 0 {
					pins = slices.Delete(pins, arg%len(pins), arg%len(pins)+1)
				}
			case 7:
				w := watermark()
				reclaim(w - uint64(arg)%(w+1))
			}
			check(step)
		}
	})
}
