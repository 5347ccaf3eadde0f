package baav

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"zidian/internal/kv"
	"zidian/internal/relation"
)

// FuzzStoreVersions runs a seeded stream of commits against a model of the
// live rows at each sequence, on a store whose blocks are mostly as loaded:
// the directory lists none of them until a commit writes them. R(id, grp,
// val) is mapped onto R_by_grp (blocks of up to a dozen rows, in segments
// of two, so a loaded block of three or more rows is listed from the start)
// and R_by_id (one row per block), over 40 ids and 6 groups so loaded
// blocks are rewritten, drained, reclaimed and inserted again under the
// same key. Steps commit insert and delete batches, pin and release readers,
// sweep, and once, after a commit, create an index on val: its backfill is
// loaded at a sequence above 0. After every step, at the latest sequence and
// at every pin:
//   - FetchBlocksT of every group and id, one never used among them, returns
//     the model's blocks at that sequence, with one get per segment of each
//     block and one for each absent one;
//   - ScanInstance of both instances visits exactly the model's blocks;
//   - Index.Lookup of every value returns the model's ids, at pins the index
//     was created by;
//   - the materialized versions counted live are the seg-0 keys stored.
//
// Every commit prefetches its rows first and finds each block's pre-image
// equal to the model's latest block. Reclamation is read mid-way too: where
// it has decided what to drop and deleted nothing yet, FetchBlocksT at the
// latest sequence and at every pin still agrees with the model.
func FuzzStoreVersions(f *testing.F) {
	// Six one-row insert commits, the index, a delete, two inserts, a pin,
	// then its release and a sweep.
	f.Add(int64(1), []byte{1, 1, 1, 1, 0, 0, 6, 3, 1, 0, 4, 5})
	for seed := int64(2); seed <= 7; seed++ {
		b := make([]byte, 60)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(seed, b)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 80 {
			ops = ops[:80]
		}
		const ids, grps, vals, segThr = 40, 6, 4, 2
		r := rand.New(rand.NewSource(seed))
		type row struct{ grp, val int64 }
		rows := map[int64]row{} // live id → its row
		tuple := func(id int64, rw row) relation.Tuple {
			return relation.Tuple{relation.Int(id), relation.Int(rw.grp), relation.Int(rw.val)}
		}
		db := relation.NewDatabase()
		rel := relation.NewRelation(relation.MustSchema("R", []relation.Attr{
			{Name: "id", Kind: relation.KindInt}, {Name: "grp", Kind: relation.KindInt}, {Name: "val", Kind: relation.KindInt},
		}, []string{"id"}))
		for id := int64(0); id < ids; id++ {
			if r.Intn(4) > 0 {
				rows[id] = row{r.Int63n(grps), r.Int63n(vals)}
				rel.MustInsert(tuple(id, rows[id]))
			}
		}
		db.Add(rel)
		schema := MustSchema(RelSchemas(db),
			KVSchema{Name: "R_by_grp", Rel: "R", Key: []string{"grp"}, Val: []string{"id", "val"}},
			KVSchema{Name: "R_by_id", Rel: "R", Key: []string{"id"}, Val: []string{"grp", "val"}})
		kinds := []kv.EngineKind{kv.EngineHash, kv.EngineLSM, kv.EngineSorted}
		st, err := Map(db, schema, kv.NewCluster(kinds[uint64(seed)%3], 1+int(uint64(seed)/3%3)),
			Options{SegmentThreshold: segThr, Compress: true, Stats: true})
		if err != nil {
			t.Fatal(err)
		}

		// blocks returns the model's blocks of an instance: key → its value
		// tuples, sorted.
		blocks := func(rows map[int64]row, kvName string) map[int64][]relation.Tuple {
			out := map[int64][]relation.Tuple{}
			for id, rw := range rows {
				if kvName == "R_by_grp" {
					out[rw.grp] = append(out[rw.grp], relation.Tuple{relation.Int(id), relation.Int(rw.val)})
				} else {
					out[id] = append(out[id], relation.Tuple{relation.Int(rw.grp), relation.Int(rw.val)})
				}
			}
			for _, ts := range out {
				slices.SortFunc(ts, relation.Tuple.Compare)
			}
			return out
		}
		sorted := func(blk *Block) []relation.Tuple {
			if blk == nil {
				return nil
			}
			ts := slices.Clone(blk.Tuples)
			slices.SortFunc(ts, relation.Tuple.Compare)
			return ts
		}
		same := func(a, b []relation.Tuple) bool { return slices.EqualFunc(a, b, relation.Tuple.Equal) }
		keysOf := map[string]int64{"R_by_grp": grps + 1, "R_by_id": ids + 1} // one key never used

		type pin struct {
			snap    *Snapshot
			rows    map[int64]row
			indexed bool
		}
		var pins []pin
		indexed := false
		step, at := 0, ""

		// fetch checks FetchBlocksT of every key of both instances.
		fetch := func(view *Store, rows map[int64]row) {
			for kvName, n := range keysOf {
				want := blocks(rows, kvName)
				keys := make([]relation.Tuple, n)
				wantGets := 0
				for k := range keys {
					keys[k] = relation.Tuple{relation.Int(int64(k))}
					wantGets += max(1, (len(want[int64(k)])+segThr-1)/segThr)
				}
				blks, _, gets, err := view.FetchBlocksT(nil, kvName, keys, nil, nil)
				if err != nil {
					t.Fatalf("step %d %s: FetchBlocksT(%s): %v", step, at, kvName, err)
				}
				for k, blk := range blks {
					if got := sorted(blk); !same(got, want[int64(k)]) {
						t.Fatalf("step %d %s: FetchBlocksT(%s, %d) = %v, model has %v", step, at, kvName, k, got, want[int64(k)])
					}
				}
				if gets != wantGets {
					t.Fatalf("step %d %s: FetchBlocksT(%s) issued %d gets, want %d", step, at, kvName, gets, wantGets)
				}
			}
		}
		// read checks every read form of view against rows, the model at the
		// view's sequence.
		read := func(view *Store, rows map[int64]row, indexed bool) {
			fetch(view, rows)
			for kvName := range keysOf {
				want := blocks(rows, kvName)
				seen := 0
				err := view.ScanInstance(kvName, func(key relation.Tuple, blk *Block, _ *BlockStats) bool {
					seen++
					if got := sorted(blk); !same(got, want[key[0].Int]) {
						t.Fatalf("step %d %s: ScanInstance(%s) block %v = %v, model has %v", step, at, kvName, key, got, want[key[0].Int])
					}
					return true
				})
				if err != nil || seen != len(want) {
					t.Fatalf("step %d %s: ScanInstance(%s) visited %d blocks, model has %d (%v)", step, at, kvName, seen, len(want), err)
				}
			}
			if !indexed {
				return
			}
			for v := int64(0); v <= vals; v++ {
				var want []relation.Tuple
				for id, rw := range rows {
					if rw.val == v {
						want = append(want, relation.Tuple{relation.Int(id)})
					}
				}
				slices.SortFunc(want, relation.Tuple.Compare)
				got, _, err := view.Index.Lookup("ix_val", relation.Int(v))
				if err != nil || !same(got, want) {
					t.Fatalf("step %d %s: Lookup(%d) = %v, model has %v (%v)", step, at, v, got, want, err)
				}
			}
		}
		// everywhere runs check at the latest sequence and at every pin.
		everywhere := func(check func(view *Store, rows map[int64]row, indexed bool)) {
			at = "latest"
			check(st, rows, indexed)
			for i, p := range pins {
				at = fmt.Sprintf("pin %d (seq %d)", i, p.snap.Seqs["R"])
				check(st.AtSnapshot(p.snap), p.rows, p.indexed)
			}
		}
		st.mvcc.beforeReclaimDeletes = func() {
			everywhere(func(view *Store, rows map[int64]row, _ bool) { fetch(view, rows) })
		}

		// batch commits n inserts or deletes, checking every pre-image the
		// prefetch reads against the model first.
		batch := func(n int, del bool) {
			before := map[string]map[int64][]relation.Tuple{"R_by_grp": blocks(rows, "R_by_grp"), "R_by_id": blocks(rows, "R_by_id")}
			type change struct {
				t   relation.Tuple
				del bool
			}
			var changes []change
			for ; n > 0; n-- {
				id := r.Int63n(ids)
				rw, live := rows[id]
				if live != del {
					continue // an insert needs a free id, a delete a live one
				}
				if del {
					delete(rows, id)
				} else {
					rw = row{r.Int63n(grps), r.Int63n(vals)}
					rows[id] = rw
				}
				changes = append(changes, change{tuple(id, rw), del})
			}
			c, err := st.BeginCommit("R")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			tuples := make([]relation.Tuple, len(changes))
			for i, ch := range changes {
				tuples[i] = ch.t
			}
			if err := c.Prefetch(nil, tuples); err != nil {
				t.Fatal(err)
			}
			for _, tu := range tuples {
				for kvName, key := range map[string]int64{"R_by_grp": tu[1].Int, "R_by_id": tu[0].Int} {
					prefix := st.blockPrefix(st.ids[kvName], relation.Tuple{relation.Int(key)})
					e := c.staged[kvName][string(prefix)]
					if got, want := sorted(e.blk), before[kvName][key]; !same(got, want) {
						t.Fatalf("step %d: pre-image of %s block %d = %v, model has %v", step, kvName, key, got, want)
					}
				}
			}
			for _, ch := range changes {
				if ch.del {
					_, err = c.StageDelete(nil, ch.t)
				} else {
					err = c.StageInsert(nil, ch.t)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			st.Cluster.ApplyBatch(nil, c.Ops())
			c.Install()
			c.Reclaim(nil)
		}

		read(st, rows, false)
		for step = 0; step < len(ops); step++ {
			switch op := ops[step]; op % 8 {
			case 0, 1:
				batch(1+int(op/8%4), false)
			case 2, 3:
				batch(1+int(op/8%4), true)
			case 4:
				snap := st.PinSnapshot([]string{"R"})
				pins = append(pins, pin{snap, maps.Clone(rows), indexed})
			case 5:
				if len(pins) > 0 {
					i := int(op/8) % len(pins)
					pins[i].snap.Release()
					pins = slices.Delete(pins, i, i+1)
				}
				st.SweepRelation("R")
			case 6:
				if indexed || st.CommitSeq("R") == 0 {
					continue
				}
				live := make([]relation.Tuple, 0, len(rows))
				for id, rw := range rows {
					live = append(live, tuple(id, rw))
				}
				if _, err := st.CreateIndex("ix_val", "R", "val", live); err != nil {
					t.Fatal(err)
				}
				indexed = true
			case 7:
				batch(1+int(op/8%4), op&8 != 0)
			}
			everywhere(read)
			if got, want := st.VersionsLive(), seg0Keys(st); got != want {
				t.Fatalf("step %d: %d versions live, %d stored", step, got, want)
			}
		}
		for _, p := range pins {
			p.snap.Release()
		}
	})
}

// seg0Keys counts the store's segment-0 pairs: one per materialized
// version, tombstones included.
func seg0Keys(st *Store) int64 {
	var n int64
	st.Cluster.Scan(nil, func(k, _ []byte) bool {
		if binary.BigEndian.Uint32(k[len(k)-12:]) == 0 {
			n++
		}
		return true
	})
	return n
}
