package zidian

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zidian/internal/baav"
	"zidian/internal/obs"
	"zidian/internal/ra"
)

// The MVCC differential suite: concurrent readers must observe exactly the
// committed state at their pinned sequence — byte-identical to a serial
// replay of the write script truncated at that sequence — on every engine,
// while reclamation never frees a version a pinned snapshot can reach.

var mvccEngines = []string{"hash", "lsm", "sorted"}

// mvccItemsInstance builds the ITEM fixture (200 rows, secondary indexes on
// sku and qty) on one engine. Workers is 1 so the only concurrency in play
// is inter-statement.
func mvccItemsInstance(t *testing.T, engine string) *Instance {
	t.Helper()
	db := NewDatabase()
	schema := MustRelSchema("ITEM", []Attr{
		{Name: "item_id", Kind: KindInt},
		{Name: "sku", Kind: KindString},
		{Name: "qty", Kind: KindInt},
	}, []string{"item_id"})
	rel := NewRelation(schema)
	for i := 0; i < 200; i++ {
		rel.MustInsert(Tuple{
			Int(int64(i)),
			String(fmt.Sprintf("SKU-%05d", i/4)),
			Int(int64(i % 50)),
		})
	}
	db.Add(rel)
	bv, err := NewBaaVSchema(db, KVSchema{
		Name: "item_full", Rel: "ITEM", Key: []string{"item_id"}, Val: []string{"sku", "qty"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Open(db, bv, Options{Engine: engine, Nodes: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{
		"create index ix_mvcc_sku on ITEM(sku)",
		"create index ix_mvcc_qty on ITEM(qty)",
	} {
		if _, err := inst.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return inst
}

// mvccWriteScript is the deterministic single-writer op sequence: inserts of
// fresh rows, point deletes, and predicate deletes through the group
// committer. Re-deleting an already-deleted row is a no-op but still its own
// commit, so sequence s on any instance that ran the same setup means
// "exactly the first s-base ops applied".
func mvccWriteScript(n int) []string {
	ops := make([]string, n)
	for i := range ops {
		switch i % 3 {
		case 0:
			ops[i] = fmt.Sprintf("insert into ITEM values (%d, 'SKU-%05d', %d)", 1000+i, (1000+i)/4, i%50)
		case 1:
			ops[i] = fmt.Sprintf("delete from ITEM where item_id = %d", (i*7)%200)
		default:
			ops[i] = fmt.Sprintf("delete from ITEM where qty = %d and item_id < 40", i%50)
		}
	}
	return ops
}

// mvccReadSuite covers the three reader shapes: an index point lookup, an
// index range walk, and a full-relation aggregate.
var mvccReadSuite = []string{
	"select I.qty from ITEM I where I.sku = 'SKU-00012'",
	"select I.item_id from ITEM I where I.qty between 10 and 20",
	"select COUNT(*), SUM(I.qty), MIN(I.item_id), MAX(I.item_id) from ITEM I",
}

// renderRows canonicalizes a result for comparison: one string per row,
// sorted (readers and replay may emit rows in different orders).
func renderRows(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

func TestMVCCSnapshotDifferential(t *testing.T) {
	const nOps = 45
	ops := mvccWriteScript(nOps)
	for _, engine := range mvccEngines {
		t.Run(engine, func(t *testing.T) {
			// Serial replay first: expected[s][q] is query q's result with
			// exactly s script ops applied.
			replay := mvccItemsInstance(t, engine)
			base := replay.CommitSeq("ITEM")
			expected := make([][]string, nOps+1)
			snapshotState := func(in *Instance) []string {
				out := make([]string, len(mvccReadSuite))
				for qi, src := range mvccReadSuite {
					res, _, err := in.Query(src)
					if err != nil {
						t.Fatalf("replay query %d: %v", qi, err)
					}
					out[qi] = renderRows(res)
				}
				return out
			}
			expected[0] = snapshotState(replay)
			for i, op := range ops {
				if _, err := replay.Exec(op); err != nil {
					t.Fatalf("replay op %d %q: %v", i, op, err)
				}
				expected[i+1] = snapshotState(replay)
			}

			// Concurrent phase: one writer streams the same script while one
			// reader per query shape hammers it, checking every result
			// against the serial truth at its pinned sequence.
			inst := mvccItemsInstance(t, engine)
			if got := inst.CommitSeq("ITEM"); got != base {
				t.Fatalf("setup sequence differs: %d vs replay %d", got, base)
			}
			var (
				writerDone atomic.Bool
				mu         sync.Mutex
				failures   []string
				reads      int64
			)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer writerDone.Store(true)
				for i, op := range ops {
					if _, err := inst.Exec(op); err != nil {
						mu.Lock()
						failures = append(failures, fmt.Sprintf("writer op %d: %v", i, err))
						mu.Unlock()
						return
					}
				}
			}()
			for qi, src := range mvccReadSuite {
				p, err := inst.Prepare(src)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(qi int, p *Prepared) {
					defer wg.Done()
					for {
						done := writerDone.Load() // load BEFORE the read: a read started after done is at the final state
						tr := &obs.Trace{}
						res, _, err := p.RunTraced(tr)
						var fail string
						switch {
						case err != nil:
							fail = fmt.Sprintf("reader %d: %v", qi, err)
						case tr.SnapshotSeqs["ITEM"] < base || tr.SnapshotSeqs["ITEM"] > base+nOps:
							fail = fmt.Sprintf("reader %d: pinned seq %d outside [%d,%d]", qi, tr.SnapshotSeqs["ITEM"], base, base+nOps)
						default:
							s := tr.SnapshotSeqs["ITEM"] - base
							if got := renderRows(res); got != expected[s][qi] {
								fail = fmt.Sprintf("reader %d at seq %d diverged from serial replay:\n got: %q\nwant: %q", qi, s, got, expected[s][qi])
							}
						}
						if fail != "" {
							mu.Lock()
							failures = append(failures, fail)
							mu.Unlock()
							return
						}
						atomic.AddInt64(&reads, 1)
						if done {
							return
						}
					}
				}(qi, p)
			}
			wg.Wait()
			for _, f := range failures {
				t.Error(f)
			}
			if t.Failed() {
				return
			}
			if reads < int64(len(mvccReadSuite)) {
				t.Fatalf("only %d reads completed", reads)
			}

			// One quiescent flush commit on both instances lets the final
			// Reclaim run with no pins; after it, version accounting is
			// state-determined and must match exactly.
			flush := "insert into ITEM values (9999, 'SKU-FLUSH', 1)"
			if _, err := inst.Exec(flush); err != nil {
				t.Fatal(err)
			}
			if _, err := replay.Exec(flush); err != nil {
				t.Fatal(err)
			}
			gotLive, gotReclaimed := inst.MVCCVersions()
			wantLive, wantReclaimed := replay.MVCCVersions()
			if gotLive != wantLive || gotReclaimed != wantReclaimed {
				t.Fatalf("version accounting diverged: live=%d/%d reclaimed=%d/%d (concurrent/replay)",
					gotLive, wantLive, gotReclaimed, wantReclaimed)
			}
			for qi, src := range mvccReadSuite {
				res, _, err := inst.Query(src)
				if err != nil {
					t.Fatal(err)
				}
				res2, _, err := replay.Query(src)
				if err != nil {
					t.Fatal(err)
				}
				if renderRows(res) != renderRows(res2) {
					t.Fatalf("final state of query %d diverged", qi)
				}
			}
		})
	}
}

// TestGroupCommitBatching: concurrent writers of one relation fold into
// shared commits — the observer must see at least one batch larger than a
// single statement, and no write may be lost. The emulated storage delay
// keeps each commit in flight long enough for followers to queue.
func TestGroupCommitBatching(t *testing.T) {
	inst := mvccItemsInstance(t, "hash")
	inst.Store().Cluster.SetServiceDelay(200 * time.Microsecond)
	var maxBatch int64
	inst.SetCommitObserver(func(n int) {
		for {
			cur := atomic.LoadInt64(&maxBatch)
			if int64(n) <= cur || atomic.CompareAndSwapInt64(&maxBatch, cur, int64(n)) {
				return
			}
		}
	})
	const writers, perWriter = 16, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := int64(5000 + w*perWriter + i)
				if err := inst.Insert("ITEM", Tuple{Int(id), String("SKU-BATCH"), Int(int64(w))}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	res, _, err := inst.Query("select COUNT(*) from ITEM I where I.sku = 'SKU-BATCH'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != writers*perWriter {
		t.Fatalf("lost writes: %v, want %d", res.Rows, writers*perWriter)
	}
	if atomic.LoadInt64(&maxBatch) < 2 {
		t.Fatalf("max commit batch = %d, want >= 2 under %d concurrent writers", maxBatch, writers)
	}
}

// TestMVCCPinBlocksReclamation: while a snapshot is pinned the store keeps
// every version it can reach; releasing the pin lets the next commit reclaim
// them.
func TestMVCCPinBlocksReclamation(t *testing.T) {
	inst := mvccItemsInstance(t, "hash")
	snap := inst.Store().PinSnapshot([]string{"ITEM"})
	live0, reclaimed0 := inst.MVCCVersions()

	// Deletes supersede each row's block with a tombstone version; the old
	// version retires but stays reachable from the pinned snapshot.
	for i := 0; i < 3; i++ {
		if _, err := inst.Exec(fmt.Sprintf("delete from ITEM where item_id = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	live, reclaimed := inst.MVCCVersions()
	if reclaimed != reclaimed0 {
		t.Fatalf("reclaimed %d versions while a snapshot pinned them", reclaimed-reclaimed0)
	}
	if live <= live0 {
		t.Fatalf("superseded versions not retained: live %d -> %d", live0, live)
	}

	snap.Release()
	if _, err := inst.Exec("delete from ITEM where item_id = 3"); err != nil {
		t.Fatal(err)
	}
	if _, reclaimedAfter := inst.MVCCVersions(); reclaimedAfter == reclaimed0 {
		t.Fatal("releasing the pin did not unblock reclamation")
	}
}

// TestPostingsExactAtPin: a reader pinned before a run of commits reads each
// posting list as it was at its sequence — through fragment splits and
// drains — and a reader at the latest sequence reads the lists as they are
// now: Lookup, Range, and RangeLimitT under a LIMIT each equal ra.Evaluate
// over the rows at that sequence, in (value, key) order.
func TestPostingsExactAtPin(t *testing.T) {
	schema := MustRelSchema("EV", []Attr{
		{Name: "id", Kind: KindInt},
		{Name: "tag", Kind: KindInt},
	}, []string{"id"})
	// eval answers sql over a database holding rows, sorted.
	eval := func(rows []Tuple, sql string) []Tuple {
		t.Helper()
		db := NewDatabase()
		rel := NewRelation(schema)
		for _, row := range rows {
			rel.MustInsert(row)
		}
		db.Add(rel)
		res, err := ra.Evaluate(ra.MustParse(sql, db), db)
		if err != nil {
			t.Fatal(err)
		}
		res.Sort()
		return res.Rows
	}
	for _, engine := range mvccEngines {
		db := NewDatabase()
		rel := NewRelation(schema)
		for i := 0; i < 300; i++ {
			rel.MustInsert(Tuple{Int(int64(i)), Int(int64(i % 3))})
		}
		db.Add(rel)
		bv, err := NewBaaVSchema(db, KVSchema{Name: "ev_full", Rel: "EV", Key: []string{"id"}, Val: []string{"tag"}})
		if err != nil {
			t.Fatal(err)
		}
		inst, err := Open(db, bv, Options{Engine: engine, Nodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Exec("create index ix_ev_tag on EV(tag)"); err != nil {
			t.Fatal(err)
		}
		check := func(at string, view *baav.Store, rows []Tuple) {
			t.Helper()
			for tag := 0; tag <= 3; tag++ {
				keys, _, err := view.Index.Lookup("ix_ev_tag", Int(int64(tag)))
				if err != nil {
					t.Fatal(err)
				}
				want := eval(rows, fmt.Sprintf("select E.id from EV E where E.tag = %d", tag))
				if got := fmt.Sprint(keys); got != fmt.Sprint(want) && len(keys)+len(want) > 0 {
					t.Fatalf("%s %s: Lookup(%d) = %s, want %s", engine, at, tag, got, want)
				}
			}
			lo, hi := Int(1), Int(2)
			want := eval(rows, "select E.tag, E.id from EV E where E.tag between 1 and 2")
			for _, limit := range []int{-1, 1, 50, 150} {
				vals, keys, _, err := view.Index.RangeLimitT(nil, "ix_ev_tag", &lo, &hi, true, true, limit)
				if err != nil {
					t.Fatal(err)
				}
				n := len(want)
				if limit >= 0 {
					n = min(n, limit)
				}
				got := make([]Tuple, len(keys))
				for i, k := range keys {
					got[i] = Tuple{vals[i], k[0]}
				}
				if fmt.Sprint(got) != fmt.Sprint(want[:n]) {
					t.Fatalf("%s %s: RangeLimitT limit %d answered %d postings, not the first %d rows of ra.Evaluate", engine, at, limit, len(got), n)
				}
			}
			vals, keys, _, err := view.Index.Range("ix_ev_tag", &lo, &hi, true, true)
			if err != nil || len(vals) != len(want) || len(keys) != len(want) {
				t.Fatalf("%s %s: Range = %d postings (%v), want %d", engine, at, len(keys), err, len(want))
			}
		}

		snap := inst.Store().PinSnapshot([]string{"EV"})
		pinned := append([]Tuple{}, rel.Tuples...)
		// 150 inserts carry tag 1's list from 100 keys past M twice, so its
		// fragments split; deleting all but ten tag-2 rows drains its list.
		for i := 300; i < 450; i++ {
			if err := inst.Insert("EV", Tuple{Int(int64(i)), Int(1)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 2; i < 270; i += 3 {
			if err := inst.Delete("EV", Tuple{Int(int64(i)), Int(2)}); err != nil {
				t.Fatal(err)
			}
		}
		check("pinned", inst.Store().AtSnapshot(snap), pinned)
		check("latest", inst.Store(), rel.Tuples)
		snap.Release()
		inst.SweepMVCC()
		check("swept", inst.Store(), rel.Tuples)
	}
}
