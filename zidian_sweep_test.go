package zidian

import (
	"fmt"
	"testing"
	"time"
)

// The background reclamation sweep: the retired block and posting versions
// of a quiescent relation are reclaimed between commits — normally that
// work rides the relation's *next* commit, so the last commit's retirees
// would otherwise sit live forever.

// TestSweepMVCCQuiescentRelation: deletes committed while a snapshot was
// pinned leave their superseded versions live; once the pin releases and the
// relation goes quiescent, only the sweep can reclaim them (commit-path
// reclamation rides the *next* commit, which never comes). One sweep drops
// them, the swept counter advances by exactly that amount, and a second
// sweep finds nothing.
func TestSweepMVCCQuiescentRelation(t *testing.T) {
	for _, eng := range mvccEngines {
		inst := mvccItemsInstance(t, eng)
		snap := inst.Store().PinSnapshot([]string{"ITEM"})
		for i := 0; i < 5; i++ {
			if _, err := inst.Exec(fmt.Sprintf("delete from ITEM where item_id = %d", i)); err != nil {
				t.Fatal(err)
			}
		}
		snap.Release()
		liveBefore, reclaimedBefore := inst.MVCCVersions()
		sweptBefore := inst.MVCCSwept()

		swept := inst.SweepMVCC()
		if swept <= 0 {
			t.Fatalf("%s: quiescent sweep reclaimed nothing; %d versions live", eng, liveBefore)
		}
		live, reclaimed := inst.MVCCVersions()
		if reclaimed != reclaimedBefore+swept {
			t.Fatalf("%s: reclaimed %d -> %d, sweep reported %d", eng, reclaimedBefore, reclaimed, swept)
		}
		if live != liveBefore-swept {
			t.Fatalf("%s: live %d -> %d after sweeping %d", eng, liveBefore, live, swept)
		}
		if got := inst.MVCCSwept(); got != sweptBefore+swept {
			t.Fatalf("%s: swept counter %d, want %d", eng, got, sweptBefore+swept)
		}
		if again := inst.SweepMVCC(); again != 0 {
			t.Fatalf("%s: second sweep of an untouched store reclaimed %d", eng, again)
		}

		// The sweep must be invisible to query answers.
		res, _, err := inst.Query("select COUNT(*) from ITEM I")
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows[0][0].Int; n != 195 {
			t.Fatalf("%s: COUNT(*) = %d after sweep, want 195", eng, n)
		}
	}
}

// TestSweepMVCCRespectsPins: a pinned snapshot holds the watermark, so the
// sweep reclaims nothing while the pin lives and everything once released.
func TestSweepMVCCRespectsPins(t *testing.T) {
	inst := mvccItemsInstance(t, "hash")
	snap := inst.Store().PinSnapshot([]string{"ITEM"})
	for i := 0; i < 5; i++ {
		if _, err := inst.Exec(fmt.Sprintf("delete from ITEM where item_id = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if swept := inst.SweepMVCC(); swept != 0 {
		t.Fatalf("sweep reclaimed %d versions a snapshot could reach", swept)
	}
	snap.Release()
	if swept := inst.SweepMVCC(); swept <= 0 {
		t.Fatal("sweep reclaimed nothing after the pin released")
	}
}

// TestSweepReclaimsDrainedPostings: deleting under a pin shrinks a posting
// list at its commit — the index statistics, and with them planner
// eligibility, are exact at once — while the pinned reader still reads the
// list as of its sequence. Once the pin releases, the sweep reclaims the
// superseded posting versions on the quiescent relation.
func TestSweepReclaimsDrainedPostings(t *testing.T) {
	db := NewDatabase()
	schema := MustRelSchema("EV", []Attr{
		{Name: "id", Kind: KindInt},
		{Name: "tag", Kind: KindString},
	}, []string{"id"})
	rel := NewRelation(schema)
	for i := 0; i < 30; i++ {
		rel.MustInsert(Tuple{Int(int64(i)), String("HOT")})
	}
	for i := 0; i < 40; i++ {
		rel.MustInsert(Tuple{Int(int64(100 + i)), String(fmt.Sprintf("COLD-%02d", i/2))})
	}
	db.Add(rel)
	bv, err := NewBaaVSchema(db, KVSchema{Name: "ev_full", Rel: "EV", Key: []string{"id"}, Val: []string{"tag"}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Open(db, bv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Exec("create index ix_ev_tag on EV(tag)"); err != nil {
		t.Fatal(err)
	}
	// Drain the hot tag under a pin.
	snap := inst.Store().PinSnapshot([]string{"EV"})
	for i := 0; i < 28; i++ {
		if err := inst.Delete("EV", Tuple{Int(int64(i)), String("HOT")}); err != nil {
			t.Fatal(err)
		}
	}
	if st, ok := inst.IndexStats("ix_ev_tag"); !ok || st.MaxPosting != 2 {
		t.Fatalf("MaxPosting after the deletes = %d (ok=%v), want 2", st.MaxPosting, ok)
	}
	keys, _, err := inst.Store().AtSnapshot(snap).Index.Lookup("ix_ev_tag", String("HOT"))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 30 {
		t.Fatalf("reader pinned before the deletes sees %d HOT postings, want 30", len(keys))
	}
	snap.Release()
	if swept := inst.SweepMVCC(); swept <= 0 {
		t.Fatal("sweep reclaimed nothing after the pin released")
	}
	res, _, err := inst.Query("select E.id from EV E where E.tag = 'HOT'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("HOT rows after sweep = %d, want 2", len(res.Rows))
	}
}

// TestReclaimSweeperBackground: the ticker variant reclaims a quiescent
// relation's pin-blocked backlog on its own, concurrent readers stay correct
// throughout, and stop is idempotent.
func TestReclaimSweeperBackground(t *testing.T) {
	inst := mvccItemsInstance(t, "hash")
	snap := inst.Store().PinSnapshot([]string{"ITEM"})
	for i := 0; i < 5; i++ {
		if _, err := inst.Exec(fmt.Sprintf("delete from ITEM where item_id = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	snap.Release()
	stop := inst.StartReclaimSweeper(2 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for inst.MVCCSwept() == 0 {
		if time.Now().After(deadline) {
			stop()
			t.Fatal("background sweeper reclaimed nothing within 5s")
		}
		res, _, err := inst.Query("select COUNT(*) from ITEM I")
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows[0][0].Int; n != 195 {
			t.Fatalf("COUNT(*) = %d while sweeper runs, want 195", n)
		}
	}
	stop()
	stop() // idempotent
}
