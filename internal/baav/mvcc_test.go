package baav

import (
	"testing"

	"zidian/internal/obs"
	"zidian/internal/relation"
)

// commit runs one full commit on rel the way the group committer drives
// it — stage, apply the batch, install, reclaim — returning the watermark
// Reclaim observed. A staging error abandons the commit with nothing
// written.
func commit(st *Store, rel string, stage func(c *Commit, kvt *obs.KV) error) (uint64, error) {
	kvt := &obs.KV{}
	c, err := st.BeginCommit(rel)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := stage(c, kvt); err != nil {
		return 0, err
	}
	st.Cluster.ApplyBatch(kvt, c.Ops())
	c.Install()
	return c.Reclaim(kvt), nil
}

// commitOne is commit on SUPPLIER, fatal on error.
func commitOne(t *testing.T, st *Store, stage func(c *Commit, kvt *obs.KV) error) uint64 {
	t.Helper()
	w, err := commit(st, "SUPPLIER", stage)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// insertTuple and deleteTuple commit one tuple each.
func insertTuple(st *Store, rel string, t relation.Tuple) error {
	_, err := commit(st, rel, func(c *Commit, kvt *obs.KV) error { return c.StageInsert(kvt, t) })
	return err
}

func deleteTuple(st *Store, rel string, t relation.Tuple) error {
	_, err := commit(st, rel, func(c *Commit, kvt *obs.KV) error {
		_, err := c.StageDelete(kvt, t)
		return err
	})
	return err
}

func supplierBlock(t *testing.T, st *Store, nation int64) *Block {
	t.Helper()
	blk, _, _, err := st.GetBlock("SUPPLIER_by_nation", relation.Tuple{relation.Int(nation)})
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// TestMVCCSnapshotReadsPinnedVersion: a snapshot pinned before a commit
// keeps reading the pre-commit block while latest reads see the new one.
func TestMVCCSnapshotReadsPinnedVersion(t *testing.T) {
	st, _ := newTestStore(t, DefaultOptions())
	if st.CommitSeq("SUPPLIER") != 0 {
		t.Fatalf("fresh store seq = %d", st.CommitSeq("SUPPLIER"))
	}
	snap := st.PinSnapshot([]string{"SUPPLIER"})
	defer snap.Release()
	view := st.AtSnapshot(snap)

	commitOne(t, st, func(c *Commit, kvt *obs.KV) error {
		return c.StageInsert(kvt, relation.Tuple{relation.Int(13), relation.Int(1)})
	})
	if st.CommitSeq("SUPPLIER") != 1 {
		t.Fatalf("seq after commit = %d", st.CommitSeq("SUPPLIER"))
	}

	if blk := supplierBlock(t, st, 1); blk.Distinct() != 3 {
		t.Fatalf("latest read: distinct = %d, want 3", blk.Distinct())
	}
	if blk := supplierBlock(t, view, 1); blk.Distinct() != 2 {
		t.Fatalf("snapshot read: distinct = %d, want pre-commit 2", blk.Distinct())
	}
}

// TestMVCCCommitStamp: the stamp tracks in-flight commits and rolls back
// when a commit is abandoned, leaving the store untouched.
func TestMVCCCommitStamp(t *testing.T) {
	st, _ := newTestStore(t, DefaultOptions())
	kvt := &obs.KV{}
	c, err := st.BeginCommit("SUPPLIER")
	if err != nil {
		t.Fatal(err)
	}
	if st.CommitStamp("SUPPLIER") != 1 || st.CommitSeq("SUPPLIER") != 0 {
		t.Fatalf("in flight: stamp=%d seq=%d", st.CommitStamp("SUPPLIER"), st.CommitSeq("SUPPLIER"))
	}
	if err := c.StageInsert(kvt, relation.Tuple{relation.Int(13), relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	c.Close() // abandoned: nothing installed
	if st.CommitStamp("SUPPLIER") != 0 || st.CommitSeq("SUPPLIER") != 0 {
		t.Fatalf("after abort: stamp=%d seq=%d", st.CommitStamp("SUPPLIER"), st.CommitSeq("SUPPLIER"))
	}
	if blk := supplierBlock(t, st, 1); blk.Distinct() != 2 {
		t.Fatalf("aborted commit leaked: distinct = %d", blk.Distinct())
	}
	if _, err := st.BeginCommit("NOPE"); err == nil {
		t.Fatal("unknown relation must error")
	}
}

// TestMVCCReclaimRespectsPins: a pinned snapshot blocks reclamation of the
// versions it can reach; releasing the pin lets the next commit's Reclaim
// free them.
func TestMVCCReclaimRespectsPins(t *testing.T) {
	st, _ := newTestStore(t, DefaultOptions())
	snap := st.PinSnapshot([]string{"SUPPLIER"})
	view := st.AtSnapshot(snap)
	live0 := st.VersionsLive()

	w := commitOne(t, st, func(c *Commit, kvt *obs.KV) error {
		return c.StageInsert(kvt, relation.Tuple{relation.Int(13), relation.Int(1)})
	})
	if w != 0 {
		t.Fatalf("watermark with pin at 0 = %d", w)
	}
	if got := st.VersionsReclaimed(); got != 0 {
		t.Fatalf("reclaimed %d versions while a snapshot pinned them", got)
	}
	if st.VersionsLive() != live0+1 {
		t.Fatalf("live = %d, want %d (old + new version coexist)", st.VersionsLive(), live0+1)
	}
	// The pinned reader still resolves the retired version's bytes.
	if blk := supplierBlock(t, view, 1); blk.Distinct() != 2 {
		t.Fatalf("pinned read after supersede: distinct = %d", blk.Distinct())
	}

	snap.Release()
	snap.Release() // idempotent
	w = commitOne(t, st, func(c *Commit, kvt *obs.KV) error {
		return c.StageInsert(kvt, relation.Tuple{relation.Int(20), relation.Int(2)})
	})
	if w != 2 {
		t.Fatalf("watermark after release = %d", w)
	}
	if got := st.VersionsReclaimed(); got != 2 {
		// nation-1's seq-0 version and nation-2's seq-0 version both retire.
		t.Fatalf("reclaimed = %d, want 2", got)
	}
	if st.VersionsLive() != live0 {
		t.Fatalf("live = %d, want %d after reclamation", st.VersionsLive(), live0)
	}
}

// TestMVCCTombstone: deleting a block's last row installs a tombstone —
// latest reads see the block gone, pinned snapshots still see it — and the
// tombstone itself is dropped once it is the sole unreachable version.
func TestMVCCTombstone(t *testing.T) {
	st, _ := newTestStore(t, DefaultOptions())
	snap := st.PinSnapshot([]string{"SUPPLIER"})
	view := st.AtSnapshot(snap)

	commitOne(t, st, func(c *Commit, kvt *obs.KV) error {
		found, err := c.StageDelete(kvt, relation.Tuple{relation.Int(12), relation.Int(2)})
		if err == nil && !found {
			t.Fatal("delete of an existing tuple not found")
		}
		return err
	})
	if blk := supplierBlock(t, st, 2); blk != nil {
		t.Fatalf("latest read past tombstone: %+v", blk)
	}
	if blk := supplierBlock(t, view, 2); blk == nil || blk.Distinct() != 1 {
		t.Fatalf("snapshot read = %+v, want the pre-delete block", blk)
	}

	snap.Release()
	commitOne(t, st, func(c *Commit, kvt *obs.KV) error {
		return c.StageInsert(kvt, relation.Tuple{relation.Int(13), relation.Int(1)})
	})
	// The old nation-2 version and its tombstone are both unreachable now.
	if _, n := st.mvcc.head("SUPPLIER_by_nation", st.blockPrefix(st.ids["SUPPLIER_by_nation"], relation.Tuple{relation.Int(2)})); n != 0 {
		t.Fatal("tombstoned block still has directory entries")
	}
	if blk := supplierBlock(t, st, 2); blk != nil {
		t.Fatalf("deleted block resurfaced: %+v", blk)
	}
	// Deleting from an absent block stages nothing and writes nothing.
	commitOne(t, st, func(c *Commit, kvt *obs.KV) error {
		found, err := c.StageDelete(kvt, relation.Tuple{relation.Int(99), relation.Int(2)})
		if found {
			t.Fatal("delete of a missing tuple reported found")
		}
		return err
	})
}

// TestMVCCPrefetchSeedsPreImages: Prefetch batch-reads every block the
// batch touches; staging after it issues no further gets.
func TestMVCCPrefetchSeedsPreImages(t *testing.T) {
	st, _ := newTestStore(t, DefaultOptions())
	kvt := &obs.KV{}
	c, err := st.BeginCommit("SUPPLIER")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows := []relation.Tuple{
		{relation.Int(13), relation.Int(1)},
		{relation.Int(14), relation.Int(2)},
	}
	if err := c.Prefetch(kvt, rows); err != nil {
		t.Fatal(err)
	}
	gets := kvt.Snapshot().Gets
	for _, row := range rows {
		if err := c.StageInsert(kvt, row); err != nil {
			t.Fatal(err)
		}
	}
	if now := kvt.Snapshot().Gets; now != gets {
		t.Fatalf("staging re-read prefetched blocks: gets %d -> %d", gets, now)
	}
	st.Cluster.ApplyBatch(kvt, c.Ops())
	c.Install()
	c.Reclaim(kvt)
	if blk := supplierBlock(t, st, 2); blk.Distinct() != 2 {
		t.Fatalf("batched insert lost: distinct = %d", blk.Distinct())
	}
}
