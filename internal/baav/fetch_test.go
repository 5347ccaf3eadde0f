package baav

import (
	"fmt"
	"math/rand"
	"testing"

	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/relation"
)

// obsStore maps n rows shaped like MOT's OBSERVATION onto four hash-engine
// nodes: an obs_id key and wideBlock's 14 values (eight ints, two floats,
// four strings), one block per key, every fourth key's block holding its
// row twice — the ∝ target of an index_scan statement.
func obsStore(tb testing.TB, n int) (*Store, []relation.Tuple) {
	tb.Helper()
	attrs := []relation.Attr{{Name: "obs_id", Kind: relation.KindInt}}
	val := make([]string, 14)
	for c := range val {
		val[c] = fmt.Sprintf("v%d", c)
		kind := relation.KindInt
		switch {
		case c >= 10:
			kind = relation.KindString
		case c >= 8:
			kind = relation.KindFloat
		}
		attrs = append(attrs, relation.Attr{Name: val[c], Kind: kind})
	}
	rel := relation.NewRelation(relation.MustSchema("OBS", attrs, nil))
	rows, _ := wideBlock(n, false)
	keys := make([]relation.Tuple, n)
	for i, t := range rows.Tuples {
		keys[i] = relation.Tuple{relation.Int(int64(i))}
		rel.MustInsert(append(relation.Tuple{keys[i][0]}, t...))
		if i%4 == 3 {
			rel.MustInsert(append(relation.Tuple{keys[i][0]}, t...))
		}
	}
	db := relation.NewDatabase()
	db.Add(rel)
	schema := MustSchema(RelSchemas(db), KVSchema{Name: "obs_full", Rel: "OBS", Key: []string{"obs_id"}, Val: val})
	st, err := Map(db, schema, kv.NewCluster(kv.EngineHash, 4), DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return st, keys
}

// TestFetchBlocksAllocsIndependentOfKeys: a batched fetch costs the same
// number of allocations for one block as for 700 — every prefix and segment
// key shares one buffer, every block one arena — as long as nothing it
// decodes is a string (a string value is its own allocation).
func TestFetchBlocksAllocsIndependentOfKeys(t *testing.T) {
	st, keys := obsStore(t, 700)
	ints := []int{0, 3, 7}
	var counts []float64
	for _, n := range []int{1, 20, 700} {
		batch := keys[700-n:] // each ends with a block that has multiplicities
		blks, _, gets, err := st.FetchBlocksT(nil, "obs_full", batch, ints, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gets != n || blks[n-1] == nil || len(blks[n-1].Tuples[0]) != len(ints) {
			t.Fatalf("%d keys: %d gets, last block %v", n, gets, blks[n-1])
		}
		counts = append(counts, testing.AllocsPerRun(20, func() {
			if _, _, _, err := st.FetchBlocksT(nil, "obs_full", batch, ints, nil); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("allocations for 1, 20 and 700 keys: %v, want one count", counts)
	}
}

// TestFetchedBlocksShareNoTail: the blocks of one batched fetch are carved
// from one arena, and each is the caller's: appending to one block's tuples,
// counts or a tuple of it leaves every other block as fetched.
func TestFetchedBlocksShareNoTail(t *testing.T) {
	st, keys := obsStore(t, 16)
	fetch := func() []*Block {
		blks, _, _, err := st.FetchBlocksT(nil, "obs_full", keys, []int{0, 12}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return blks
	}
	want, got := fetch(), fetch()
	for i, blk := range got {
		blk.Tuples[0] = append(blk.Tuples[0], relation.Int(-1))
		blk.Tuples = append(blk.Tuples, relation.Tuple{relation.Int(-2), relation.String("x")})
		if blk.Counts != nil {
			blk.Counts = append(blk.Counts, 99)
		}
		for j, other := range got {
			if j == i {
				continue
			}
			if len(other.Tuples) != len(want[j].Tuples) && j > i {
				t.Fatalf("appending to block %d grew block %d", i, j)
			}
			for k, tup := range want[j].Tuples {
				if !other.Tuples[k][:len(tup)].Equal(tup) {
					t.Fatalf("appending to block %d changed block %d tuple %d: %v, fetched %v", i, j, k, other.Tuples[k], tup)
				}
			}
			for k, c := range want[j].Counts {
				if other.Counts[k] != c {
					t.Fatalf("appending to block %d changed block %d multiplicity %d", i, j, k)
				}
			}
		}
	}
}

// rewriteAll commits every block of obsStore's instance once and leaves its
// rows as they were — each block's first row inserted again and deleted —
// so the version directory lists every block.
func rewriteAll(tb testing.TB, st *Store, keys []relation.Tuple) {
	tb.Helper()
	blks, _, _, err := st.FetchBlocksT(nil, "obs_full", keys, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	_, err = commit(st, "OBS", func(c *Commit, kvt *obs.KV) error {
		for i, blk := range blks {
			row := append(relation.Tuple{keys[i][0]}, blk.Tuples[0]...)
			if err := c.StageInsert(kvt, row); err != nil {
				return err
			}
			if _, err := c.StageDelete(kvt, row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	if d := st.Directory(); d.Entries != len(keys) {
		tb.Fatalf("directory lists %d blocks after rewriting %d", d.Entries, len(keys))
	}
}

// blockStates are the two states a block is read in: as loaded, which the
// version directory does not list, and rewritten by a commit, which it does.
var blockStates = []struct {
	name    string
	prepare func(tb testing.TB, st *Store, keys []relation.Tuple)
}{
	{"as_loaded", func(testing.TB, *Store, []relation.Tuple) {}},
	{"rewritten", rewriteAll},
}

// BenchmarkResolve is the version-directory half of a batched fetch: the
// 512 blocks of one ∝ batch resolved, under one read lock, at the sequence a
// snapshot pinned, as loaded and once a commit has rewritten every block.
func BenchmarkResolve(b *testing.B) {
	for _, state := range blockStates {
		b.Run(state.name, func(b *testing.B) {
			st, keys := obsStore(b, 700)
			state.prepare(b, st, keys)
			snap := st.PinSnapshot([]string{"OBS"})
			defer snap.Release()
			seq, _ := snap.Seq("OBS")
			kb, err := st.NewKeyBatch("obs_full", 512)
			if err != nil {
				b.Fatal(err)
			}
			for _, key := range keys[:512] {
				kb.Add(key, nil)
			}
			batch := &kb.b
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.mvcc.resolve(batch, seq, true)
			}
			if batch.reads[511].win.nsegs != 1 {
				b.Fatalf("block 511 resolved to %+v", batch.reads[511].win)
			}
		})
	}
}

// BenchmarkFetchBlocks is one batched ∝ fetch from an obs_full-shaped
// instance, as loaded and once a commit has rewritten every block: 1, 20
// and 700 keys, reading the three columns an index_scan plan keeps (one of
// them a string) or all fourteen. The 700 blocks fit in cache; the cold
// case reads 700 random keys of 100 000 blocks, another 700 each time of
// 64 batches.
func BenchmarkFetchBlocks(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		const blocks, batch, batches = 100_000, 700, 64
		st, keys := obsStore(b, blocks)
		r := rand.New(rand.NewSource(1))
		sets := make([][]relation.Tuple, batches)
		for i := range sets {
			for range batch {
				sets[i] = append(sets[i], keys[r.Intn(blocks)])
			}
		}
		for _, c := range []struct {
			name string
			cols []int
		}{{"3of14", []int{2, 9, 11}}, {"all", nil}} {
			b.Run(fmt.Sprintf("keys=%d/cols=%s", batch, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, _, err := st.FetchBlocksT(nil, "obs_full", sets[i%batches], c.cols, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
	for _, state := range blockStates {
		st, keys := obsStore(b, 700)
		state.prepare(b, st, keys)
		for _, n := range []int{1, 20, 700} {
			for _, c := range []struct {
				name string
				cols []int
			}{{"3of14", []int{2, 9, 11}}, {"all", nil}} {
				b.Run(fmt.Sprintf("%s/keys=%d/cols=%s", state.name, n, c.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, _, err := st.FetchBlocksT(nil, "obs_full", keys[:n], c.cols, nil); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
