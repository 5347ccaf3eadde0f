package zidian

import (
	"fmt"
	"strings"
	"testing"

	"zidian/internal/baav"
)

// The placement suite: reads over an instance spread across storage nodes
// (whole-instance scans, batched routed gets) must answer every query as the
// single-node layout does, on every engine, for every node count — node
// count is placement, never semantics. The grid (grid_test.go) runs
// scatterSuite in every cell.

// scatterSuite covers every access path over spread data: whole-instance
// scans (every node walked in node order), pk point reads, index lookups
// and index ranges (batched routed gets), LIMIT walks, and aggregates over
// all of them.
var scatterSuite = []string{
	"select I.item_id, I.sku, I.qty, I.price from ITEM I",
	"select I.qty from ITEM I where I.item_id = 123",
	"select I.item_id from ITEM I where I.sku = 'SKU-00042'",
	"select I.item_id, I.qty from ITEM I where I.sku between 'SKU-00050' and 'SKU-00059'",
	"select I.item_id from ITEM I where I.qty >= 45 order by I.item_id limit 9",
	"select I.sku, I.item_id from ITEM I where I.sku between 'SKU-00010' and 'SKU-00014' order by I.sku, I.item_id limit 5",
	"select COUNT(*), SUM(I.qty), MIN(I.price), MAX(I.sku) from ITEM I",
	"select COUNT(*), MIN(I.item_id) from ITEM I where I.price between 12 and 14",
}

// scatterMVCCInstance is a small ITEM fixture: 200 rows under one KV
// instance, item_full, keyed by item_id.
func scatterMVCCInstance(t *testing.T, engine string, nodes int) *Instance {
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
	inst, err := Open(db, bv, Options{Engine: engine, Nodes: nodes, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// renderBlock appends one block of item_full to b: its key, then its tuples.
func renderBlock(b *strings.Builder, key Tuple, blk *baav.Block) {
	fmt.Fprintf(b, "%v:", key)
	for _, tu := range blk.Tuples {
		fmt.Fprintf(b, "%v|", tu)
	}
	b.WriteByte('\n')
}

// scatterCollect renders one whole-instance scan of item_full — block keys
// and tuple payloads in delivery order — pinning a snapshot around the walk
// exactly like statement execution does.
func scatterCollect(t *testing.T, inst *Instance) string {
	t.Helper()
	snap := inst.Store().PinSnapshot([]string{"ITEM"})
	defer snap.Release()
	var b strings.Builder
	err := inst.Store().AtSnapshot(snap).ScanInstance("item_full", func(key Tuple, blk *baav.Block, _ *baav.BlockStats) bool {
		renderBlock(&b, key, blk)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestScatterMidScanCommitMVCC: a commit that lands while a pinned scan is
// in flight must be invisible to that scan. The scan pins a snapshot and
// walks item_full node by node; between the walk of node 0 and the rest (on
// one node: after the pin, before the walk) an insert and a delete commit
// through the group committer. A node walk holds its node's read lock while
// it delivers, so the commit lands between walks, never inside one. The
// concatenated walks must still render exactly the pre-commit scan; a fresh
// scan afterwards sees the new state.
func TestScatterMidScanCommitMVCC(t *testing.T) {
	for _, eng := range gridEngines {
		for _, nodes := range gridNodes {
			inst := scatterMVCCInstance(t, eng, nodes)
			before := scatterCollect(t, inst)

			snap := inst.Store().PinSnapshot([]string{"ITEM"})
			view := inst.Store().AtSnapshot(snap)
			var b strings.Builder
			for node := range nodes {
				if node == min(1, nodes-1) {
					if _, err := inst.Exec("insert into ITEM values (9000, 'SKU-MID', 7)"); err != nil {
						t.Fatalf("%s/%dn: mid-scan insert: %v", eng, nodes, err)
					}
					if _, err := inst.Exec("delete from ITEM where item_id = 150"); err != nil {
						t.Fatalf("%s/%dn: mid-scan delete: %v", eng, nodes, err)
					}
				}
				err := view.ScanInstanceNodeT(nil, node, "item_full", nil, func(key Tuple, blk *baav.Block, _ int64) bool {
					renderBlock(&b, key, blk)
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			snap.Release()
			if b.String() != before {
				t.Fatalf("%s/%dn: scan pinned before the commit observed it", eng, nodes)
			}

			after := scatterCollect(t, inst)
			if after == before {
				t.Fatalf("%s/%dn: committed insert+delete invisible to a fresh scan", eng, nodes)
			}
			if !strings.Contains(after, "SKU-MID") {
				t.Fatalf("%s/%dn: fresh scan lacks the inserted row", eng, nodes)
			}
			res, _, err := inst.Query("select COUNT(*) from ITEM I")
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Rows[0][0].Int; n != 200 {
				t.Fatalf("%s/%dn: COUNT(*) = %d after insert+delete of one row each, want 200", eng, nodes, n)
			}
		}
	}
}
