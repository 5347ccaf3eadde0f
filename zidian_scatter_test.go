package zidian

import (
	"fmt"
	"strings"
	"testing"

	"zidian/internal/baav"
)

// The placement suite: the scattered per-node read pipelines (scan fan-in,
// posting heap merge, batched routed gets) must answer every query as the
// single-node layout does, on every engine, for every node count — node
// count is placement, never semantics. The grid (grid_test.go) runs
// scatterSuite in every cell.

// scatterSuite covers every scattered access path: whole-instance scans
// (node-contiguous fan-in), pk point reads and index lookups (batched routed
// gets), index ranges (ordered heap merge), LIMIT walks (producer-side cut),
// and aggregates over all of them.
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

// scatterMVCCInstance is a smaller ITEM fixture (200 rows) so every node's
// scatter pipeline buffers its whole walk without consumer backpressure —
// the mid-scan-commit test below relies on producers releasing their node
// locks while the gather is paused inside the callback.
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

// scatterCollect renders one scattered walk of item_full — block keys and
// tuple payloads in delivery order — pinning a snapshot around the walk
// exactly like statement execution does.
func scatterCollect(t *testing.T, inst *Instance, mid func()) string {
	t.Helper()
	snap := inst.Store().PinSnapshot([]string{"ITEM"})
	defer snap.Release()
	var b strings.Builder
	first := true
	err := inst.Store().AtSnapshot(snap).ScanInstance("item_full", func(key Tuple, blk *baav.Block, _ *baav.BlockStats) bool {
		if first && mid != nil {
			mid()
			first = false
		}
		fmt.Fprintf(&b, "%v:", key)
		for _, tu := range blk.Tuples {
			fmt.Fprintf(&b, "%v|", tu)
		}
		b.WriteByte('\n')
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestScatterMidScanCommitMVCC: a commit that lands while a scattered scan
// is mid-delivery must be invisible to that scan. The callback pauses the
// gather after the first block and blocks until a writer commits an insert
// and a delete through the group committer — per-node producers have already
// buffered their walks and released their locks, so the commit fully
// installs while the scan is in flight. The paused scan must still deliver
// exactly the pre-commit state; a fresh scan afterwards sees the new one.
//
// Node count 1 is excluded: the degenerate single-node walk runs inline
// under the node's read lock, so a writer cannot commit mid-scan at all —
// pausing for one there would deadlock by design, and its differential
// coverage comes from the grid (TestGolden).
func TestScatterMidScanCommitMVCC(t *testing.T) {
	for _, eng := range gridEngines {
		for _, nodes := range gridNodes {
			if nodes == 1 {
				continue
			}
			inst := scatterMVCCInstance(t, eng, nodes)
			before := scatterCollect(t, inst, nil)

			committed := make(chan error, 1)
			got := scatterCollect(t, inst, func() {
				go func() {
					if _, err := inst.Exec("insert into ITEM values (9000, 'SKU-MID', 7)"); err != nil {
						committed <- err
						return
					}
					_, err := inst.Exec("delete from ITEM where item_id = 150")
					committed <- err
				}()
				if err := <-committed; err != nil {
					t.Errorf("%s/%dn: mid-scan writer: %v", eng, nodes, err)
				}
			})
			if t.Failed() {
				t.FailNow()
			}
			if got != before {
				t.Fatalf("%s/%dn: scan started before the commit observed it", eng, nodes)
			}

			after := scatterCollect(t, inst, nil)
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
