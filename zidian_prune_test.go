package zidian

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// pruneSuiteMOTDDL are index_scan's three indexes.
var pruneSuiteMOTDDL = []string{
	"create index ix_obs_road on OBSERVATION(road_id)",
	"create index ix_vehicle_year on VEHICLE(year)",
	"create index ix_obs_speed on OBSERVATION(speed)",
}

// pruneLimitSuite adds LIMIT shapes the range and scatter suites lack: the
// limit pushed into the walk, and kept out of it by a residual filter.
var pruneLimitSuite = []string{
	"select I.item_id, I.qty from ITEM I where I.sku between 'SKU-00050' and 'SKU-00149' limit 8",
	"select I.item_id, I.price from ITEM I where I.sku between 'SKU-00050' and 'SKU-00149' and I.qty > 10 limit 8",
	"select distinct I.sku from ITEM I where I.qty between 3 and 5",
}

// TestDifferentialPrunedVsUnpruned runs every plan twice on the same store:
// as Plan resolved it, reading of each block only the columns the plan
// uses, and as UnresolvedCopy strips it, deriving its layouts as it runs
// and reading every column, as every plan did before the required-attribute
// pass. Every literal query of the grid (the suites without their ranged
// indexes), on three engines × {1, 4} nodes × {1, 2, 4} workers: the same
// rows in the same order, and the same ExecStats — what was fetched is what
// is counted — except ShuffleBytes, which may only fall, since narrower rows
// change workers.
func TestDifferentialPrunedVsUnpruned(t *testing.T) {
	var pruned atomic.Int64
	eachCell(t, []int{1, 4}, []int{1, 2, 4}, false, func(t *testing.T, c *GridCell) {
		for i, q := range c.Queries {
			info := c.plan(t, i)
			if info.Empty {
				continue
			}
			bare := *info
			bare.Root = UnresolvedCopy(t, info.Root)
			got, gs := c.run(t, info)
			want, ws := c.run(t, &bare)
			if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s: %q\npruned plan answers %v\nunpruned          %v\nplan %s", c, q.SQL, got.Rows, want.Rows, info.Root)
			}
			if gs.ShuffleBytes > ws.ShuffleBytes {
				t.Fatalf("%s: %q shuffles %d bytes pruned, %d unpruned", c, q.SQL, gs.ShuffleBytes, ws.ShuffleBytes)
			}
			if gs.ShuffleBytes < ws.ShuffleBytes {
				pruned.Add(1)
			}
			gs.ShuffleBytes, ws.ShuffleBytes = 0, 0
			if gs != ws {
				t.Fatalf("%s: %q\npruned   %+v\nunpruned %+v", c, q.SQL, gs, ws)
			}
		}
	})
	if pruned.Load() == 0 {
		t.Fatal("no plan shuffled fewer bytes pruned than unpruned: the two arms ran the same thing")
	}
}
