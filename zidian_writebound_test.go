package zidian

import (
	"fmt"
	"testing"

	"zidian/internal/obs"
	"zidian/internal/workload"
)

// TestWriteCostIndependentOfSize: §8.2 bounds a write by O(deg) block
// rewrites per tuple, not by the size of the relation. An INSERT of a TEST
// row and the primary-key DELETE of it, each run through ExecTraced on MOT
// at scales 0.2 and 2 (120 and 1 200 vehicles), put, delete and write the
// same kv pairs and bytes at both sizes. The row belongs to a vehicle that
// has no other test, so every block it lands in holds it alone and the
// bytes compare as well as the counts.
func TestWriteCostIndependentOfSize(t *testing.T) {
	stmts := []string{
		"insert into TEST values (9000001, 900001, 1, '2011-06-01', 'PASS', 1000, 'CLASS-4', 45.0, 35, 0, 0, 0, 7, 'MI')",
		"delete from TEST where test_id = 9000001",
	}
	cost := func(scale float64) (out string) {
		w := workload.MOT(workload.Spec{Scale: scale, Seed: 1})
		inst, err := Open(w.DB, w.Schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range stmts {
			tr := &obs.Trace{}
			if res, err := inst.ExecTraced(tr, src); err != nil || res.Affected != 1 {
				t.Fatalf("scale %g: %q: %v, or not one row affected", scale, src, err)
			}
			kvs := tr.KV.Snapshot()
			out += fmt.Sprintf("%q puts=%d deletes=%d bytes_written=%d\n", src, kvs.Puts, kvs.Deletes, kvs.BytesWritten)
		}
		return out
	}
	if small, large := cost(0.2), cost(2); small != large {
		t.Errorf("scale 0.2 writes\n%sscale 2 writes\n%s", small, large)
	}
}
