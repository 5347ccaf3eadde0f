package zidian

import (
	"encoding/binary"
	"fmt"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/obs"
	"zidian/internal/relation"
	"zidian/internal/workload"
)

// TestWriteCostIndependentOfSize: §8.2 bounds a write by O(deg) block
// rewrites per tuple, not by the size of the relation. An INSERT of a TEST
// row and the primary-key DELETE of it, each run through ExecTraced on MOT
// at scales 0.2 and 2 (120 and 1 200 vehicles), put, delete and write the
// same kv pairs and bytes at both sizes. The row belongs to a vehicle that
// has no other test, so every block it lands in holds it alone and the
// bytes compare as well as the counts.
//
// The bound holds for an indexed relation too: an OBSERVATION INSERT and
// its pk DELETE under ix_obs_speed, at MOT scales 2 and 20, once M+1 more
// inserts have grown the speed's posting list past M keys above every
// loaded id, where the INSERT lands. A statement's posting traffic — its
// traced bytes minus those of the same statement on another fresh id
// before CREATE INDEX — reads one fragment and writes one: a header and at
// most M keys in the compact codec, plus the fragment's pair key when
// written (a delete of the superseded version writes no bytes). A commit
// that did not split a fragment grown past M would read and write more.
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

	obsStmts := func(id int) []string {
		return []string{
			fmt.Sprintf("insert into OBSERVATION values (%d, 1, 900001, '2011-06-01', 55, 'N', 1, 'DRY', 12, 'R-BOUND', 9, 0, 2, 1, 'URBAN')", id),
			fmt.Sprintf("delete from OBSERVATION where obs_id = %d", id),
		}
	}
	const growID = 9000010 // the rows that grow the posting list: above 9000002
	// A fragment's one segment: the segment count, the block's flags and
	// key count, and the keys, none longer than the largest id posted.
	keyBytes := int64(len(relation.AppendCompactValue(nil, Int(growID+baav.M))))
	readBound := 2 + int64(len(binary.AppendUvarint(nil, baav.M))) + baav.M*keyBytes
	// Its pair key: the index id, the speed and the fence, order-preserving,
	// then the segment and the version.
	writeBound := readBound + 4 + int64(len(relation.EncodeTuple(Tuple{Int(55), Int(growID + baav.M)}))) + 12
	for _, scale := range []float64{2, 20} {
		w := workload.MOT(workload.Spec{Scale: scale, Seed: 1})
		inst, err := Open(w.DB, w.Schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		run := func(src string) obs.KVSnapshot {
			tr := &obs.Trace{}
			if res, err := inst.ExecTraced(tr, src); err != nil || res.Affected != 1 {
				t.Fatalf("scale %g: %q: %v, or not one row affected", scale, src, err)
			}
			return tr.KV.Snapshot()
		}
		var plain []obs.KVSnapshot
		for _, src := range obsStmts(9000001) {
			plain = append(plain, run(src))
		}
		if _, err := inst.Exec("create index ix_obs_speed on OBSERVATION(speed)"); err != nil {
			t.Fatal(err)
		}
		for i := range baav.M + 1 {
			src := fmt.Sprintf("insert into OBSERVATION values (%d, 1, %d, '2011-06-01', 55, 'N', 1, 'DRY', 12, 'R-GROW', 9, 0, 2, 1, 'URBAN')", growID+i, 800000+i)
			if _, err := inst.Exec(src); err != nil {
				t.Fatal(err)
			}
		}
		for i, src := range obsStmts(9000002) {
			kvs := run(src)
			read, written := kvs.BytesRead-plain[i].BytesRead, kvs.BytesWritten-plain[i].BytesWritten
			t.Logf("scale %g: %q: posting bytes read %d, written %d", scale, src, read, written)
			if read <= 0 || written <= 0 || read > readBound || written > writeBound {
				t.Errorf("scale %g: %q: posting bytes read %d, written %d; want 1..%d and 1..%d",
					scale, src, read, written, readBound, writeBound)
			}
		}
	}
}
