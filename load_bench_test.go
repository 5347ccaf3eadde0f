package zidian

import (
	"fmt"
	"testing"

	"zidian/internal/relation"
	sqlpkg "zidian/internal/sql"
	"zidian/internal/workload"
)

// benchLoadScales are the MOT scales the load-path benchmarks run at: 2,
// and 20, the size the serving benchmark loads, which -short skips.
var benchLoadScales = []float64{2, 20}

// benchScale skips a benchmark at a scale above 2 under -short.
func benchScale(b *testing.B, scale float64) {
	if scale > 2 && testing.Short() {
		b.Skip("MOT scale above 2 runs without -short")
	}
}

// BenchmarkOpen times Open of MOT on the hash engine at four nodes: the
// mapping of every relation onto its KV schemas (Section 4.1) and nothing
// else. The generated database is built once, outside the timer.
func BenchmarkOpen(b *testing.B) {
	for _, scale := range benchLoadScales {
		b.Run(fmt.Sprintf("mot%g", scale), func(b *testing.B) {
			benchScale(b, scale)
			w := workload.MOT(workload.Spec{Scale: scale, Seed: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Open(w.DB, w.Schema, Options{Engine: "hash", Nodes: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCreateIndex times CREATE INDEX ix_obs_speed over an opened MOT
// instance: the backfill of one posting per distinct speed. The index is
// dropped again outside the timer.
func BenchmarkCreateIndex(b *testing.B) {
	for _, scale := range benchLoadScales {
		b.Run(fmt.Sprintf("mot%g", scale), func(b *testing.B) {
			benchScale(b, scale)
			in := benchMOT(b, scale)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.Exec("create index ix_obs_speed on OBSERVATION(speed)"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if _, err := in.Exec("drop index ix_obs_speed"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkCommit times one group commit on OBSERVATION, which carries the
// ix_obs_speed index, as the committer runs it: one INSERT and one
// primary-key DELETE over MOT scales 2 and 20, whose OBSERVATION is ten
// times larger and whose speed postings are ten times longer, and a batch
// of 32 INSERTs and 32 primary-key DELETEs over scale 2. Statements are
// parsed outside the timer. A deleted row is the relation's middle one, put
// back outside the timer; an inserted row is new. §8.2 bounds a write by
// the degree, not by the relation's size, so each write at the two scales
// should cost alike; the posting maintenance does, rewriting one fragment
// of at most index.M keys at either scale.
func BenchmarkCommit(b *testing.B) {
	cases := []struct {
		name  string
		scale float64
		run   func(b *testing.B, in *Instance)
	}{
		{"insert/mot2", 2, benchCommitInsert},
		{"pk_delete/mot2", 2, benchCommitDelete},
		{"batch64/mot2", 2, benchCommitBatch},
		{"insert/mot20", 20, benchCommitInsert},
		{"pk_delete/mot20", 20, benchCommitDelete},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			benchScale(b, c.scale)
			in := benchMOT(b, c.scale)
			if _, err := in.Exec("create index ix_obs_speed on OBSERVATION(speed)"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			c.run(b, in)
		})
	}
}

func benchCommitInsert(b *testing.B, in *Instance) {
	for i := 0; i < b.N; i++ {
		benchCommit(b, in, benchInsertOp(in, i))
	}
}

func benchCommitDelete(b *testing.B, in *Instance) {
	obs := in.db.Relation("OBSERVATION")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		victim := obs.Tuples[len(obs.Tuples)/2].Clone()
		op := benchDeleteOp(b, in, victim[0].Int)
		b.StartTimer()
		benchCommit(b, in, op)
		b.StopTimer()
		benchCommit(b, in, &writeOp{insertRows: []Tuple{victim}})
		b.StartTimer()
	}
}

func benchCommitBatch(b *testing.B, in *Instance) {
	const half = 32
	for j := 0; j < half; j++ {
		benchCommit(b, in, benchInsertOp(in, j))
	}
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		b.StopTimer()
		batch := make([]*writeOp, 0, 2*half)
		for j := 0; j < half; j++ {
			batch = append(batch, benchInsertOp(in, i*half+j), benchDeleteOp(b, in, benchObsID((i-1)*half+j)))
		}
		b.StartTimer()
		benchCommit(b, in, batch...)
	}
}

// benchMOT opens MOT at the scale on the hash engine at four nodes.
func benchMOT(b *testing.B, scale float64) *Instance {
	w := workload.MOT(workload.Spec{Scale: scale, Seed: 1})
	in, err := Open(w.DB, w.Schema, Options{Engine: "hash", Nodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// benchObsID is the obs_id of the i-th row the benchmarks insert, above
// every generated one.
func benchObsID(i int) int64 { return 1_000_000_000 + int64(i) }

// benchInsertOp inserts a copy of OBSERVATION's first row under obs_id
// benchObsID(i).
func benchInsertOp(in *Instance, i int) *writeOp {
	row := in.db.Relation("OBSERVATION").Tuples[0].Clone()
	row[0] = relation.Int(benchObsID(i))
	return &writeOp{insertRows: []Tuple{row}}
}

// benchDeleteOp is `delete from OBSERVATION where obs_id = id` as Exec hands
// it to the committer.
func benchDeleteOp(b *testing.B, in *Instance, id int64) *writeOp {
	stmt, err := sqlpkg.ParseStatement(fmt.Sprintf("delete from OBSERVATION where obs_id = %d", id))
	if err != nil {
		b.Fatal(err)
	}
	check, probe, err := compileDeletePreds(in.db.Relation("OBSERVATION").Schema, stmt.(*sqlpkg.Delete), nil)
	if err != nil {
		b.Fatal(err)
	}
	return &writeOp{deleteWhere: check, deleteProbe: probe}
}

// benchCommit runs ops as one batch of OBSERVATION's committer and checks
// that each wrote one row.
func benchCommit(b *testing.B, in *Instance, ops ...*writeOp) {
	for _, op := range ops {
		op.done = make(chan writeOutcome, 1)
	}
	in.committers["OBSERVATION"].commit(ops)
	for _, op := range ops {
		if out := <-op.done; out.err != nil || out.affected != 1 {
			b.Fatalf("commit: %d rows, %v", out.affected, out.err)
		}
	}
}
