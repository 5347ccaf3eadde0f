package zidian

import (
	"fmt"
	"strconv"
	"testing"

	"zidian/internal/baav"
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
// else. The generated database is built once, outside the timer. Its
// obs_by_region sub-benchmarks open MOT with that KV schema alone: a dozen
// long blocks of repeated speeds, so they time the loader's compressed
// blocks and their dedup.
func BenchmarkOpen(b *testing.B) {
	for _, scale := range benchLoadScales {
		var w *workload.Workload
		mot := func(b *testing.B) *workload.Workload {
			benchScale(b, scale)
			if w == nil {
				w = workload.MOT(workload.Spec{Scale: scale, Seed: 1})
			}
			return w
		}
		b.Run(fmt.Sprintf("mot%g", scale), func(b *testing.B) {
			w := mot(b)
			benchOpen(b, w.DB, w.Schema)
		})
		b.Run(fmt.Sprintf("obs_by_region/mot%g", scale), func(b *testing.B) {
			w := mot(b)
			benchOpen(b, w.DB, baav.MustSchema(baav.RelSchemas(w.DB), *w.Schema.ByName("obs_by_region")))
		})
	}
}

// benchOpen times Open of db on the schema, on the hash engine at four
// nodes.
func benchOpen(b *testing.B, db *Database, schema *BaaVSchema) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(db, schema, Options{Engine: "hash", Nodes: 4}); err != nil {
			b.Fatal(err)
		}
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
// of at most baav.M keys at either scale.
//
// Each scale is opened, and its index created, once per run and shared by
// its sub-benchmarks and by every b.N the testing package tries, so a
// profile of the run is the commit path and not the set-up.
func BenchmarkCommit(b *testing.B) {
	dbs := make(map[float64]*benchDB)
	cases := []struct {
		name  string
		scale float64
		run   func(b *testing.B, d *benchDB)
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
			d := dbs[c.scale]
			if d == nil {
				d = &benchDB{in: benchMOT(b, c.scale)}
				if _, err := d.in.Exec("create index ix_obs_speed on OBSERVATION(speed)"); err != nil {
					b.Fatal(err)
				}
				dbs[c.scale] = d
			}
			b.ReportAllocs()
			b.ResetTimer()
			c.run(b, d)
		})
	}
}

// benchDB is an instance the commit benchmarks share, and the number of
// rows they have inserted into it, which numbers the next one: no obs_id is
// inserted twice.
type benchDB struct {
	in   *Instance
	next int
}

// insertOp is benchInsertOp of the next row.
func (d *benchDB) insertOp() *writeOp {
	d.next++
	return benchInsertOp(d.next - 1)
}

func benchCommitInsert(b *testing.B, d *benchDB) {
	for i := 0; i < b.N; i++ {
		benchCommit(b, d.in, d.insertOp())
	}
}

func benchCommitDelete(b *testing.B, d *benchDB) {
	in := d.in
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

// benchCommitBatch keeps the last half rows it inserted: each batch
// inserts half new rows and deletes the half before them.
func benchCommitBatch(b *testing.B, d *benchDB) {
	const half = 32
	oldest := d.next
	for j := 0; j < half; j++ {
		benchCommit(b, d.in, d.insertOp())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := make([]*writeOp, 0, 2*half)
		for j := 0; j < half; j++ {
			batch = append(batch, d.insertOp(), benchDeleteOp(b, d.in, benchObsID(oldest)))
			oldest++
		}
		b.StartTimer()
		benchCommit(b, d.in, batch...)
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

// benchInsertOp inserts the OBSERVATION row of obs_id benchObsID(i) that
// the serving benchmark's mixed_rw workload writes: its block keys —
// obs_id, vehicle_id, region — derive from the id, so every insert creates
// fresh blocks instead of growing one, and its speed cycles over the
// generated domain, so the ix_obs_speed postings it lands in keep their
// real length.
func benchInsertOp(i int) *writeOp {
	id := benchObsID(i)
	row := Tuple{Int(id), Int(id), Int(id), String("2026-01-15"), Int(20 + id%90), String("N"), Int(1), String("DRY"),
		Int(12), String("R-" + strconv.FormatInt(id, 10)), Int(9), Int(0), Int(2), Int(1), String("URBAN")}
	return &writeOp{insertRows: []Tuple{row}}
}

// benchDeleteOp is `delete from OBSERVATION where obs_id = id` as Exec hands
// it to the committer.
func benchDeleteOp(b *testing.B, in *Instance, id int64) *writeOp {
	stmt, err := sqlpkg.ParseStatement(fmt.Sprintf("delete from OBSERVATION where obs_id = %d", id))
	if err != nil {
		b.Fatal(err)
	}
	match, unique, err := compileDeletePreds(in.db.Relation("OBSERVATION").Schema, stmt.(*sqlpkg.Delete), nil)
	if err != nil {
		b.Fatal(err)
	}
	return &writeOp{match: match, unique: unique}
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
