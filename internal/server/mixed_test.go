package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"zidian"
)

// mixedRels are the disjoint relations the concurrent writers own.
var mixedRels = []string{"ACCOUNTS", "ORDERS", "EVENTS"}

// mixedDB builds three structurally identical relations (id pk, tag, num)
// with 90 seed rows each, mapped through pk-keyed full KV schemas.
func mixedDB(t *testing.T) (*zidian.Database, *zidian.BaaVSchema) {
	t.Helper()
	db := zidian.NewDatabase()
	var kvs []zidian.KVSchema
	for _, name := range mixedRels {
		schema := zidian.MustRelSchema(name, []zidian.Attr{
			{Name: "id", Kind: zidian.KindInt},
			{Name: "tag", Kind: zidian.KindString},
			{Name: "num", Kind: zidian.KindInt},
		}, []string{"id"})
		rel := zidian.NewRelation(schema)
		for i := 0; i < 90; i++ {
			rel.MustInsert(zidian.Tuple{
				zidian.Int(int64(i)),
				zidian.String(fmt.Sprintf("T%d", i%9)),
				zidian.Int(int64(i % 45)),
			})
		}
		db.Add(rel)
		kvs = append(kvs, zidian.KVSchema{
			Name: strings.ToLower(name) + "_full", Rel: name,
			Key: []string{"id"}, Val: []string{"tag", "num"},
		})
	}
	bv, err := zidian.NewBaaVSchema(db, kvs...)
	if err != nil {
		t.Fatal(err)
	}
	return db, bv
}

// mixedDDL indexes tag and num on every relation, so the readers exercise
// the equality lookup (a ∝ over the index) and IndexRange access paths
// while postings churn.
func mixedDDL() []string {
	var out []string
	for _, name := range mixedRels {
		low := strings.ToLower(name)
		out = append(out,
			fmt.Sprintf("create index ix_%s_tag on %s(tag)", low, name),
			fmt.Sprintf("create index ix_%s_num on %s(num)", low, name),
		)
	}
	return out
}

// mixedWriteOps is writer w's deterministic statement sequence over its own
// relation: inserts of fresh ids with occasional deletes of earlier ones.
// The three writers touch disjoint relations, so any concurrent interleaving
// reaches the same final state as replaying the sequences one writer at a
// time.
func mixedWriteOps(w int) []string {
	rel := mixedRels[w]
	var out []string
	var live []int
	for k := 0; k < 40; k++ {
		if k%4 == 3 && len(live) > 0 {
			id := live[0]
			live = live[1:]
			out = append(out, fmt.Sprintf("delete from %s where id = %d", rel, id))
			continue
		}
		id := 1000 + w*1000 + k
		live = append(live, id)
		out = append(out, fmt.Sprintf("insert into %s values (%d, 'W%d', %d)", rel, id, k%5, 50+k%20))
	}
	return out
}

// mixedReadSuite is the differential read set: point, nonkey (∝ over an index),
// range (IndexRange), and an aggregate, per relation.
func mixedReadSuite() []string {
	var out []string
	for _, name := range mixedRels {
		out = append(out,
			fmt.Sprintf("select R.tag, R.num from %s R where R.id = 37", name),
			fmt.Sprintf("select R.id, R.num from %s R where R.tag = 'T4'", name),
			fmt.Sprintf("select R.id, R.tag from %s R where R.num between 10 and 30", name),
			fmt.Sprintf("select R.id from %s R where R.tag = 'W2'", name),
			fmt.Sprintf("select COUNT(*), MAX(R.num) from %s R where R.num >= 0", name),
		)
	}
	return out
}

// renderRows canonicalizes a result for byte comparison.
func renderRows(res *zidian.Result) string {
	res.Sort()
	var b strings.Builder
	b.WriteString(strings.Join(res.Cols, ",") + "\n")
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "%d:%s", v.Kind, v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestConcurrentMixedDifferential runs N writers on disjoint relations
// concurrently with M readers issuing point, nonkey, and range queries — all
// holding the server's statement gate shared, each writer ordered by its
// relation's group committer, on all three kv engines — and requires the
// final answers to be byte-identical to a serial replay of the same write
// sequences on a fresh instance. Run with -race, it is also the write-path
// data-race probe.
func TestConcurrentMixedDifferential(t *testing.T) {
	for _, eng := range []string{"hash", "lsm", "sorted"} {
		t.Run(eng, func(t *testing.T) {
			db, bv := mixedDB(t)
			inst, err := zidian.Open(db, bv, zidian.Options{Engine: eng, Nodes: 4, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			srv := New(inst, Config{MaxConcurrent: 8, QueueDepth: 64})
			ctx := context.Background()
			for _, ddl := range mixedDDL() {
				if _, err := srv.Exec(ctx, ddl); err != nil {
					t.Fatal(err)
				}
			}

			stop := make(chan struct{})
			errs := make(chan error, 64)
			var writers sync.WaitGroup
			for w := range mixedRels {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for _, stmt := range mixedWriteOps(w) {
						if _, err := srv.Exec(ctx, stmt); err != nil {
							select {
							case errs <- fmt.Errorf("writer %d: %q: %w", w, stmt, err):
							default:
							}
							return
						}
					}
				}(w)
			}
			var readers sync.WaitGroup
			suite := mixedReadSuite()
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					for i := r; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						q := suite[i%len(suite)]
						if _, _, _, err := srv.Query(ctx, q); err != nil {
							select {
							case errs <- fmt.Errorf("reader %d: %q: %w", r, q, err):
							default:
							}
							return
						}
					}
				}(r)
			}
			writers.Wait()
			close(stop)
			readers.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}

			// Serial replay: a fresh instance, the same DDL, then each
			// writer's sequence in full, one after another.
			db2, bv2 := mixedDB(t)
			ref, err := zidian.Open(db2, bv2, zidian.Options{Engine: eng, Nodes: 4, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, ddl := range mixedDDL() {
				if _, err := ref.Exec(ddl); err != nil {
					t.Fatal(err)
				}
			}
			for w := range mixedRels {
				for _, stmt := range mixedWriteOps(w) {
					if _, err := ref.Exec(stmt); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, q := range suite {
				got, _, _, err := srv.Query(ctx, q)
				if err != nil {
					t.Fatalf("final %q: %v", q, err)
				}
				want, _, err := ref.Query(q)
				if err != nil {
					t.Fatalf("replay %q: %v", q, err)
				}
				if renderRows(got) != renderRows(want) {
					t.Fatalf("%s: %q diverges from serial replay:\n--- concurrent\n%s--- serial\n%s",
						eng, q, renderRows(got), renderRows(want))
				}
			}
		})
	}
}
