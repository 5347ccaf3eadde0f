package kba

import (
	"fmt"
	"reflect"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/relation"
	"zidian/internal/sql"
)

// carStore maps rows CAR(id, make, year) — eight makes, years cycling over
// twelve — onto four nodes, keyed by make: eight blocks however many rows,
// once with the ids and once with the years alone, which repeat within a
// block.
func carStore(t testing.TB, rows int) *baav.Store {
	t.Helper()
	db := relation.NewDatabase()
	car := relation.NewRelation(relation.MustSchema("CAR",
		[]relation.Attr{{Name: "id", Kind: relation.KindInt}, {Name: "make", Kind: relation.KindString}, {Name: "year", Kind: relation.KindInt}},
		[]string{"id"}))
	for i := 0; i < rows; i++ {
		car.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.String(fmt.Sprintf("MAKE-%d", i%8)), relation.Int(int64(1990 + i%12))})
	}
	db.Add(car)
	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "car_by_make", Rel: "CAR", Key: []string{"make"}, Val: []string{"id", "year"}},
		baav.KVSchema{Name: "car_years_by_make", Rel: "CAR", Key: []string{"make"}, Val: []string{"year"}})
	store, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 4), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// makeCounts is γ straight over a scan, as the planner emits it for a
// GROUP BY over one relation: per make (a block key) or per year (a block
// value), COUNT(*), SUM and MAX of the year.
func makeCounts(store *baav.Store, key string) Plan {
	p := &GroupBy{
		Input: &ScanKV{KV: "car_by_make", Alias: "C"},
		Keys:  []string{key},
		Aggs: []AggSpec{
			{Func: sql.AggCount, Star: true, Name: "n"},
			{Func: sql.AggSum, Attr: "C.year", Name: "years"},
			{Func: sql.AggMax, Attr: "C.year", Name: "latest"},
		},
	}
	Resolve(p, store.KVSchema)
	return p
}

// TestGroupByOverScanIsGroupByOverRows: γ aggregating inside the scan's walk
// answers what γ over the materialized scan answers — the same rows in the
// same partitions — with the same ExecStats, and its trace still holds the
// scan's span with the rows, workers, nodes and columns the scan reports
// when it runs alone (reading only the column γ aggregates).
func TestGroupByOverScanIsGroupByOverRows(t *testing.T) {
	store := carStore(t, 1000)
	for _, c := range []struct {
		key     string
		workers int
	}{{"C.make", 1}, {"C.make", 2}, {"C.make", 4}, {"C.year", 1}, {"C.year", 3}} {
		fused, workers := makeCounts(store, c.key), c.workers
		ft := &obs.Trace{}
		got, gotStats, err := Run(fused, store, workers, ft)
		if err != nil {
			t.Fatal(err)
		}
		g := fused.(*GroupBy)
		st := &obs.Trace{}
		scanned, scanStats, err := Run(g.Input, store, workers, st)
		if err != nil {
			t.Fatal(err)
		}
		over := &GroupBy{Input: &Lit{V: scanned}, Keys: g.Keys, Aggs: g.Aggs}
		want, wantStats, err := Run(over, store, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantStats.Add(scanStats)
		if !reflect.DeepEqual(got.Parts, want.Parts) || len(got.Parts[0]) == 0 && workers == 1 {
			t.Fatalf("%s workers=%d: γ over the scan answers %v, over its rows %v", c.key, workers, got.Parts, want.Parts)
		}
		if gotStats != wantStats {
			t.Fatalf("%s workers=%d: stats %+v, want %+v", c.key, workers, gotStats, wantStats)
		}
		scan, alone := ft.Root.Children[0], st.Root
		if scan.Name != alone.Name || scan.Rows != alone.Rows || scan.Workers != alone.Workers ||
			!reflect.DeepEqual(scan.PerWorker, alone.PerWorker) || !reflect.DeepEqual(scan.PerNode, alone.PerNode) ||
			scan.Cols != alone.Cols || scan.Width != alone.Width || scan.KV != alone.KV {
			t.Fatalf("%s workers=%d: scan span under γ %+v, scan alone %+v", c.key, workers, *scan, *alone)
		}
	}
}

// TestGroupByOverScanAllocatesPerGroup: γ over a scan allocates in
// proportion to the blocks and groups it meets, not the rows — 100 rows
// and 10 000 over the same eight blocks cost the same.
func TestGroupByOverScanAllocatesPerGroup(t *testing.T) {
	var allocs []float64
	for _, rows := range []int{100, 10_000} {
		store := carStore(t, rows)
		p := makeCounts(store, "C.make")
		allocs = append(allocs, testing.AllocsPerRun(10, func() {
			if _, _, err := Run(p, store, 2, nil); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[1] > allocs[0]+8 {
		t.Fatalf("γ over a scan of 100 rows allocates %.0f times, of 10 000 rows %.0f", allocs[0], allocs[1])
	}
}
