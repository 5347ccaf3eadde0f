package kba

import (
	"fmt"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/kv"
	"zidian/internal/ra"
	"zidian/internal/relation"
)

// TestFannedOutExtendMatchesReference: ∝ steps whose input passes inlineRows
// fan out, and each worker decodes the blocks its rows read into a buffer
// of its own, again only when the block changes. At 2 and 4 workers, over
// blocks of many tuples with multiplicities, one-tuple blocks and an index
// whose posting lists span several fragments — keys repeated in runs,
// interleaved, and naming no block — each step answers ra.Eval's multiset,
// with the gets, blocks, data and bytes of its one-worker run; that run
// accounts for each block it reads once.
func TestFannedOutExtendMatchesReference(t *testing.T) {
	const n = 3000
	db := relation.NewDatabase()
	obs := relation.NewRelation(relation.MustSchema("OBS", []relation.Attr{
		{Name: "id", Kind: relation.KindInt}, {Name: "road", Kind: relation.KindInt},
		{Name: "speed", Kind: relation.KindInt}, {Name: "lane", Kind: relation.KindString},
		{Name: "grp", Kind: relation.KindInt},
	}, []string{"id"}))
	for i := range n {
		// 40 roads of 75 observations, 14 distinct (speed, lane) pairs
		// each: a road's block holds them with multiplicities. Group 999
		// holds every tenth observation, 300 keys in three fragments.
		grp := i % 300
		if i%10 == 0 {
			grp = 999
		}
		obs.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 40)),
			relation.Int(int64(i % 7 * 10)), relation.String(fmt.Sprint("lane", i%2)), relation.Int(int64(grp))})
	}
	db.Add(obs)
	// Probe rows n, r: r runs of five over roads 0..49 (40..49 have no
	// block), then interleaved over roads and ids, then group values.
	probe := relation.NewRelation(relation.MustSchema("P", []relation.Attr{
		{Name: "n", Kind: relation.KindInt}, {Name: "r", Kind: relation.KindInt},
	}, nil))
	var roads, ids, grps []relation.Tuple
	for i := range 1200 {
		r := int64(i / 5 % 50)
		if i >= 600 {
			r = int64(i % 45)
		}
		roads = append(roads, relation.Tuple{relation.Int(int64(i)), relation.Int(r)})
		id := int64(i % 3 * 1000)
		if i%4 != 0 {
			id = int64(i*7919%(n+200) - 100) // some below 0 or past n: no block
		}
		ids = append(ids, relation.Tuple{relation.Int(int64(i)), relation.Int(id)})
		g := int64(i % 310)
		if i%50 == 0 {
			g = 999
		}
		grps = append(grps, relation.Tuple{relation.Int(int64(i)), relation.Int(g)})
	}
	for _, row := range roads {
		probe.MustInsert(row)
	}
	db.Add(probe)
	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "OBS_by_road", Rel: "OBS", Key: []string{"road"}, Val: []string{"speed", "lane"}},
		baav.KVSchema{Name: "OBS_by_id", Rel: "OBS", Key: []string{"id"}, Val: []string{"road", "speed", "lane", "grp"}},
	)
	store, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 3), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateIndex("ix_grp", "OBS", "grp", obs.Tuples); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, kv, alias, key string
		width                int // the KV schema's values
		keys                 []relation.Tuple
		sql                  string
	}{
		{"multi-tuple blocks", "OBS_by_road", "O", "road", 2, roads,
			"select P.n, P.r, O.speed, O.lane from P as P, OBS as O where O.road = P.r"},
		{"one-tuple blocks", "OBS_by_id", "O", "id", 4, ids,
			"select P.n, P.r, O.road, O.speed, O.lane, O.grp from P as P, OBS as O where O.id = P.r"},
		{"posting fragments", "ix_grp", "X", "grp", 1, grps,
			"select P.n, P.r, O.id from P as P, OBS as O where O.grp = P.r"},
	}
	for _, c := range cases {
		probe.Tuples = probe.Tuples[:0]
		for _, row := range c.keys {
			probe.MustInsert(row)
		}
		want, err := ra.Evaluate(ra.MustParse(c.sql, db), db)
		if err != nil {
			t.Fatal(err)
		}
		key := c.alias + "." + c.key
		plan := &Extend{Input: &Const{KeyAttrs: []string{"P.n", key}, Keys: c.keys},
			KV: c.kv, Alias: c.alias, KeyFrom: []string{key}}
		_, seq := mustRun(t, store, plan, 1)
		// Each block read counts once: its rows' values and its key.
		pos := obs.Schema.Index(c.key)
		rowsOf := map[int64]int64{}
		for _, o := range obs.Tuples {
			rowsOf[o[pos].Int]++
		}
		var blocks, data int64
		seen := map[int64]bool{}
		for _, k := range c.keys {
			if r := rowsOf[k[1].Int]; r > 0 && !seen[k[1].Int] {
				seen[k[1].Int] = true
				blocks++
				data += r*int64(c.width) + 1
			}
		}
		if seq.Blocks != blocks || seq.DataValues != data || blocks == int64(len(c.keys)) {
			t.Fatalf("%s: %d blocks, %d values read for %d keys; want %d and %d", c.name, seq.Blocks, seq.DataValues, len(c.keys), blocks, data)
		}
		for _, p := range []int{2, 4} {
			out, stats := mustRun(t, store, plan, p)
			got := &ra.Result{Cols: want.Cols, Rows: out.Rows()}
			if !got.Equal(want) {
				t.Fatalf("%s, p=%d: %d rows, ra.Eval %d, or other rows", c.name, p, len(got.Rows), len(want.Rows))
			}
			if stats.Gets != seq.Gets || stats.Blocks != seq.Blocks || stats.DataValues != seq.DataValues || stats.BytesRead != seq.BytesRead {
				t.Fatalf("%s, p=%d: %+v, one worker %+v", c.name, p, stats, seq)
			}
		}
	}
}
