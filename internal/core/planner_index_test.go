package core

import (
	"slices"
	"strings"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/kba"
	"zidian/internal/ra"
	"zidian/internal/relation"
)

// fakeCatalog is a canned IndexCatalog for planner unit tests.
type fakeCatalog struct {
	rel, attr, name string
	key             []string
	avg             int
	entries         int // distinct values; 0 defaults to 100
	// min/max, when both set, are the index's value bounds (nil: no
	// statistics, so the planner keeps the shape-only fractions).
	min, max *relation.Value
}

func (f *fakeCatalog) OnRelation(rel string) []baav.KVSchema {
	if rel != f.rel {
		return nil
	}
	return []baav.KVSchema{*f.KVSchema(f.name)}
}

func (f *fakeCatalog) KVSchema(name string) *baav.KVSchema {
	if name != f.name {
		return nil
	}
	return &baav.KVSchema{Name: f.name, Rel: f.rel, Key: []string{f.attr}, Val: f.key}
}

func (f *fakeCatalog) ValueBounds(string) (relation.Value, relation.Value, bool) {
	if f.min == nil || f.max == nil {
		return relation.Value{}, relation.Value{}, false
	}
	return *f.min, *f.max, true
}

func (f *fakeCatalog) Shape(string) (int, int) {
	n := f.entries
	if n == 0 {
		n = 100
	}
	return n, n * f.avg
}

// fakeStats is a canned PlanStats with a fixed per-instance block count.
type fakeStats struct{ blocks int }

func (f *fakeStats) InstanceBlocks(string) int { return f.blocks }
func (f *fakeStats) RelationRows(string) int   { return f.blocks }
func (f *fakeStats) HasBlockStats() bool       { return false }

// indexFixture: one relation keyed by id, one full KV schema keyed by id —
// so a predicate on attr can only be answered by a scan or an index.
func indexFixture(t *testing.T) (*relation.Database, *Checker) {
	t.Helper()
	db := relation.NewDatabase()
	item := relation.NewRelation(relation.MustSchema("ITEM", []relation.Attr{
		{Name: "id", Kind: relation.KindInt},
		{Name: "sku", Kind: relation.KindString},
		{Name: "qty", Kind: relation.KindInt},
	}, []string{"id"}))
	db.Add(item)
	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "item_full", Rel: "ITEM", Key: []string{"id"}, Val: []string{"sku", "qty"}},
	)
	return db, NewChecker(schema, baav.RelSchemas(db))
}

// indexStep returns the plan's ∝ over a secondary index (named ix_…), or
// nil.
func indexStep(p kba.Plan) *kba.Extend {
	if e, ok := p.(*kba.Extend); ok && strings.HasPrefix(e.KV, "ix_") {
		return e
	}
	for _, c := range p.Children() {
		if e := indexStep(c); e != nil {
			return e
		}
	}
	return nil
}

func TestPlannerPicksIndexLookup(t *testing.T) {
	db, c := indexFixture(t)
	c.WithStats(&fakeStats{blocks: 1000}).
		WithIndexes(&fakeCatalog{rel: "ITEM", attr: "sku", name: "ix_sku", key: []string{"id"}, avg: 4})
	q := ra.MustParse("select I.id, I.qty from ITEM I where I.sku = 'S'", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ScanFree {
		t.Fatalf("index plan not scan-free: %s", info.Root)
	}
	if !slices.Equal(info.Extends, []string{"ix_sku", "item_full"}) {
		t.Fatalf("info.Extends = %v", info.Extends)
	}
	if len(info.Scans) != 0 {
		t.Fatalf("index plan still scans %v", info.Scans)
	}
	// The lookup is one more ∝ step on the constant seed: no leaf of its
	// own, no ⋈ joining it back.
	want := "π[I.id,I.qty](σ[I.sku=S](((const[$const.I.sku=(S)] ∝ ix_sku on $const.I.sku as I) ∝ item_full on I.id as I)))"
	if got := info.Root.String(); got != want {
		t.Fatalf("plan = %s\nwant   %s", got, want)
	}
}

// TestPlannerIndexCost: with a tiny instance the 4× get-vs-scan-step ratio
// makes the scan cheaper, so the planner must not take the index.
func TestPlannerIndexCost(t *testing.T) {
	db, c := indexFixture(t)
	c.WithStats(&fakeStats{blocks: 8}).
		WithIndexes(&fakeCatalog{rel: "ITEM", attr: "sku", name: "ix_sku", key: []string{"id"}, avg: 4})
	q := ra.MustParse("select I.id, I.qty from ITEM I where I.sku = 'S'", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if indexStep(info.Root) != nil {
		t.Fatalf("planner took the index over a cheaper scan: %s", info.Root)
	}
	if len(info.Scans) != 1 {
		t.Fatalf("expected a scan plan, got %s", info.Root)
	}
}

// TestPlannerIndexIN: an IN list becomes one ∝ over the index from a seed
// of all its values.
func TestPlannerIndexIN(t *testing.T) {
	db, c := indexFixture(t)
	c.WithStats(&fakeStats{blocks: 1000}).
		WithIndexes(&fakeCatalog{rel: "ITEM", attr: "sku", name: "ix_sku", key: []string{"id"}, avg: 4})
	q := ra.MustParse("select I.id from ITEM I where I.sku in ('A', 'B', 'C')", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	lk := indexStep(info.Root)
	if lk == nil {
		t.Fatalf("no ∝ over the index in %s", info.Root)
	}
	if seed, ok := lk.Input.(*kba.Const); !ok || len(seed.Keys) != 3 {
		t.Fatalf("lookup input = %s", lk.Input)
	}
}

// TestPlannerIndexWithoutCatalog: no catalog, no index path — the fallback
// scan must still work.
func TestPlannerIndexWithoutCatalog(t *testing.T) {
	db, c := indexFixture(t)
	c.WithStats(&fakeStats{blocks: 1000})
	q := ra.MustParse("select I.id from ITEM I where I.sku = 'S'", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if indexStep(info.Root) != nil {
		t.Fatal("index lookup planned without a catalog")
	}
	if len(info.Scans) != 1 {
		t.Fatalf("expected scan fallback, got %s", info.Root)
	}
}

// TestPlannerIndexAnchorRequired: the index is only usable when a KV schema
// keyed by the posted block keys covers the atom; here the posted key does
// not match any schema, so the planner must fall back to the scan.
func TestPlannerIndexAnchorRequired(t *testing.T) {
	db, c := indexFixture(t)
	c.WithStats(&fakeStats{blocks: 1000}).
		WithIndexes(&fakeCatalog{rel: "ITEM", attr: "sku", name: "ix_sku", key: []string{"id", "qty"}, avg: 4})
	q := ra.MustParse("select I.id from ITEM I where I.sku = 'S'", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if indexStep(info.Root) != nil {
		t.Fatalf("index lookup planned without a matching anchor schema: %s", info.Root)
	}
}

// TestPlannerIndexJoin: the index seeds one atom of a join; the other atom
// still anchors through its keyed schema, keeping the whole plan scan-free.
func TestPlannerIndexJoin(t *testing.T) {
	db := relation.NewDatabase()
	item := relation.NewRelation(relation.MustSchema("ITEM", []relation.Attr{
		{Name: "id", Kind: relation.KindInt},
		{Name: "sku", Kind: relation.KindString},
	}, []string{"id"}))
	db.Add(item)
	stock := relation.NewRelation(relation.MustSchema("STOCK", []relation.Attr{
		{Name: "sid", Kind: relation.KindInt},
		{Name: "item_id", Kind: relation.KindInt},
		{Name: "qty", Kind: relation.KindInt},
	}, []string{"sid"}))
	db.Add(stock)
	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "item_full", Rel: "ITEM", Key: []string{"id"}, Val: []string{"sku"}},
		baav.KVSchema{Name: "stock_by_item", Rel: "STOCK", Key: []string{"item_id"}, Val: []string{"sid", "qty"}},
	)
	c := NewChecker(schema, baav.RelSchemas(db)).
		WithStats(&fakeStats{blocks: 1000}).
		WithIndexes(&fakeCatalog{rel: "ITEM", attr: "sku", name: "ix_sku", key: []string{"id"}, avg: 2})
	q := ra.MustParse(
		"select S.sid, S.qty from ITEM I, STOCK S where I.sku = 'S' and S.item_id = I.id", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if indexStep(info.Root) == nil {
		t.Fatalf("join plan has no index lookup: %s", info.Root)
	}
	if !info.ScanFree || len(info.Scans) != 0 {
		t.Fatalf("join plan not scan-free: %s (scans %v)", info.Root, info.Scans)
	}
}
