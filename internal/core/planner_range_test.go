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

func findIndexRange(p kba.Plan) *kba.IndexRange {
	if n, ok := p.(*kba.IndexRange); ok {
		return n
	}
	for _, c := range p.Children() {
		if r := findIndexRange(c); r != nil {
			return r
		}
	}
	return nil
}

// rangeCatalog: 1000 blocks, 250 distinct values × 4 postings — selective
// enough that a two-sided range beats the scan (matched ≈ 250/8 = 32,
// probes ≈ 32×5 = 160, 4×160 = 640 < 1000).
func rangeFixture(t *testing.T) (*Checker, *fakeCatalog) {
	t.Helper()
	_, c := indexFixture(t)
	cat := &fakeCatalog{rel: "ITEM", attr: "sku", name: "ix_sku", key: []string{"id"}, avg: 4, entries: 250}
	c.WithStats(&fakeStats{blocks: 1000}).WithIndexes(cat)
	return c, cat
}

func TestPlannerPicksIndexRange(t *testing.T) {
	c, _ := rangeFixture(t)
	db, _ := indexFixture(t)
	q := ra.MustParse("select I.id, I.qty from ITEM I where I.sku between 'A' and 'B'", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	r := findIndexRange(info.Root)
	if r == nil {
		t.Fatalf("plan has no IndexRange: %s", info.Root)
	}
	if r.Lo == nil || r.Hi == nil || !r.LoIncl || !r.HiIncl {
		t.Fatalf("BETWEEN must become a closed two-sided range: %s", r)
	}
	if r.Lo.Lit.Str != "A" || r.Hi.Lit.Str != "B" {
		t.Fatalf("bounds = %s", r)
	}
	if info.ScanFree {
		t.Fatalf("range plan claimed scan-free (the posting walk is a bounded scan): %s", info.Root)
	}
	if len(info.Scans) != 0 {
		t.Fatalf("range plan still scans an instance: %v", info.Scans)
	}
	if len(info.Ranges) != 1 || info.Ranges[0] != "ix_sku" {
		t.Fatalf("info.Ranges = %v", info.Ranges)
	}
	// The residual selection must re-verify the range predicate.
	if !strings.Contains(info.Root.String(), "I.sku>=") || !strings.Contains(info.Root.String(), "I.sku<=") {
		t.Fatalf("residual range predicates missing: %s", info.Root)
	}
}

// TestPlannerRangeOpenBounds: strict comparisons keep their open ends.
func TestPlannerRangeOpenBounds(t *testing.T) {
	c, _ := rangeFixture(t)
	db, _ := indexFixture(t)
	q := ra.MustParse("select I.id from ITEM I where I.sku > 'A' and I.sku < 'B'", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	r := findIndexRange(info.Root)
	if r == nil {
		t.Fatalf("no IndexRange: %s", info.Root)
	}
	if r.LoIncl || r.HiIncl {
		t.Fatalf("strict bounds must stay open: %s", r)
	}
}

// TestPlannerRangeTightensLiteralBounds: redundant literal conjuncts
// collapse to the strictest pair.
func TestPlannerRangeTightensLiteralBounds(t *testing.T) {
	c, _ := rangeFixture(t)
	db, _ := indexFixture(t)
	q := ra.MustParse(
		"select I.id from ITEM I where I.sku >= 'A' and I.sku > 'C' and I.sku <= 'Z' and I.sku < 'X'", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	r := findIndexRange(info.Root)
	if r == nil {
		t.Fatalf("no IndexRange: %s", info.Root)
	}
	if r.Lo.Lit.Str != "C" || r.LoIncl {
		t.Fatalf("lower bound not tightened: %s", r)
	}
	if r.Hi.Lit.Str != "X" || r.HiIncl {
		t.Fatalf("upper bound not tightened: %s", r)
	}
}

// TestPlannerRangeTemplate: `?` bounds keep the same access path as
// literals (shape-only decision) and carry slot args for Bind.
func TestPlannerRangeTemplate(t *testing.T) {
	c, _ := rangeFixture(t)
	db, _ := indexFixture(t)
	q := ra.MustParse("select I.id from ITEM I where I.sku between ? and ?", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	r := findIndexRange(info.Root)
	if r == nil {
		t.Fatalf("template plan has no IndexRange: %s", info.Root)
	}
	if r.Lo == nil || !r.Lo.IsSlot || r.Lo.Slot != 0 || r.Hi == nil || !r.Hi.IsSlot || r.Hi.Slot != 1 {
		t.Fatalf("template bounds = %s", r)
	}
	if !kba.HasParams(info.Root) {
		t.Fatal("template not reported as parameterized")
	}
	bound, err := info.Bind([]relation.Value{relation.String("A"), relation.String("B")})
	if err != nil {
		t.Fatal(err)
	}
	br := findIndexRange(bound.Root)
	if br.Lo.IsSlot || br.Hi.IsSlot || br.Lo.Lit.Str != "A" || br.Hi.Lit.Str != "B" {
		t.Fatalf("bound range = %s", br)
	}
	if kba.HasParams(bound.Root) {
		t.Fatal("bound plan still parameterized")
	}
	// One-sided template.
	q2 := ra.MustParse("select I.id from ITEM I where I.sku >= ?", db)
	info2, err := c.Plan(q2)
	if err != nil {
		t.Fatal(err)
	}
	// One-sided ranges on this shape lose to the scan (matched ≈ 1/3 of the
	// entries); the plan must fall back without error.
	if findIndexRange(info2.Root) != nil {
		t.Fatalf("one-sided range took the index against the cost model: %s", info2.Root)
	}
	if len(info2.Scans) != 1 {
		t.Fatalf("expected scan fallback: %s", info2.Root)
	}
}

// TestPlannerRangeValueBounds: with min/max statistics, literal bounds
// interpolate — a narrow slice of the domain beats the scan where the
// shape-only guess refused it, a window outside the domain estimates zero,
// and slot bounds keep the shape fractions (template discipline).
func TestPlannerRangeValueBounds(t *testing.T) {
	db, _ := indexFixture(t)
	newChecker := func(min, max *relation.Value) *Checker {
		_, c := indexFixture(t)
		c.WithStats(&fakeStats{blocks: 1000}).
			WithIndexes(&fakeCatalog{rel: "ITEM", attr: "qty", name: "ix_qty",
				key: []string{"id"}, avg: 4, entries: 250, min: min, max: max})
		return c
	}
	lo, hi := relation.Int(0), relation.Int(999)

	// Shape-only 1/3: matched 84, probes 420, 4×420 > 1000 → scan.
	q := ra.MustParse("select I.id from ITEM I where I.qty >= 990", db)
	info, err := newChecker(nil, nil).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if findIndexRange(info.Root) != nil {
		t.Fatalf("one-sided range took the walk without statistics: %s", info.Root)
	}
	// Interpolated: (999−990)/999 of 250 entries ≈ 3 lists → walk wins.
	info, err = newChecker(&lo, &hi).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if findIndexRange(info.Root) == nil {
		t.Fatalf("selective one-sided literal range still scans with min/max: %s", info.Root)
	}
	// Unselective stays a scan even with statistics.
	q2 := ra.MustParse("select I.id from ITEM I where I.qty >= 100", db)
	info, err = newChecker(&lo, &hi).Plan(q2)
	if err != nil {
		t.Fatal(err)
	}
	if findIndexRange(info.Root) != nil {
		t.Fatalf("unselective range took the walk: %s", info.Root)
	}
	// A window past the domain estimates zero matched lists → walk wins.
	q3 := ra.MustParse("select I.id from ITEM I where I.qty between 2000 and 3000", db)
	info, err = newChecker(&lo, &hi).Plan(q3)
	if err != nil {
		t.Fatal(err)
	}
	if findIndexRange(info.Root) == nil {
		t.Fatalf("out-of-domain window scanned instead of walking nothing: %s", info.Root)
	}
	// Slot bounds must plan like the stat-less case.
	q4 := ra.MustParse("select I.id from ITEM I where I.qty >= ?", db)
	info, err = newChecker(&lo, &hi).Plan(q4)
	if err != nil {
		t.Fatal(err)
	}
	if findIndexRange(info.Root) != nil {
		t.Fatalf("`?` bound planned value-dependently: %s", info.Root)
	}
}

// TestPlannerRangeLimitPushdown: the qualifying shape carries the query's
// LIMIT into the IndexRange leaf — as a literal or a slot — and
// disqualifying shapes do not.
func TestPlannerRangeLimitPushdown(t *testing.T) {
	c, _ := rangeFixture(t)
	db, _ := indexFixture(t)
	q := ra.MustParse("select I.id from ITEM I where I.sku between 'A' and 'B' limit 5", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	r := findIndexRange(info.Root)
	if r == nil || r.Limit == nil || r.Limit.IsSlot || r.Limit.Lit.Int != 5 {
		t.Fatalf("LIMIT 5 not pushed into the walk: %s", info.Root)
	}
	q2 := ra.MustParse("select I.id from ITEM I where I.sku between ? and ? limit ?", db)
	info, err = c.Plan(q2)
	if err != nil {
		t.Fatal(err)
	}
	r = findIndexRange(info.Root)
	if r == nil || r.Limit == nil || !r.Limit.IsSlot || r.Limit.Slot != 2 {
		t.Fatalf("LIMIT ? not pushed as a slot: %s", info.Root)
	}
	bound, err := info.Bind([]relation.Value{relation.String("A"), relation.String("B"), relation.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	br := findIndexRange(bound.Root)
	if br.Limit == nil || br.Limit.IsSlot || br.Limit.Lit.Int != 7 {
		t.Fatalf("bound limit = %s", bound.Root)
	}
	// An extra predicate on another attribute can drop walked postings.
	q3 := ra.MustParse("select I.id from ITEM I where I.sku between 'A' and 'B' and I.qty > 3 limit 5", db)
	info, err = c.Plan(q3)
	if err != nil {
		t.Fatal(err)
	}
	if r := findIndexRange(info.Root); r != nil && r.Limit != nil {
		t.Fatalf("limit pushed despite a residual predicate: %s", info.Root)
	}
	// A slot conjunct the literal bound merge dropped stays residual and
	// can be stricter than the walk's fence; stopping at the limit would
	// discard rows the residual admits later in the range (regression: the
	// exactness check used to consider only the surviving bound).
	q4 := ra.MustParse("select I.id from ITEM I where I.sku >= 'A' and I.sku <= 'B' and I.sku >= ? limit 2", db)
	info, err = c.Plan(q4)
	if err != nil {
		t.Fatal(err)
	}
	if r := findIndexRange(info.Root); r != nil && r.Limit != nil {
		t.Fatalf("limit pushed despite an unenforced slot conjunct: %s", info.Root)
	}
}

// TestPlanInfoRelations: every plan records the sorted base-relation set
// its execution reads — the serving layer's lock set.
func TestPlanInfoRelations(t *testing.T) {
	c, _ := rangeFixture(t)
	db, _ := indexFixture(t)
	q := ra.MustParse("select I.id from ITEM I where I.sku between 'A' and 'B'", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Relations) != 1 || info.Relations[0] != "ITEM" {
		t.Fatalf("Relations = %v, want [ITEM]", info.Relations)
	}
}

// TestPlannerRangeCost: a small instance or a wide range keeps the scan.
func TestPlannerRangeCost(t *testing.T) {
	db, _ := indexFixture(t)
	_, c := indexFixture(t)
	// Tiny instance: matched ≈ 16/8 = 2 lists → probes = 2×(1+4) = 10, and
	// 4×10 = 40 > 30 blocks, so the 4× ratio favours the scan.
	c.WithStats(&fakeStats{blocks: 30}).
		WithIndexes(&fakeCatalog{rel: "ITEM", attr: "sku", name: "ix_sku", key: []string{"id"}, avg: 4, entries: 16})
	q := ra.MustParse("select I.id from ITEM I where I.sku between 'A' and 'B'", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if findIndexRange(info.Root) != nil {
		t.Fatalf("range path taken against the cost model: %s", info.Root)
	}
	if len(info.Scans) != 1 {
		t.Fatalf("expected scan plan: %s", info.Root)
	}
}

// TestPlannerRangeNeedsAnchor: without a pk-keyed covering schema for the
// posted block keys the range path is unusable.
func TestPlannerRangeNeedsAnchor(t *testing.T) {
	db, _ := indexFixture(t)
	_, c := indexFixture(t)
	c.WithStats(&fakeStats{blocks: 1000}).
		WithIndexes(&fakeCatalog{rel: "ITEM", attr: "sku", name: "ix_sku", key: []string{"id", "qty"}, avg: 4, entries: 250})
	q := ra.MustParse("select I.id from ITEM I where I.sku between 'A' and 'B'", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if findIndexRange(info.Root) != nil {
		t.Fatalf("IndexRange planned without a matching anchor schema: %s", info.Root)
	}
}

// TestPlannerRangeEqualityWins: an equality pin on the same attribute keeps
// the lookup path, a ∝ over the index; the range conjunct stays residual.
func TestPlannerRangeEqualityWins(t *testing.T) {
	c, _ := rangeFixture(t)
	db, _ := indexFixture(t)
	q := ra.MustParse("select I.id from ITEM I where I.sku = 'A' and I.sku <= 'B'", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if findIndexRange(info.Root) != nil {
		t.Fatalf("range path taken over the equality lookup: %s", info.Root)
	}
	if indexStep(info.Root) == nil {
		t.Fatalf("equality pin lost the lookup path: %s", info.Root)
	}
}

// catalogs serves several fakeCatalog indexes, each under its own name.
type catalogs []*fakeCatalog

func (cs catalogs) of(name string) *fakeCatalog {
	for _, c := range cs {
		if c.name == name {
			return c
		}
	}
	return &fakeCatalog{}
}

func (cs catalogs) OnRelation(rel string) []baav.KVSchema {
	var out []baav.KVSchema
	for _, c := range cs {
		out = append(out, c.OnRelation(rel)...)
	}
	return out
}

func (cs catalogs) Shape(name string) (int, int) { return cs.of(name).Shape(name) }

func (cs catalogs) KVSchema(name string) *baav.KVSchema { return cs.of(name).KVSchema(name) }

func (cs catalogs) ValueBounds(name string) (relation.Value, relation.Value, bool) {
	return cs.of(name).ValueBounds(name)
}

// TestPlannerLookupSeedsBeforeRange: with an equality-indexed atom and a
// range-indexed atom in one query, the equality pass runs over every atom
// before the range pass, so the lookup extends the plan's first fragment,
// the constant seed, even though the ranged atom comes first in the FROM
// list.
func TestPlannerLookupSeedsBeforeRange(t *testing.T) {
	db, c := indexFixture(t)
	c.WithStats(&fakeStats{blocks: 1000}).WithIndexes(catalogs{
		{rel: "ITEM", attr: "sku", name: "ix_sku", key: []string{"id"}, avg: 4, entries: 250},
		{rel: "ITEM", attr: "qty", name: "ix_qty", key: []string{"id"}, avg: 4},
	})
	q := ra.MustParse("select I.id, J.id from ITEM I, ITEM J where I.sku between 'A' and 'B' and J.qty = 5", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []string
	var walk func(p kba.Plan)
	walk = func(p kba.Plan) {
		switch n := p.(type) {
		case *kba.Extend:
			if strings.HasPrefix(n.KV, "ix_") {
				leaves = append(leaves, "lookup "+n.Alias)
			}
		case *kba.IndexRange:
			leaves = append(leaves, "range "+n.Alias)
		}
		for _, ch := range p.Children() {
			walk(ch)
		}
	}
	walk(info.Root)
	if want := []string{"lookup J", "range I"}; !slices.Equal(leaves, want) {
		t.Fatalf("index leaves %v, want %v: %s", leaves, want, info.Root)
	}
	if !slices.Equal(info.Extends, []string{"ix_qty", "item_full", "item_full"}) || !slices.Equal(info.Ranges, []string{"ix_sku"}) || len(info.Scans) != 0 {
		t.Fatalf("extends %v, ranges %v, scans %v: %s", info.Extends, info.Ranges, info.Scans, info.Root)
	}
	const want = "π[I.id,J.id](σ[J.qty=5∧I.sku>=A∧I.sku<=B]((((const[$const.J.qty=(5)] ∝ ix_qty on $const.J.qty as J) ∝ item_full on J.id as J) " +
		"⋈[] (IndexRange[ix_sku∈[A, B] as I] ∝ item_full on I.id as I))))"
	if got := info.Root.String(); got != want {
		t.Fatalf("plan\n%s\nwant\n%s", got, want)
	}
}
