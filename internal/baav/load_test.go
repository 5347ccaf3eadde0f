package baav

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"zidian/internal/kv"
	"zidian/internal/relation"
)

// loadTestOpts segment every block of more than 16 distinct tuples.
var loadTestOpts = Options{SegmentThreshold: 16, Compress: true, Stats: true}

// loadTestDB is a database whose instances, under loadTestOpts, hold every
// kind of block the loader writes: one-tuple blocks (ORDERS_by_id),
// compressed long blocks of repeated tuples (ORDERS_by_region, past
// hashDedupMin distinct tuples, with numbers stored as Int and as Float),
// segmented blocks (ORDERS_by_item, LINE_by_order), and a relation with no
// block of more than a tuple (ITEM_by_id).
func loadTestDB() (*relation.Database, *Schema) {
	db := relation.NewDatabase()
	orders := relation.NewRelation(relation.MustSchema("ORDERS", []relation.Attr{
		{Name: "id", Kind: relation.KindInt}, {Name: "region", Kind: relation.KindString},
		{Name: "item", Kind: relation.KindInt}, {Name: "qty", Kind: relation.KindFloat},
	}, []string{"id"}))
	for i := range 3000 {
		qty := relation.Float(float64(i % 40))
		if i%3 == 0 {
			qty = relation.Int(int64(i % 40))
		}
		orders.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.String("R" + strconv.Itoa(i%7)),
			relation.Int(int64(i % 90)), qty})
	}
	db.Add(orders)
	line := relation.NewRelation(relation.MustSchema("LINE", []relation.Attr{
		{Name: "order", Kind: relation.KindInt}, {Name: "no", Kind: relation.KindInt},
	}, []string{"order", "no"}))
	for o := range 50 {
		for n := range 1 + o%40 {
			line.MustInsert(relation.Tuple{relation.Int(int64(o)), relation.Int(int64(n))})
		}
	}
	db.Add(line)
	item := relation.NewRelation(relation.MustSchema("ITEM", []relation.Attr{
		{Name: "id", Kind: relation.KindInt}, {Name: "name", Kind: relation.KindString},
	}, []string{"id"}))
	for i := range 90 {
		item.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.String(fmt.Sprintf("item-%d", i))})
	}
	db.Add(item)
	schema := MustSchema(RelSchemas(db),
		KVSchema{Name: "ORDERS_by_id", Rel: "ORDERS", Key: []string{"id"}, Val: []string{"region", "item", "qty"}},
		KVSchema{Name: "ORDERS_by_region", Rel: "ORDERS", Key: []string{"region"}, Val: []string{"qty"}},
		KVSchema{Name: "ORDERS_by_item", Rel: "ORDERS", Key: []string{"item"}, Val: []string{"qty", "id"}},
		KVSchema{Name: "LINE_by_order", Rel: "LINE", Key: []string{"order"}, Val: []string{"no"}},
		KVSchema{Name: "ITEM_by_id", Rel: "ITEM", Key: []string{"id"}, Val: []string{"name"}},
	)
	return db, schema
}

// loadSequential builds the store of db the way Map does with one loader,
// taking the instances in schema order.
func loadSequential(t *testing.T, db *relation.Database, schema *Schema, cluster *kv.Cluster, opts Options) *Store {
	st := NewStore(schema, RelSchemas(db), cluster, opts)
	jobs, err := st.loadJobs(db)
	if err != nil {
		t.Fatal(err)
	}
	ld := newLoader()
	for i := range jobs {
		ld.load(st, &jobs[i])
	}
	return st
}

// nodePairs returns every node's (key, value) pairs in scan order.
func nodePairs(c *kv.Cluster) [][][2]string {
	out := make([][][2]string, c.NodeCount())
	for ni := range out {
		c.ScanNode(ni, nil, func(k, v []byte) bool {
			out[ni] = append(out[ni], [2]string{string(k), string(v)})
			return true
		})
	}
	return out
}

// checkLoadFilters checks that every block stored as loaded — segment 0 of
// a block no version directory lists — passes its instance's load filter,
// and returns how many blocks the directories list and how many carry
// multiplicities.
func checkLoadFilters(t *testing.T, st *Store) (listed, counted int) {
	names := make(map[uint32]string)
	for name, id := range st.ids {
		names[id] = name
	}
	m := st.mvcc
	for ni := range st.Cluster.NodeCount() {
		st.Cluster.ScanNode(ni, nil, func(k, v []byte) bool {
			prefix, seg := k[:len(k)-12], k[len(k)-12:len(k)-8]
			if !bytes.Equal(seg, []byte{0, 0, 0, 0}) {
				return true
			}
			if v[0]&flagCounts != 0 {
				counted++
			}
			name := names[uint32(prefix[0])<<24|uint32(prefix[1])<<16|uint32(prefix[2])<<8|uint32(prefix[3])]
			in := m.insts[name]
			if in.dir != nil {
				if _, ok, _ := in.dir.winner(prefix, 0); ok {
					listed++
					return true
				}
			}
			if !in.loaded.has(maphash.Bytes(m.seed, prefix)) {
				t.Errorf("%s: loaded block %x fails the load filter", name, prefix)
			}
			return true
		})
	}
	return listed, counted
}

// TestMapParallelMatchesSequential: Map, its instances spread over several
// loaders, stores on every engine and node count what one loader taking the
// instances one by one stores — every node's pairs in order, each
// instance's block count and degree, the version directories and live
// versions — and every loaded block passes its instance's load filter.
func TestMapParallelMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db, schema := loadTestDB()
	for _, kind := range []kv.EngineKind{kv.EngineHash, kv.EngineLSM, kv.EngineSorted} {
		for _, nodes := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/nodes=%d", kind, nodes), func(t *testing.T) {
				par, err := Map(db, schema, kv.NewCluster(kind, nodes), loadTestOpts)
				if err != nil {
					t.Fatal(err)
				}
				seq := loadSequential(t, db, schema, kv.NewCluster(kind, nodes), loadTestOpts)
				parPairs, seqPairs := nodePairs(par.Cluster), nodePairs(seq.Cluster)
				for ni := range parPairs {
					if !slices.Equal(parPairs[ni], seqPairs[ni]) {
						t.Errorf("node %d: %d pairs loaded in parallel differ from %d loaded in sequence", ni, len(parPairs[ni]), len(seqPairs[ni]))
					}
				}
				for _, name := range schema.Names() {
					if p, s := par.InstanceBlocks(name), seq.InstanceBlocks(name); p != s {
						t.Errorf("%s: %d blocks, in sequence %d", name, p, s)
					}
					if p, s := par.Degree(name), seq.Degree(name); p != s {
						t.Errorf("%s: degree %d, in sequence %d", name, p, s)
					}
				}
				if p, s := par.Directory(), seq.Directory(); p != s {
					t.Errorf("directory %+v, in sequence %+v", p, s)
				}
				if p, s := par.VersionsLive(), seq.VersionsLive(); p != s {
					t.Errorf("%d live versions, in sequence %d", p, s)
				}
				listed, counted := checkLoadFilters(t, par)
				checkLoadFilters(t, seq)
				if listed == 0 || counted == 0 {
					t.Fatalf("the database loads %d segmented and %d compressed blocks: want some of each", listed, counted)
				}
			})
		}
	}
}

// TestMapMissingRelationLoadsNothing: a KV schema over a relation the
// database lacks fails Map before any loader starts, though it comes after
// instances Map could load.
func TestMapMissingRelationLoadsNothing(t *testing.T) {
	db, schema := loadTestDB()
	partial := relation.NewDatabase()
	partial.Add(db.Relation("ORDERS"))
	partial.Add(db.Relation("LINE"))
	cluster := kv.NewCluster(kv.EngineHash, 4)
	if _, err := Map(partial, schema, cluster, loadTestOpts); err == nil {
		t.Fatal("Map over a database without ITEM succeeded")
	}
	if n, puts := cluster.Len(), cluster.Metrics().Puts; n != 0 || puts != 0 {
		t.Fatalf("the failed Map stored %d pairs in %d puts", n, puts)
	}
}

// dedupCase generates the value tuples one block of a loader receives: n
// distinct tuples, each followed at random by repeats of earlier ones, and
// then as many repeats again. A repeat spells its numbers afresh — an
// integral number as Int or Float, zero as Int, +0 or −0 — so a dedup that
// tells the spellings apart stores it twice.
type dedupCase struct {
	name string
	n    int
	nan  bool // some tuples hold NaN, which equals every number
	big  bool // numbers beyond ±2⁵³, where two Ints can equal one Float
}

func (c dedupCase) rows(rng *rand.Rand) []relation.Tuple {
	num := func(i int) relation.Value {
		x := int64(i)
		if c.big {
			x += 1 << 60
		}
		switch {
		case c.nan && rng.Intn(50) == 0:
			return relation.Float(math.NaN())
		case x == 0 && rng.Intn(3) == 0:
			return relation.Float(math.Copysign(0, -1))
		case rng.Intn(2) == 0:
			return relation.Float(float64(x))
		}
		return relation.Int(x)
	}
	tuple := func(i int) relation.Tuple {
		// A number unique to i, a string, a number shared across tuples
		// and the key column.
		return relation.Tuple{num(i), relation.String("s" + strconv.Itoa(i%13)), num(i % 11), relation.Int(7)}
	}
	var out []relation.Tuple
	for i := range c.n {
		out = append(out, tuple(i))
		for rng.Intn(2) == 0 {
			out = append(out, tuple(rng.Intn(i+1)))
		}
	}
	for range c.n {
		out = append(out, tuple(rng.Intn(c.n)))
	}
	return out
}

// sameValue reports whether a and b are the same value, spelling included.
func sameValue(a, b relation.Value) bool {
	return a.Kind == b.Kind && a.Int == b.Int && math.Float64bits(a.Flt) == math.Float64bits(b.Flt) && a.Str == b.Str
}

// TestLoaderBlockDedupMatchesAdd: the loader's compressed block — a scan
// below hashDedupMin distinct tuples, a hash table from there — holds the
// tuples Block.Add(t, true) keeps over the same rows, spelled as first
// seen, in the same order with the same multiplicities, at and around the
// threshold and far past it, whatever spelling each number arrives in.
func TestLoaderBlockDedupMatchesAdd(t *testing.T) {
	cases := []dedupCase{
		{name: "one", n: 1},
		{name: "below", n: hashDedupMin - 1},
		{name: "at", n: hashDedupMin},
		{name: "above", n: hashDedupMin + 1},
		{name: "many", n: 5000},
		{name: "nan", n: 200, nan: true},
		{name: "big", n: 200, big: true},
	}
	ld := newLoader()
	valPos := []int{2, 0, 1}
	for seed := range int64(2) {
		for _, c := range cases {
			if seed > 0 && c.n > 1000 {
				continue // one draw of the long case is enough, and it is slow
			}
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				rows := c.rows(rand.New(rand.NewSource(seed)))
				var want Block
				for _, r := range rows {
					tup := make(relation.Tuple, len(valPos))
					for i, p := range valPos {
						tup[i] = r[p]
					}
					want.Add(tup, true)
				}
				ld.group(1, rows, []int{3})
				got := ld.block(rows, ld.groups[0].first, valPos, true)
				if len(got.Tuples) != len(want.Tuples) {
					t.Fatalf("%d rows: %d distinct tuples, Block.Add keeps %d", len(rows), len(got.Tuples), len(want.Tuples))
				}
				for i, tup := range got.Tuples {
					if !slices.EqualFunc(tup, want.Tuples[i], sameValue) {
						t.Fatalf("tuple %d is %v, Block.Add keeps %v", i, tup, want.Tuples[i])
					}
				}
				if !slices.Equal(got.Counts, want.Counts) {
					t.Fatalf("multiplicities %v, Block.Add keeps %v", got.Counts, want.Counts)
				}
			})
		}
	}
}

// TestLoaderBlockDedupFirstOfEqual: past hashDedupMin, a number equal to
// several stored tuples counts toward the first of them, as Block.Add's
// scan does, even after the table has grown. Ints beyond 2⁵³ that differ
// all equal the Float they round to and share its hash; the base is chosen
// so that their probe sequence wraps round the end of the table before it
// grows, which moves the later Ints ahead of the earlier ones.
func TestLoaderBlockDedupFirstOfEqual(t *testing.T) {
	ld := newLoader()
	base := int64(1 << 60) // float64 steps by 256 here: base+k rounds to base for k < 128
	for ; ; base += 512 {
		if h, _ := hashTuple(ld.seed, relation.Tuple{relation.Float(float64(base))}); h&63 >= 40 {
			break
		}
	}
	var rows []relation.Tuple
	for k := range int64(60) {
		rows = append(rows, relation.Tuple{relation.Int(0), relation.Int(base + k)})
	}
	rows = append(rows, relation.Tuple{relation.Int(0), relation.Float(float64(base))})
	var want Block
	for _, r := range rows {
		want.Add(r[1:], true)
	}
	ld.group(1, rows, []int{0})
	got := ld.block(rows, ld.groups[0].first, []int{1}, true)
	if !slices.Equal(got.Counts, want.Counts) || len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%d tuples with multiplicities %v, Block.Add keeps %d with %v", len(got.Tuples), got.Counts, len(want.Tuples), want.Counts)
	}
}
