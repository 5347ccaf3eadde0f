package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"zidian/internal/relation"
)

// The statement generator. Everything the server sees — SQL text and
// parameters — is produced here from the workload definition, the seed and
// the stream index; the server receives only the generated statements.

// Template is one statement shape. SQL carries `?` placeholders; the
// literal workloads inline the drawn values into the text instead.
type Template struct {
	Name   string
	SQL    string
	Weight int
	// Draw produces the template's parameters for one statement.
	Draw func(g *Gen) []any
	// Limit marks a LIMIT without ORDER BY: the answer is any Limit rows of
	// the unlimited answer, which is how the correctness gate checks it.
	Limit int
}

// Workload is one traffic mix.
type Workload struct {
	Name string
	// Indexes are created (CREATE INDEX) before the server starts.
	Indexes []string
	Reads   []Template
	// Inline puts the drawn values into the SQL text instead of sending
	// them as parameters, so every distinct binding is a distinct statement
	// text to the server's plan cache.
	Inline bool
	// ZipfKeys draws vehicle ids Zipf(1.1) through the hot-key permutation;
	// otherwise ids are uniform.
	ZipfKeys bool
	// WritePct is the share of statements that are writes (0 or 20).
	WritePct int
	// ReplayN is the traced pass's statement count.
	ReplayN int
}

// Stmt is one generated statement.
type Stmt struct {
	Template string
	SQL      string
	Params   []any
	// Write statements go through the exec op; Rel is the written relation,
	// Delta +1 for an INSERT and -1 for a DELETE, UserBytes the encoded size
	// of an inserted tuple.
	Write     bool
	Rel       string
	Delta     int
	UserBytes int
}

const (
	zipfS = 1.1
	// permSeed fixes which vehicle ids are hot. The permutation is part of
	// the workload definition, not of the run: with it fixed, two seeds draw
	// different statement sequences over the same hot set, so per-statement
	// byte counts compare across seeds.
	permSeed = 20190923
	// writeBase keeps generated ids clear of the loaded data; each stream
	// owns a 2^24 id range above it.
	writeBase   = int64(1) << 32
	streamShift = 24
	// deletePct is the share of writes that delete an id the same stream
	// inserted earlier.
	deletePct = 30
)

// Gen is one deterministic statement stream: the same (workload, seed,
// stream, nVehicles) always yields the same statements.
type Gen struct {
	w         *Workload
	r         *rand.Rand
	zipf      *rand.Zipf
	perm      []int32
	nVehicles int
	stream    int
	nextID    int64
	// cycle lists the read templates, each as often as its weight, in an
	// order drawn once per stream; reads walk it round and round. n counts
	// the statements drawn and writeSlot offsets the stream's evenly spaced
	// writes. Both shares are therefore exact over a cycle: how many scans
	// or writes a window holds does not depend on the seed, only their
	// parameters and order do.
	cycle     []int
	reads     int
	n         int
	writeSlot int
	// live holds, per write relation, the ids this stream inserted and has
	// not deleted.
	live [3][]int64
}

// NewGen returns stream number `stream` of the workload's statement
// sequence for the seed. Streams are independent: the load loop gives each
// connection its own, the traced pass takes ones the load loop never used.
func NewGen(w *Workload, seed int64, stream, nVehicles int) *Gen {
	g := &Gen{
		w:         w,
		r:         rand.New(rand.NewSource(seed*1000003 + int64(stream)*7919 + 1)),
		nVehicles: nVehicles,
		stream:    stream,
	}
	for i, t := range w.Reads {
		for k := 0; k < t.Weight; k++ {
			g.cycle = append(g.cycle, i)
		}
	}
	g.r.Shuffle(len(g.cycle), func(i, j int) { g.cycle[i], g.cycle[j] = g.cycle[j], g.cycle[i] })
	g.writeSlot = g.r.Intn(100)
	if w.ZipfKeys {
		g.zipf = rand.NewZipf(g.r, zipfS, 1, uint64(nVehicles-1))
		g.perm = hotPermutation(nVehicles)
	}
	return g
}

// hotPermutation maps Zipf rank to vehicle id, spreading hot ranks over the
// id space (and so over storage nodes).
func hotPermutation(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rand.New(rand.NewSource(permSeed)).Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// vehicle draws a vehicle id with the workload's key distribution.
func (g *Gen) vehicle() int {
	if g.zipf != nil {
		return int(g.perm[g.zipf.Uint64()])
	}
	return g.r.Intn(g.nVehicles)
}

// Next returns the stream's next statement.
func (g *Gen) Next() Stmt {
	g.n++
	if (g.n+g.writeSlot)*g.w.WritePct%100 < g.w.WritePct { // every (100/WritePct)th statement
		return g.nextWrite()
	}
	g.reads++
	return g.read(&g.w.Reads[g.cycle[g.reads%len(g.cycle)]])
}

func (g *Gen) read(t *Template) Stmt {
	var params []any
	if t.Draw != nil {
		params = t.Draw(g)
	}
	if g.w.Inline {
		return Stmt{Template: t.Name, SQL: inline(t.SQL, params)}
	}
	return Stmt{Template: t.Name, SQL: t.SQL, Params: params}
}

// inline replaces each `?` by its value, in order.
func inline(sql string, params []any) string {
	var b strings.Builder
	for _, p := range params {
		i := strings.IndexByte(sql, '?')
		b.WriteString(sql[:i])
		switch v := p.(type) {
		case int:
			b.WriteString(strconv.Itoa(v))
		case string:
			b.WriteString("'" + v + "'")
		default:
			panic(fmt.Sprintf("inline: unsupported parameter %T", p))
		}
		sql = sql[i+1:]
	}
	b.WriteString(sql)
	return b.String()
}

// writeRels are the relations mixed_rw writes, with their primary keys.
var writeRels = [3]struct{ rel, pk string }{
	{"VEHICLE", "vehicle_id"}, {"TEST", "test_id"}, {"OBSERVATION", "obs_id"},
}

func (g *Gen) nextWrite() Stmt {
	ri := g.r.Intn(len(writeRels))
	rel := writeRels[ri]
	if ids := g.live[ri]; len(ids) > 0 && g.r.Intn(100) < deletePct {
		i := g.r.Intn(len(ids))
		id := ids[i]
		ids[i] = ids[len(ids)-1]
		g.live[ri] = ids[:len(ids)-1]
		return Stmt{
			Template: "delete_" + strings.ToLower(rel.rel),
			SQL:      "delete from " + rel.rel + " where " + rel.pk + " = ?",
			Params:   []any{id},
			Write:    true, Rel: rel.rel, Delta: -1,
		}
	}
	id := writeBase + int64(g.stream)<<streamShift + g.nextID
	g.nextID++
	g.live[ri] = append(g.live[ri], id)
	t := writeTuple(ri, id)
	params := make([]any, len(t))
	for i, v := range t {
		params[i] = v
	}
	return Stmt{
		Template: "insert_" + strings.ToLower(rel.rel),
		SQL:      "insert into " + rel.rel + " values (?" + strings.Repeat(", ?", len(t)-1) + ")",
		Params:   params,
		Write:    true, Rel: rel.rel, Delta: +1,
		UserBytes: len(relation.EncodeTuple(t)),
	}
}

// writeTuple builds the row inserted under id. Every block key of every KV
// schema (vehicle_id, make+model, region, the pk) derives from the unique
// id, so an insert creates fresh blocks instead of growing one hot block
// for the whole run; speed cycles over the generated domain so the
// ix_obs_speed postings are maintained at their real length.
func writeTuple(ri int, id int64) relation.Tuple {
	I, S, F := relation.Int, relation.String, relation.Float
	tag := strconv.FormatInt(id, 10)
	switch ri {
	case 0:
		return relation.Tuple{I(id), S("ZMAKE"), S("ZM-" + tag), S("PETROL"), S("BLACK"), I(2026),
			I(1600), S("R-" + tag), I(1200), I(4), I(120), S("BAND-A"), S("2026-01-15")}
	case 1:
		return relation.Tuple{I(id), I(id), I(3), S("2026-01-15"), S("PASS"), I(52000), S("CLASS-4"),
			F(45.5), I(35), I(0), I(1), I(0), I(77), S("MI")}
	default:
		return relation.Tuple{I(id), I(id), I(id), S("2026-01-15"), I(20 + id%90), S("N"), I(1), S("DRY"),
			I(12), S("R-" + tag), I(9), I(0), I(2), I(1), S("URBAN")}
	}
}

// The five scan-free point/chain templates over vehicle_id: the query class
// the paper's middleware exists for (2–4 gets each).
func pointTemplates() []Template {
	one := func(g *Gen) []any { return []any{g.vehicle()} }
	return []Template{
		{Name: "vehicle_tests", Weight: 1, Draw: one,
			SQL: "select T.test_date, T.result, T.mileage from TEST T where T.vehicle_id = ?"},
		{Name: "vehicle_profile", Weight: 1, Draw: one,
			SQL: "select V.make, V.model, T.test_date, T.result from VEHICLE V, TEST T where V.vehicle_id = ? and T.vehicle_id = V.vehicle_id"},
		{Name: "vehicle_speeding", Weight: 1, Draw: one,
			SQL: "select O.obs_date, O.speed, O.road_type from OBSERVATION O where O.vehicle_id = ? and O.speed > 70"},
		{Name: "vehicle_test_stats", Weight: 1, Draw: one,
			SQL: "select COUNT(*), AVG(T.mileage), MAX(T.defect_count) from TEST T where T.vehicle_id = ?"},
		{Name: "vehicle_history", Weight: 1, Draw: one,
			SQL: "select T.test_date, T.result, O.obs_date, O.speed from VEHICLE V, TEST T, OBSERVATION O where V.vehicle_id = ? and T.vehicle_id = V.vehicle_id and O.vehicle_id = V.vehicle_id"},
	}
}

// The index templates. road_id is uniform over roads 4..11, which hold 440
// to 1 540 observations each at scale 20 (mean ≈ 830); years and speeds are
// uniform over the generated domains.
func indexTemplates() []Template {
	return []Template{
		{Name: "road_observations", Weight: 3,
			SQL:  "select O.obs_id, O.speed, O.weather from OBSERVATION O where O.road_id = ?",
			Draw: func(g *Gen) []any { return []any{4 + g.r.Intn(8)} }},
		{Name: "year_band", Weight: 3,
			SQL: "select V.vehicle_id, V.color, V.fuel from VEHICLE V where V.year between ? and ?",
			Draw: func(g *Gen) []any {
				y := 1995 + g.r.Intn(17)
				return []any{y, y}
			}},
		{Name: "speed_band_limit", Weight: 3, Limit: 20,
			SQL: "select O.obs_id, O.direction, O.lane from OBSERVATION O where O.speed between ? and ? limit 20",
			Draw: func(g *Gen) []any {
				lo := 20 + g.r.Intn(85)
				return []any{lo, lo + 5}
			}},
		{Name: "make_counts", Weight: 1,
			SQL: "select V.make, COUNT(*) from VEHICLE V group by V.make"},
	}
}

const obsSpeedIndex = "create index ix_obs_speed on OBSERVATION(speed)"

// workloads returns the four workloads; names and order are fixed, and
// BENCHMARK.json and README.md say why each exists.
func workloads() []*Workload {
	return []*Workload{
		{
			Name:     "point_zipf",
			Reads:    pointTemplates(),
			ZipfKeys: true,
			ReplayN:  20000,
		},
		{
			Name:    "adhoc_literal",
			Reads:   pointTemplates(),
			Inline:  true,
			ReplayN: 10000,
		},
		{
			Name: "index_scan",
			Indexes: []string{
				"create index ix_obs_road on OBSERVATION(road_id)",
				"create index ix_vehicle_year on VEHICLE(year)",
				obsSpeedIndex,
			},
			Reads:   indexTemplates(),
			ReplayN: 1000,
		},
		{
			Name:     "mixed_rw",
			Indexes:  []string{obsSpeedIndex},
			Reads:    pointTemplates(),
			ZipfKeys: true,
			WritePct: 20,
			ReplayN:  10000,
		},
	}
}

func workloadByName(name string) *Workload {
	for _, w := range workloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}
