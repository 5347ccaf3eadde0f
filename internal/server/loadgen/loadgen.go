// Package loadgen drives a running zidian server with a repeated-template
// workload over many concurrent wire-protocol connections and reports
// throughput, latency percentiles, and plan-cache effectiveness; it also
// replays capture files. It backs the cmd/zidian-loadgen binary and the
// zidian-bench mixed and scaleout sweeps.
package loadgen

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"zidian/internal/server"
	"zidian/internal/server/client"
)

// Template is one parameterized query shape with exactly one verb in
// Format: %s drawn from the Strings pool when it is non-empty, otherwise %d
// drawn from [0, ParamPool). A bounded pool keeps the set of distinct
// statements small, so a warmed plan cache serves almost every request —
// the repeated-template regime real OLTP-ish workloads live in. With
// Options.Parameterized the verb is replaced by a `?` placeholder and the
// value travels as a wire parameter instead, so every instantiation of the
// template shares one plan-cache entry regardless of the pool size.
type Template struct {
	Name    string
	Format  string
	Strings []string
	// Verbs is the number of %d verbs in Format (default 1). Multi-verb
	// templates drive range predicates: each request draws one base value
	// and derives the following verbs from it (base + Span), so a
	// two-verb BETWEEN template produces a window of fixed width at a
	// random position.
	Verbs int
	// Base offsets drawn numeric values into the template's active domain
	// (e.g. model years start at 1995, not 0).
	Base int
	// Span is the width added per subsequent verb of a multi-verb template.
	Span int
	// Write marks a data-modifying template: Format is an INSERT whose %d
	// verbs (pk and any fk positions, Span 0) all take one globally unique
	// base id per request, sent via exec instead of query.
	Write bool
	// Delete, on a write template, is the paired single-verb DELETE format;
	// the generator occasionally deletes a previously inserted id through
	// it, so the write mix exercises both maintenance directions and the
	// dataset stays roughly stable.
	Delete string
}

// verbs returns the effective verb count.
func (t Template) verbs() int {
	if t.Verbs < 1 {
		return 1
	}
	return t.Verbs
}

// args derives the request's verb values from one drawn base value.
func (t Template) args(base int) []any {
	out := make([]any, t.verbs())
	out[0] = base
	for i := 1; i < len(out); i++ {
		out[i] = base + i*t.Span
	}
	return out
}

// ParamSQL returns the template's `?` form: every literal verb (quoted %s
// or bare %d) replaced by a placeholder.
func (t Template) ParamSQL() string {
	if len(t.Strings) > 0 {
		return strings.Replace(t.Format, "'%s'", "?", 1)
	}
	return strings.ReplaceAll(t.Format, "%d", "?")
}

// Parameter pools for the templates, mirroring the generators' active
// domains (internal/workload).
var (
	tpchRegions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	tpchNations = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
		"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
		"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
		"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
	}
	motMakes = []string{"FORD", "VAUXHALL", "VOLKSWAGEN", "BMW", "TOYOTA", "AUDI",
		"MERCEDES", "NISSAN", "PEUGEOT", "HONDA", "RENAULT", "SKODA"}
	aircaModels = []string{"737-800", "A320", "A321", "E175", "CRJ900", "757-200", "787-9", "A220"}
)

// Templates returns the built-in template suite for a workload dataset.
// All templates are scan-free point/chain lookups — the query class the
// paper's middleware is designed to accelerate.
func Templates(workload string) ([]Template, error) {
	switch workload {
	case "mot":
		return []Template{
			{Name: "vehicle_tests", Format: "select T.test_date, T.result, T.mileage from TEST T where T.vehicle_id = %d"},
			{Name: "vehicle_profile", Format: "select V.make, V.model, T.test_date, T.result from VEHICLE V, TEST T where V.vehicle_id = %d and T.vehicle_id = V.vehicle_id"},
			{Name: "vehicle_speeding", Format: "select O.obs_date, O.speed, O.road_type from OBSERVATION O where O.vehicle_id = %d and O.speed > 70"},
			{Name: "vehicle_test_stats", Format: "select COUNT(*), AVG(T.mileage), MAX(T.defect_count) from TEST T where T.vehicle_id = %d"},
			{Name: "vehicle_history", Format: "select T.test_date, T.result, O.obs_date, O.speed from VEHICLE V, TEST T, OBSERVATION O where V.vehicle_id = %d and T.vehicle_id = V.vehicle_id and O.vehicle_id = V.vehicle_id"},
		}, nil
	case "airca":
		return []Template{
			{Name: "flight_delays", Format: "select F.flight_date, F.dep_delay, D.cause, D.minutes from FLIGHT F, DELAY D where F.flight_id = %d and D.flight_id = F.flight_id"},
			{Name: "carrier_flights", Format: "select F.flight_date, F.dep_delay, F.arr_delay from FLIGHT F where F.carrier_id = %d"},
			{Name: "carrier_fleet", Format: "select A.model, A.manufacturer, A.seats from AIRCRAFT A where A.carrier_id = %d"},
		}, nil
	case "tpch":
		return []Template{
			{Name: "nation_suppliers", Strings: tpchNations,
				Format: "select S.suppkey, S.name, S.acctbal from NATION N, SUPPLIER S where N.name = '%s' and S.nationkey = N.nationkey"},
			{Name: "region_suppliers", Strings: tpchRegions,
				Format: "select S.suppkey, S.name from REGION R, NATION N, SUPPLIER S where R.name = '%s' and N.regionkey = R.regionkey and S.nationkey = N.nationkey"},
			{Name: "nation_volume", Strings: tpchNations,
				Format: "select L.shipmode, SUM(L.extendedprice) from NATION N, SUPPLIER S, LINEITEM L where N.name = '%s' and S.nationkey = N.nationkey and L.suppkey = S.suppkey group by L.shipmode"},
		}, nil
	default:
		return nil, fmt.Errorf("loadgen: no built-in templates for workload %q", workload)
	}
}

// nonKeyTemplates returns the non-key-predicate suite for a workload: each
// template selects on an attribute that is not a block key of any KV
// schema, together with the CREATE INDEX statements that make the queries
// index lookups instead of full scans.
func nonKeyTemplates(workload string) ([]Template, []string, error) {
	switch workload {
	case "mot":
		return []Template{
				{Name: "make_fleet", Strings: motMakes,
					Format: "select V.vehicle_id, V.model, V.fuel from VEHICLE V where V.make = '%s'"},
				{Name: "road_observations",
					Format: "select O.obs_id, O.speed, O.weather from OBSERVATION O where O.road_id = %d"},
			}, []string{
				"create index ix_vehicle_make on VEHICLE(make)",
				"create index ix_obs_road on OBSERVATION(road_id)",
			}, nil
	case "airca":
		return []Template{
				{Name: "model_fleet", Strings: aircaModels,
					Format: "select A.aircraft_id, A.seats, A.carrier_id from AIRCRAFT A where A.model = '%s'"},
			}, []string{
				"create index ix_aircraft_model on AIRCRAFT(model)",
			}, nil
	default:
		return nil, nil, fmt.Errorf("loadgen: no non-key templates for workload %q", workload)
	}
}

// rangeTemplates returns the range-predicate suite for a workload: each
// template is a two-sided BETWEEN window over an indexed non-key attribute,
// served by the IndexRange access path (a directory listing of the
// window's posting fragments plus batched gets), together with
// the CREATE INDEX statements the windows rely on. Every request draws a
// fresh window position, and with Options.Parameterized both bounds travel
// as wire parameters so one plan-cache template serves every window.
func rangeTemplates(workload string) ([]Template, []string, error) {
	// The selected output attributes deliberately include one column only
	// the relation's pk-keyed full instance covers (color, lane, taxi_out):
	// a narrower non-pk instance covering the whole query would make the
	// planner's cost model — correctly — prefer scanning it over reading
	// the posting range.
	switch workload {
	case "mot":
		return []Template{
				{Name: "year_band", Verbs: 2, Base: 1995, Span: 2,
					Format: "select V.vehicle_id, V.color, V.fuel from VEHICLE V where V.year between %d and %d"},
				{Name: "speed_band", Verbs: 2, Base: 20, Span: 5,
					Format: "select O.obs_id, O.direction, O.lane from OBSERVATION O where O.speed between %d and %d"},
			}, []string{
				"create index ix_vehicle_year on VEHICLE(year)",
				"create index ix_obs_speed on OBSERVATION(speed)",
			}, nil
	case "airca":
		return []Template{
				{Name: "dep_delay_band", Verbs: 2, Base: -15, Span: 10,
					Format: "select F.flight_id, F.taxi_out, F.taxi_in from FLIGHT F where F.dep_delay between %d and %d"},
			}, []string{
				"create index ix_flight_dep_delay on FLIGHT(dep_delay)",
			}, nil
	default:
		return nil, nil, fmt.Errorf("loadgen: no range templates for workload %q", workload)
	}
}

// readWriteTemplates returns the mixed read/write suite for a workload: a
// read side spread across the relations (point and chain lookups) and a
// write side of INSERT/DELETE templates over three relations (so writers
// ride three different group committers, one of them with index posting
// maintenance). The setup DDL creates the index the suite relies on.
func readWriteTemplates(workload string) (reads, writes []Template, setup []string, err error) {
	switch workload {
	case "mot":
		// The read side is OLTP-shaped — cheap point and chain lookups, a
		// few storage round trips each — leaning toward VEHICLE; the
		// TEST/OBSERVATION reads pin snapshots of the relations the
		// writers commit to most. Writes are single-row inserts paired
		// with deletes of earlier inserts: each is a handful of block and
		// posting maintenance round trips inside its relation's commit.
		reads = []Template{
			{Name: "vehicle_lookup", Format: "select V.make, V.model, V.fuel, V.year from VEHICLE V where V.vehicle_id = %d"},
			{Name: "vehicle_detail", Format: "select V.color, V.region, V.engine_cc from VEHICLE V where V.vehicle_id = %d"},
			{Name: "vehicle_profile", Format: "select V.make, V.model, T.test_date, T.result from VEHICLE V, TEST T where V.vehicle_id = %d and T.vehicle_id = V.vehicle_id"},
			{Name: "test_history", Format: "select T.test_date, T.result, T.mileage from TEST T where T.vehicle_id = %d"},
			{Name: "obs_history", Format: "select O.obs_date, O.speed, O.road_type from OBSERVATION O where O.vehicle_id = %d"},
		}
		// Every insert's keys are derived from the unique base id — fresh
		// blocks per statement on every KV schema (vehicle_by_make_model
		// via the model name, obs_by_region via the region) — so write
		// cost stays O(deg), matching module M4, instead of piling one hot
		// block forever.
		writes = []Template{
			{Name: "write_vehicle", Write: true, Verbs: 3,
				Format: "insert into VEHICLE values (%d, 'ZMAKE', 'ZM-%d', 'PETROL', 'BLACK', 2026, 1600, 'R-%d', 1200, 4, 120, 'BAND-A', '2026-01-15')",
				Delete: "delete from VEHICLE where vehicle_id = %d"},
			{Name: "write_test", Write: true, Verbs: 2,
				Format: "insert into TEST values (%d, %d, 3, '2026-01-15', 'PASS', 52000, 'CLASS-4', 45.50, 35, 0, 1, 0, 77, 'MI')",
				Delete: "delete from TEST where test_id = %d"},
			{Name: "write_obs", Write: true, Verbs: 4,
				Format: "insert into OBSERVATION values (%d, %d, %d, '2026-01-15', 44, 'N', 1, 'DRY', 12, 'R-%d', 9, 0, 2, 1, 'URBAN')",
				Delete: "delete from OBSERVATION where obs_id = %d"},
		}
		// The speed index keeps secondary-index posting maintenance on the
		// OBSERVATION write path.
		setup = []string{"create index ix_obs_speed on OBSERVATION(speed)"}
		return reads, writes, setup, nil
	default:
		return nil, nil, nil, fmt.Errorf("loadgen: no read/write templates for workload %q", workload)
	}
}

// ReadWriteMix returns the mixed read/write suite for a workload: the read
// templates, the write templates, and the setup DDL. Pass the reads as
// Options.Templates and the writes as Options.WriteTemplates with a
// WriteFraction.
func ReadWriteMix(workload string) (reads, writes []Template, setup []string, err error) {
	return readWriteTemplates(workload)
}

// TemplatesMix returns the template suite for a workload under a query mix,
// plus the setup statements (DDL) the suite needs once per server:
//
//	point  — the key/chain lookups of Templates (no setup)
//	nonkey — selective non-key predicates served by secondary indexes
//	range  — BETWEEN windows served by ordered posting scans
//	mixed  — all suites interleaved
//
// The readwrite mix does not fit this signature (it adds write templates);
// use ReadWriteMix for it.
func TemplatesMix(workload, mix string) ([]Template, []string, error) {
	switch mix {
	case "", "point":
		t, err := Templates(workload)
		return t, nil, err
	case "nonkey":
		return nonKeyTemplates(workload)
	case "range":
		return rangeTemplates(workload)
	case "mixed":
		point, err := Templates(workload)
		if err != nil {
			return nil, nil, err
		}
		nonkey, setup, err := nonKeyTemplates(workload)
		if err != nil {
			return nil, nil, err
		}
		ranged, rangeSetup, err := rangeTemplates(workload)
		if err != nil {
			return nil, nil, err
		}
		return append(append(point, nonkey...), ranged...), append(setup, rangeSetup...), nil
	default:
		return nil, nil, fmt.Errorf("loadgen: unknown mix %q (want point, nonkey, range or mixed)", mix)
	}
}

// Options parameterize one load-generation run.
type Options struct {
	// Addr is the server's wire-protocol TCP address.
	Addr string
	// Clients is the number of concurrent connections (default 64).
	Clients int
	// Requests is the number of statements each client issues (default 100).
	Requests int
	// Templates is the query template suite (required).
	Templates []Template
	// Setup statements (typically CREATE INDEX DDL) run once on the first
	// connection before load starts. A statement failing because its object
	// already exists is ignored, so re-running against a warm server works.
	Setup []string
	// ParamPool bounds the distinct parameter values per template
	// (default 100). Distinct statements = len(Templates) × ParamPool.
	ParamPool int
	// Seed makes the parameter sequence deterministic.
	Seed int64
	// Parameterized sends each template as a `?` statement with the value
	// as a wire parameter, instead of inlining the literal into the SQL
	// text. One plan-cache entry then serves the whole template.
	Parameterized bool
	// WriteTemplates, with WriteFraction > 0, mixes writes into the load:
	// each request flips a coin and, at the write fraction, draws a write
	// template instead of a read. Inserts take a globally unique id
	// (WriteIDBase + client × Requests + request), deletes reclaim ids the
	// same client inserted earlier, so the statements never collide across
	// clients and the mixed run is reproducible.
	WriteTemplates []Template
	// WriteFraction is the probability a request is a write (0..1).
	WriteFraction float64
	// WriteIDBase offsets the unique write ids clear of the generated
	// dataset's pk space (default 1<<21). Reruns against a warm server
	// should vary it to keep inserted pks fresh.
	WriteIDBase int
	// MetricsURL, when non-empty, is the server's /metrics endpoint; the run
	// scrapes it at the end and folds the server-side latency histogram into
	// Report.ServerLatency. Without MetricsStrict, scrape failures are
	// non-fatal: a warning goes to stderr and the field stays nil — a server
	// running with metrics disabled still takes load.
	MetricsURL string
	// MetricsStrict turns a failed MetricsURL scrape into a run error, so CI
	// smoke jobs cannot silently pass against a dead metrics endpoint.
	MetricsStrict bool
}

func (o Options) normalized() Options {
	if o.Clients <= 0 {
		o.Clients = 64
	}
	if o.Requests <= 0 {
		o.Requests = 100
	}
	if o.ParamPool <= 0 {
		o.ParamPool = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.WriteIDBase == 0 {
		o.WriteIDBase = 1 << 21
	}
	return o
}

// Latency summarizes observed latencies in microseconds.
type Latency struct {
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	P95 int64 `json:"p95"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

// Report is the machine-readable outcome of one run.
type Report struct {
	Bench       string  `json:"bench"`
	Workload    string  `json:"workload,omitempty"`
	Mix         string  `json:"mix,omitempty"`
	Clients     int     `json:"clients"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	WallSeconds float64 `json:"wallSeconds"`
	QPS         float64 `json:"qps"`
	Latency     Latency `json:"latencyMicros"`
	// CacheHitRate is the client-observed fraction of answered queries whose
	// plan came from the server's plan cache.
	CacheHitRate float64 `json:"planCacheHitRate"`
	// ScanFreeRate is the fraction of answered queries with scan-free plans.
	ScanFreeRate float64 `json:"scanFreeRate"`
	// Parameterized records whether statements were sent as `?` templates
	// with wire parameters.
	Parameterized bool `json:"parameterized,omitempty"`
	// Writes counts the data-modifying statements issued; WriteFraction
	// echoes the configured write probability.
	Writes        int64   `json:"writes,omitempty"`
	WriteFraction float64 `json:"writeFraction,omitempty"`
	// Server is the server's own statistics snapshot after the run.
	Server *server.ServerStats `json:"server,omitempty"`
	// ServerLatency is the server-side statement latency summary scraped
	// from /metrics (Options.MetricsURL); nil when no URL was given or the
	// scrape failed.
	ServerLatency *ServerLatency `json:"serverLatencyMicros,omitempty"`
	// Speed echoes the replay pacing factor (replay runs only; 0 = as fast
	// as possible).
	Speed float64 `json:"speed,omitempty"`
	// RowDigest is an order-insensitive digest of the result rows of every
	// successful SELECT in a replay run: two replays of the same capture
	// against equal datasets produce equal digests, so byte-identical reads
	// can be asserted without retaining the rows.
	RowDigest string `json:"rowDigest,omitempty"`
}

// Run opens Clients connections, issues Requests statements on each, and
// aggregates the results. Every client first pings so that connection
// failures surface before load starts. Errors do not abort the run; they
// are counted and reported.
func Run(opts Options) (*Report, error) {
	opts = opts.normalized()
	if len(opts.Templates) == 0 {
		return nil, fmt.Errorf("loadgen: no templates")
	}

	clients, err := dialAll(opts.Addr, opts.Clients)
	if err != nil {
		return nil, err
	}
	defer closeAll(clients)

	for _, stmt := range opts.Setup {
		if _, err := clients[0].Exec(stmt); err != nil &&
			!strings.Contains(err.Error(), "already") {
			return nil, fmt.Errorf("loadgen: setup %q: %w", stmt, err)
		}
	}

	type workerResult struct {
		lat      []int64
		errs     int64
		hits     int64
		scanFree int64
		answered int64
		writes   int64
	}
	results := make([]workerResult, opts.Clients)
	// Derive each template's `?` form once, outside the timed loop.
	paramSQL := make([]string, len(opts.Templates))
	if opts.Parameterized {
		for i, t := range opts.Templates {
			paramSQL[i] = t.ParamSQL()
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			r := rand.New(rand.NewSource(opts.Seed + int64(i)))
			res := &results[i]
			res.lat = make([]int64, 0, opts.Requests)
			// Per write template, the ids this client has inserted and not
			// yet deleted — the pool its paired deletes reclaim from.
			live := make([][]int, len(opts.WriteTemplates))
			for n := 0; n < opts.Requests; n++ {
				if len(opts.WriteTemplates) > 0 && r.Float64() < opts.WriteFraction {
					wi := r.Intn(len(opts.WriteTemplates))
					wt := opts.WriteTemplates[wi]
					var stmt string
					if wt.Delete != "" && len(live[wi]) > 0 && r.Float64() < 0.3 {
						at := r.Intn(len(live[wi]))
						id := live[wi][at]
						live[wi] = append(live[wi][:at], live[wi][at+1:]...)
						stmt = fmt.Sprintf(wt.Delete, id)
					} else {
						id := opts.WriteIDBase + i*opts.Requests + n
						live[wi] = append(live[wi], id)
						stmt = fmt.Sprintf(wt.Format, wt.args(id)...)
					}
					t0 := time.Now()
					_, err := c.Exec(stmt)
					res.lat = append(res.lat, time.Since(t0).Microseconds())
					res.writes++
					if err != nil {
						res.errs++
					}
					continue
				}
				ti := r.Intn(len(opts.Templates))
				t := opts.Templates[ti]
				var args []any
				if len(t.Strings) > 0 {
					args = []any{t.Strings[r.Intn(len(t.Strings))]}
				} else {
					args = t.args(t.Base + r.Intn(opts.ParamPool))
				}
				var sql string
				var params []any
				if opts.Parameterized {
					sql = paramSQL[ti]
					params = args
				} else {
					sql = fmt.Sprintf(t.Format, args...)
				}
				t0 := time.Now()
				// The lean variant skips decoding the result rows — on a
				// host where generator and server share cores, decoding
				// discarded rows steals measurable capacity from the server.
				stats, err := c.QueryLean(sql, params...)
				res.lat = append(res.lat, time.Since(t0).Microseconds())
				if err != nil {
					res.errs++
					continue
				}
				res.answered++
				if stats != nil {
					if stats.CacheHit {
						res.hits++
					}
					if stats.ScanFree {
						res.scanFree++
					}
				}
			}
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []int64
	rep := &Report{
		Bench:         "server",
		Clients:       opts.Clients,
		WallSeconds:   wall.Seconds(),
		Parameterized: opts.Parameterized,
		WriteFraction: opts.WriteFraction,
	}
	var answered, hits, scanFree int64
	for i := range results {
		all = append(all, results[i].lat...)
		rep.Requests += int64(len(results[i].lat))
		rep.Errors += results[i].errs
		rep.Writes += results[i].writes
		answered += results[i].answered
		hits += results[i].hits
		scanFree += results[i].scanFree
	}
	if wall > 0 {
		rep.QPS = float64(rep.Requests) / wall.Seconds()
	}
	if answered > 0 {
		rep.CacheHitRate = float64(hits) / float64(answered)
		rep.ScanFreeRate = float64(scanFree) / float64(answered)
	}
	rep.Latency = percentiles(all)
	if err := serverSide(rep, clients[0], opts.MetricsURL, opts.MetricsStrict); err != nil {
		return nil, err
	}
	return rep, nil
}

// dialAll opens n connections to addr and pings each, so that connection
// failures surface before load starts. On failure every connection opened
// so far, the failing one included, is closed.
func dialAll(addr string, n int) ([]*client.Client, error) {
	clients := make([]*client.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			closeAll(clients)
			return nil, fmt.Errorf("loadgen: dial client %d: %w", i, err)
		}
		if err := c.Ping(); err != nil {
			c.Close()
			closeAll(clients)
			return nil, fmt.Errorf("loadgen: ping client %d: %w", i, err)
		}
		clients = append(clients, c)
	}
	return clients, nil
}

func closeAll(clients []*client.Client) {
	for _, c := range clients {
		c.Close()
	}
}

// serverSide folds the server's own view of a finished run into rep: its
// statistics snapshot over c and, when metricsURL is set, the /metrics
// latency summary. A failed scrape is an error under strict and a warning
// on stderr otherwise.
func serverSide(rep *Report, c *client.Client, metricsURL string, strict bool) error {
	if st, err := c.Stats(); err == nil {
		rep.Server = st
	}
	if metricsURL == "" {
		return nil
	}
	sl, err := ScrapeServerLatency(metricsURL)
	switch {
	case err == nil:
		rep.ServerLatency = sl
	case strict:
		return fmt.Errorf("loadgen: metrics scrape %s: %w", metricsURL, err)
	default:
		fmt.Fprintf(os.Stderr, "loadgen: warning: metrics scrape %s failed: %v\n", metricsURL, err)
	}
	return nil
}

// percentiles summarizes a latency sample (µs).
func percentiles(lat []int64) Latency {
	if len(lat) == 0 {
		return Latency{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(p float64) int64 {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	return Latency{
		P50: at(0.50),
		P90: at(0.90),
		P95: at(0.95),
		P99: at(0.99),
		Max: lat[len(lat)-1],
	}
}
