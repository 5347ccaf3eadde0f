// Package zidian is a Go implementation of Zidian, the middleware for
// SQL-over-NoSQL systems from "Block as a Value for SQL over NoSQL"
// (Cao, Fan, Yuan — PVLDB 12(10), 2019).
//
// Zidian replaces the conventional tuple-as-a-value (TaaV) representation
// of relations in key-value stores with a block-as-a-value model (BaaV):
// relations are stored as keyed blocks ⟨X, Y⟩ where arbitrary attributes X
// key blocks of partial tuples over Y. On top of BaaV, Zidian decides
// whether a SQL query can be answered at all (result preservation), whether
// it can be answered without scanning any table (scan-freeness), and
// whether it touches a bounded amount of data regardless of database size
// (boundedness) — and generates KBA plans with those guarantees.
//
// The package exposes a small facade over the internal packages:
//
//	db := zidian.NewDatabase()             // build relations
//	schema, _, _ := zidian.DesignSchema(db, workloadSQL, 0, true)
//	inst, _ := zidian.Open(db, schema, zidian.Options{})
//	res, stats, _ := inst.Query("select ... where k = 1")
//	// stats.ScanFree, stats.Gets, stats.DataValues ...
package zidian

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kba"
	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/parallel"
	"zidian/internal/qcs"
	"zidian/internal/ra"
	"zidian/internal/relation"
	sqlpkg "zidian/internal/sql"
)

// Re-exported building blocks of the relational substrate.
type (
	// Database is an in-memory relational database.
	Database = relation.Database
	// RelSchema describes one relation.
	RelSchema = relation.Schema
	// Attr is a named, typed attribute.
	Attr = relation.Attr
	// Tuple is a row of values.
	Tuple = relation.Tuple
	// Value is a dynamically typed SQL value.
	Value = relation.Value
	// Result is a materialized query answer.
	Result = ra.Result
	// BaaVSchema is a set of KV schemas ~R⟨X,Y⟩.
	BaaVSchema = baav.Schema
	// KVSchema is one KV schema ~R⟨X,Y⟩.
	KVSchema = baav.KVSchema
	// DesignReport records what the T2B schema designer did.
	DesignReport = qcs.Report
)

// Value constructors, re-exported.
var (
	Int    = relation.Int
	Float  = relation.Float
	String = relation.String
	Null   = relation.Null
)

// Attribute kinds, re-exported.
const (
	KindInt    = relation.KindInt
	KindFloat  = relation.KindFloat
	KindString = relation.KindString
)

// NewDatabase returns an empty database.
func NewDatabase() *Database { return relation.NewDatabase() }

// NewRelation returns an empty relation over the schema.
func NewRelation(s *RelSchema) *relation.Relation { return relation.NewRelation(s) }

// MustRelSchema builds a relation schema, panicking on error.
func MustRelSchema(name string, attrs []Attr, key []string) *RelSchema {
	return relation.MustSchema(name, attrs, key)
}

// NewBaaVSchema validates a BaaV schema against a database's relations.
func NewBaaVSchema(db *Database, kvs ...KVSchema) (*BaaVSchema, error) {
	return baav.NewSchema(baav.RelSchemas(db), kvs...)
}

// Options configure an Instance.
type Options struct {
	// Engine selects the storage-node engine kind: "hash" (default, the
	// Cassandra-style partition store), "lsm" (HBase-style), or "sorted"
	// (Kudu-style). Benchmarks and differential tests use it to run the
	// same instance shape over all three engines.
	Engine string
	// Nodes is the number of storage nodes (default 4).
	Nodes int
	// Workers is the SQL-layer parallelism (default 4).
	Workers int
	// MaxBoundedDegree is the block-degree bound used to classify bounded
	// queries (default 1024).
	MaxBoundedDegree int
	// Store tunes segmentation, compression and statistics.
	Store baav.Options
}

func (o Options) normalized() Options {
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.MaxBoundedDegree <= 0 {
		o.MaxBoundedDegree = 1024
	}
	if o.Store.SegmentThreshold == 0 {
		o.Store = baav.DefaultOptions()
	}
	return o
}

// Stats describes one query execution.
type Stats struct {
	// ScanFree reports whether the plan scanned no KV instance.
	ScanFree bool
	// Bounded reports whether the query is bounded on this store under the
	// instance's degree bound.
	Bounded bool
	// Gets counts get invocations against the store.
	Gets int64
	// DataValues counts values fetched from the store (#data).
	DataValues int64
	// ShuffleBytes counts worker-to-worker communication.
	ShuffleBytes int64
	// Wall is the execution wall time.
	Wall time.Duration
	// Plan is the KBA plan rendering.
	Plan string
}

// Instance is an opened Zidian deployment: a database mapped to a BaaV
// store on an in-process KV cluster.
type Instance struct {
	db      *Database
	schema  *BaaVSchema
	store   *baav.Store
	checker *core.Checker
	opts    Options

	// epoch counts catalog-changing DDL (CREATE INDEX / DROP INDEX). Plans
	// compiled at an older epoch may be stale: an index they use can be
	// gone, or a better access path can exist. Serving layers key their
	// plan caches on it.
	epoch atomic.Uint64

	// committers hold the per-relation group-commit queues (commit.go).
	// The relation set is fixed at Open, so the map is read-only after.
	committers map[string]*committer
	// onCommit, when set, observes every installed group commit with its
	// batch size; the server feeds its batch-size histogram from it.
	onCommit atomic.Pointer[func(batch int)]
}

// engineKind maps the Options.Engine name to the kv engine kind.
func engineKind(name string) (kv.EngineKind, error) {
	switch name {
	case "", "hash":
		return kv.EngineHash, nil
	case "lsm":
		return kv.EngineLSM, nil
	case "sorted":
		return kv.EngineSorted, nil
	default:
		return 0, fmt.Errorf("zidian: unknown engine %q (want hash, lsm or sorted)", name)
	}
}

// Open maps db onto the BaaV schema and returns a queryable instance.
func Open(db *Database, schema *BaaVSchema, opts Options) (*Instance, error) {
	opts = opts.normalized()
	kind, err := engineKind(opts.Engine)
	if err != nil {
		return nil, err
	}
	cluster := kv.NewCluster(kind, opts.Nodes)
	store, err := baav.Map(db, schema, cluster, opts.Store)
	if err != nil {
		return nil, err
	}
	in := &Instance{
		db:      db,
		schema:  schema,
		store:   store,
		checker: core.NewChecker(schema, baav.RelSchemas(db)).WithStats(store).WithIndexes(store.Indexes()),
		opts:    opts,
	}
	in.committers = make(map[string]*committer, len(db.Names()))
	for _, rel := range db.Names() {
		in.committers[rel] = newCommitter(in, rel)
	}
	return in, nil
}

// SetCommitObserver registers f to be called with the batch size of every
// installed group commit (nil unregisters). Serving layers feed their
// commit-batch-size histogram from it.
func (in *Instance) SetCommitObserver(f func(batch int)) {
	if f == nil {
		in.onCommit.Store(nil)
		return
	}
	in.onCommit.Store(&f)
}

// CommitSeq returns rel's installed MVCC commit sequence — it advances by
// one per group commit, regardless of how many statements the batch folded.
func (in *Instance) CommitSeq(rel string) uint64 { return in.store.CommitSeq(rel) }

// MVCCVersions reports the store-wide number of live block versions and
// the total reclaimed since open.
func (in *Instance) MVCCVersions() (live, reclaimed int64) {
	return in.store.VersionsLive(), in.store.VersionsReclaimed()
}

// MVCCDirectory reports the size of the version directories: they list
// the block versions commits wrote, not the blocks as loaded.
func (in *Instance) MVCCDirectory() baav.DirectoryStats { return in.store.Directory() }

// MVCCSwept reports the block versions reclaimed by the background sweep —
// a subset of the reclaimed total, counting only what SweepMVCC dropped on
// relations between commits.
func (in *Instance) MVCCSwept() int64 { return in.store.VersionsSwept() }

// SweepMVCC runs one reclamation pass over every relation: retired block
// and posting versions and sole tombstones below each relation's
// watermark are dropped — work that normally rides the relation's next
// commit, done now for relations that stopped receiving commits. Relations
// mid-commit are skipped (the commit reclaims on its own way out). Returns
// the number of versions swept.
func (in *Instance) SweepMVCC() int64 {
	var total int64
	for _, rel := range in.db.Names() {
		swept, ok := in.store.SweepRelation(rel)
		if ok {
			total += int64(swept)
		}
	}
	return total
}

// StartReclaimSweeper starts a low-frequency background ticker that calls
// SweepMVCC, so retired versions on quiescent relations are reclaimed
// without waiting for a next commit. A non-positive interval defaults to
// 5s. The returned stop function halts the sweeper and waits for an
// in-flight pass to finish; it is idempotent.
func (in *Instance) StartReclaimSweeper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				in.SweepMVCC()
			}
		}
	}()
	var stopped atomic.Bool
	return func() {
		if stopped.CompareAndSwap(false, true) {
			close(done)
			<-finished
		}
	}
}

// submitWrite queues one logical write on rel's group committer and waits
// for its batch to install (or abort).
func (in *Instance) submitWrite(rel string, op *writeOp) writeOutcome {
	co := in.committers[rel]
	if co == nil {
		return writeOutcome{err: fmt.Errorf("zidian: unknown relation %q", rel)}
	}
	return co.submit(op)
}

// SchemaEpoch returns the instance's catalog epoch; it advances on every
// successful CREATE INDEX / DROP INDEX. Compiled plans record the epoch
// they were built at, so caches can drop plans from older epochs.
func (in *Instance) SchemaEpoch() uint64 { return in.epoch.Load() }

// IndexNames lists the defined secondary indexes, sorted.
func (in *Instance) IndexNames() []string { return in.store.Indexes().Names() }

// Relations lists the base relations of the opened database, sorted. The
// set is fixed at open time; serving layers label per-relation metrics
// from it.
func (in *Instance) Relations() []string {
	names := append([]string{}, in.db.Names()...)
	sort.Strings(names)
	return names
}

// IndexStats snapshots the named index's shape statistics.
func (in *Instance) IndexStats(name string) (baav.IndexStats, bool) {
	return in.store.Indexes().Stats(name)
}

// Store exposes the underlying BaaV store for advanced use.
func (in *Instance) Store() *baav.Store { return in.store }

// Query parses, plans and executes a SQL query in parallel over the BaaV
// store, returning the answer and execution statistics. The statement may
// contain `?` placeholders, bound positionally by params. Each call
// recompiles the plan from scratch; callers that repeat a statement shape
// should Prepare the `?` template once and Run it many times with different
// bindings (or sit behind a serving layer with a plan cache).
func (in *Instance) Query(src string, params ...Value) (*Result, *Stats, error) {
	p, err := in.Prepare(src)
	if err != nil {
		return nil, nil, err
	}
	return p.Run(params...)
}

// Prepared is a compiled query: parsed, minimized, checked and planned once,
// executable many times. A statement with `?` placeholders compiles into a
// plan template: the planner fixes the access paths from the template's
// shape, and each Run binds a fresh parameter list into the template
// (validating arity and types) without re-parsing, re-checking or
// re-planning — one compiled plan serves every literal of the statement
// shape. A Prepared is immutable after Prepare and safe for concurrent Run
// calls from multiple goroutines; binding copies the few parameterized plan
// nodes and shares the rest. Plans depend on the relational and BaaV
// schemas and the index catalog, not on the stored data, so a Prepared
// stays valid across Insert/Delete maintenance; DDL (CREATE/DROP INDEX)
// advances the instance's SchemaEpoch, and statements compiled at an older
// epoch should be recompiled (see Epoch).
type Prepared struct {
	in    *Instance
	info  *core.PlanInfo
	src   string
	epoch uint64
	// planText is the template plan rendered once at Prepare: per-query
	// Stats reuse it instead of re-rendering the operator tree on every
	// execution (the rendering was a top allocator under load).
	planText string
}

// Prepare parses, checks and plans a SQL query without executing it. The
// returned statement amortizes the parse/check/plan cost — the hot path for
// repeated queries — across any number of Run calls.
func (in *Instance) Prepare(src string) (*Prepared, error) {
	q, err := ra.Parse(src, in.db)
	if err != nil {
		return nil, err
	}
	epoch := in.epoch.Load()
	info, err := in.checker.Plan(q)
	if err != nil {
		return nil, err
	}
	planText := ""
	if info.Root != nil {
		planText = info.Root.String()
	}
	return &Prepared{in: in, info: info, src: src, epoch: epoch, planText: planText}, nil
}

// SQL returns the statement's source text.
func (p *Prepared) SQL() string { return p.src }

// NumParams returns the number of `?` placeholders the statement carries;
// Run must be given exactly that many values.
func (p *Prepared) NumParams() int {
	if p == nil || p.info == nil {
		return 0
	}
	return p.info.NumParams
}

// Bind validates params against the template (arity, per-slot kinds) and
// returns the statement with them injected: a Prepared of the same epoch
// that takes no params and shares every plan node that carries no slot.
// Run(params...) is Bind(params...) then Run(); binding first is for a
// caller that must learn whether the values fit before it commits to the
// template, such as a serving layer that lifted them out of literal text.
func (p *Prepared) Bind(params ...Value) (*Prepared, error) {
	info, err := p.info.Bind(params)
	if err != nil {
		return nil, err
	}
	bound := *p
	bound.info = info
	return &bound, nil
}

// Epoch returns the catalog epoch the statement was compiled at. When it
// trails the instance's SchemaEpoch, DDL has run since compilation and the
// plan should be recompiled: it may reference a dropped index or miss a
// newly available one.
func (p *Prepared) Epoch() uint64 { return p.epoch }

// ScanFree reports whether the compiled plan scans no KV instance.
func (p *Prepared) ScanFree() bool { return p.info.ScanFree }

// Relations lists the base relations the compiled plan reads, sorted and
// deduplicated. Every block, index posting, and statistic the plan touches
// belongs to one of them: they are the relations whose snapshots a run pins
// and the ones serving layers attribute the statement to.
func (p *Prepared) Relations() []string {
	if p == nil || p.info == nil {
		return nil
	}
	return append([]string{}, p.info.Relations...)
}

// Plan renders the compiled KBA plan (empty for statically empty queries).
func (p *Prepared) Plan() string { return p.planText }

// Run executes the prepared plan in parallel over the BaaV store, binding
// params into the plan template first (a statement without placeholders
// takes no params). Binding validates arity and per-slot types and injects
// the values into the compiled plan — the statement is never re-planned. It
// is safe to call concurrently; each call binds its own copy of the
// parameterized nodes.
func (p *Prepared) Run(params ...Value) (*Result, *Stats, error) {
	return p.RunTraced(nil, params...)
}

// RunTraced is Run with a per-statement trace: when t is non-nil the
// executor records one operator span per plan node (rows, wall time,
// inclusive kv-op deltas, worker fan-out) into t.Root and counts kv ops,
// posting reads and block fetches into t's counters. A nil trace costs
// nothing; Run is RunTraced(nil).
func (p *Prepared) RunTraced(t *obs.Trace, params ...Value) (*Result, *Stats, error) {
	in := p.in
	info, err := p.info.Bind(params)
	if err != nil {
		return nil, nil, err
	}
	view, release := in.pinView(p.info.Relations, t)
	defer release()
	res, m, err := parallel.RunKBATraced(info, view, in.opts.Workers, t)
	if err != nil {
		return nil, nil, err
	}
	stats := in.statsFor(info, m)
	stats.Plan = p.planText
	return res, stats, nil
}

// pinView pins an MVCC snapshot over the statement's relations and returns
// the store view the executor should run against: block and posting reads
// resolve at the pinned sequences, without taking any relation lock, and
// concurrent group commits stay invisible until the snapshot is released.
// The pinned sequences are recorded on the trace when one is given.
func (in *Instance) pinView(rels []string, t *obs.Trace) (*baav.Store, func()) {
	snap := in.store.PinSnapshot(rels)
	view := in.store.AtSnapshot(snap)
	if t != nil {
		t.SnapshotSeqs = snap.Seqs
	}
	return view, snap.Release
}

// statsFor shapes executor metrics into the facade's per-query Stats. The
// caller attaches the plan rendering (Prepared keeps its template rendered
// once; EXPLAIN ANALYZE renders the bound tree).
func (in *Instance) statsFor(info *core.PlanInfo, m *parallel.Metrics) *Stats {
	return &Stats{
		ScanFree:     info.ScanFree,
		Bounded:      info.Bounded(in.store, in.opts.MaxBoundedDegree),
		Gets:         m.Gets,
		DataValues:   m.DataValues,
		ShuffleBytes: m.ShuffleBytes,
		Wall:         m.Wall,
	}
}

// Analyze is EXPLAIN ANALYZE as a prepared-statement method: it executes
// the statement under a trace and returns, in place of the query answer, the
// annotated plan rendering — one "plan" row per line: the classification
// headline, the operator tree with measured rows/time/kv-ops per node, and a
// statement-wide totals line. A non-nil t is used as the statement trace (a
// serving layer passes its own so queue and lock waits land in the same
// counters); nil allocates a fresh one. Stats are those of the execution.
func (p *Prepared) Analyze(t *obs.Trace, params ...Value) (*Result, *Stats, *obs.Trace, error) {
	return p.in.analyzeInfo(t, p.info, params)
}

// analyzeInfo binds and executes a compiled plan under a trace and renders
// the annotated operator tree.
func (in *Instance) analyzeInfo(t *obs.Trace, info *core.PlanInfo, params []Value) (*Result, *Stats, *obs.Trace, error) {
	if t == nil {
		t = &obs.Trace{}
	}
	if info.Empty {
		res := planLinesResult([]string{"empty result (unsatisfiable constants)"})
		return res, &Stats{}, t, nil
	}
	bound, err := info.Bind(params)
	if err != nil {
		return nil, nil, nil, err
	}
	view, release := in.pinView(info.Relations, t)
	defer release()
	ans, m, err := parallel.RunKBATraced(bound, view, in.opts.Workers, t)
	if err != nil {
		return nil, nil, nil, err
	}
	kvs := t.KV.Snapshot()
	lines := []string{fmt.Sprintf("[%s] %s", in.planClass(info), info.Root)}
	lines = append(lines, obs.RenderPlan(t.Root, true)...)
	lines = append(lines, fmt.Sprintf(
		"totals: rows=%d wall=%s kv_ops=%d (gets=%d scan_next=%d puts=%d deletes=%d) rtt=%s posting_reads=%d blocks=%d nodes=%d snapshot=%s",
		len(ans.Rows), m.Wall, kvs.Ops(), kvs.Gets, kvs.ScanNexts, kvs.Puts, kvs.Deletes,
		time.Duration(kvs.WaitNanos), t.PostingReads(), t.Blocks(),
		in.store.Cluster.NodeCount(), RenderSnapshotSeqs(t.SnapshotSeqs)))
	stats := in.statsFor(bound, m)
	if bound.Root != nil {
		stats.Plan = bound.Root.String()
	}
	return planLinesResult(lines), stats, t, nil
}

// planLinesResult shapes rendered plan lines as a one-column result.
func planLinesResult(lines []string) *Result {
	rows := make([]Tuple, len(lines))
	for i, l := range lines {
		rows[i] = Tuple{String(l)}
	}
	return &Result{Cols: []string{"plan"}, Rows: rows}
}

// Explain plans the query without running it and describes the plan and its
// classification.
func (in *Instance) Explain(src string) (string, error) {
	q, err := ra.Parse(src, in.db)
	if err != nil {
		return "", err
	}
	desc, _, err := in.explainQuery(q)
	return desc, err
}

// explainQuery plans a bound query, returning the rendered description and
// the plan's base-relation read set. The first line is the classification
// headline with the compact plan expression; the lines below are the same
// operator tree EXPLAIN ANALYZE annotates, unannotated.
func (in *Instance) explainQuery(q *ra.Query) (string, []string, error) {
	info, err := in.checker.Plan(q)
	if err != nil {
		return "", nil, err
	}
	rels := append([]string{}, info.Relations...)
	if info.Empty {
		return "empty result (unsatisfiable constants)", rels, nil
	}
	lines := []string{fmt.Sprintf("[%s] %s", in.planClass(info), info.Root)}
	lines = append(lines, obs.RenderPlan(kba.PlanTree(info.Root), false)...)
	return strings.Join(lines, "\n"), rels, nil
}

// planClass names a compiled plan's classification for EXPLAIN headlines:
// scan-freeness, boundedness under the instance's degree bound, and whether
// it walks an index range. An equality index lookup is a ∝ step and needs no
// label of its own.
func (in *Instance) planClass(info *core.PlanInfo) string {
	kind := "not scan-free"
	if info.ScanFree {
		kind = "scan-free"
		if info.Bounded(in.store, in.opts.MaxBoundedDegree) {
			kind = "scan-free, bounded"
		}
	}
	if len(info.Ranges) > 0 {
		kind += ", index-range"
	}
	return kind
}

// Insert maintains the BaaV store and every secondary index on the
// relation for one inserted tuple through the relation's group committer:
// blocks and postings change in one commit, so readers admitted at the new
// sequence see a consistent pair, and readers pinned below it see neither.
//
// The three stores move together or not at all — structurally, not by
// compensation: every fallible step (validation, block and posting reads,
// decoding) happens while staging, before anything is written, and a
// staging failure aborts the whole batch with the relation rolled back.
func (in *Instance) Insert(rel string, t Tuple) error {
	return in.submitWrite(rel, &writeOp{insertRows: []Tuple{t}}).err
}

// Delete maintains the BaaV store and every secondary index on the
// relation for one deleted tuple, through the same group committer as
// Insert and with the same all-or-nothing staging discipline. Deleting a
// tuple the relation does not hold is a no-op, not an error.
func (in *Instance) Delete(rel string, t Tuple) error {
	return in.submitWrite(rel, &writeOp{match: t.Equal, unique: true}).err
}

// DataPreserving checks Condition (I) for the instance's schema; when it
// holds, the BaaV store alone can answer any query and the base TaaV store
// can be dropped.
func (in *Instance) DataPreserving() (bool, []string) {
	return in.checker.DataPreserving()
}

// ScanFree checks whether a query is scan-free over the instance's schema
// (Condition (III)) without executing it.
func (in *Instance) ScanFree(src string) (bool, error) {
	q, err := ra.Parse(src, in.db)
	if err != nil {
		return false, err
	}
	return in.checker.ScanFree(q), nil
}

// ExecResult is the outcome of Exec: a result set for SELECT and EXPLAIN,
// an affected row count for INSERT, DELETE and CREATE INDEX.
type ExecResult struct {
	// Result and Stats are set for SELECT statements (EXPLAIN sets only
	// Result).
	Result *Result
	Stats  *Stats
	// Affected is the number of rows inserted or deleted, or the number of
	// tuples backfilled by CREATE INDEX.
	Affected int
	// SchemaChanged marks catalog-changing DDL: the instance's SchemaEpoch
	// advanced, and every plan compiled before it is stale (Prepared.Epoch).
	SchemaChanged bool
	// Relations lists the base relations the statement touched: the read
	// set for SELECT and EXPLAIN, the written relation for INSERT and
	// DELETE, the indexed relation for CREATE/DROP INDEX.
	Relations []string
}

// StmtKind classifies a SQL statement for scheduling: serving layers pick
// how to admit it by kind before executing (reads and writes run
// concurrently, DDL excludes everything).
type StmtKind int

const (
	// StmtSelect is a SELECT query: a pure read over its plan's relations.
	StmtSelect StmtKind = iota
	// StmtInsert and StmtDelete write one target relation (blocks, index
	// postings, and the relation's tuples move together).
	StmtInsert
	StmtDelete
	// StmtDDL changes the catalog (CREATE INDEX / DROP INDEX): it
	// invalidates compiled plans, so it must exclude every other statement.
	StmtDDL
	// StmtExplain plans a query without touching any data.
	StmtExplain
	// StmtExplainAnalyze plans AND executes the wrapped query, so serving
	// layers schedule it like a read, under a statement trace.
	StmtExplainAnalyze
	// StmtShow reads serving-layer state (SHOW STATEMENTS): no data access,
	// no locks. Only a serving layer can answer it — the embedded instance
	// has no statement registry.
	StmtShow
)

// StatementInfo classifies a statement without executing it. Serving layers
// call it to schedule the statement: only DDL needs the instance to itself.
func StatementInfo(src string) (StmtKind, error) {
	stmt, err := sqlpkg.ParseStatement(src)
	if err != nil {
		return 0, err
	}
	switch s := stmt.(type) {
	case *sqlpkg.Query:
		return StmtSelect, nil
	case *sqlpkg.Insert:
		return StmtInsert, nil
	case *sqlpkg.Delete:
		return StmtDelete, nil
	case *sqlpkg.CreateIndex, *sqlpkg.DropIndex:
		return StmtDDL, nil
	case *sqlpkg.Explain:
		if s.Analyze {
			return StmtExplainAnalyze, nil
		}
		return StmtExplain, nil
	case *sqlpkg.Show:
		return StmtShow, nil
	default:
		return 0, fmt.Errorf("zidian: unsupported statement")
	}
}

// Exec parses and runs one SQL statement: SELECT queries the BaaV store;
// INSERT and DELETE update the database and incrementally maintain the
// blocks and index postings (module M4); CREATE INDEX / DROP INDEX change
// the secondary-index catalog and advance the schema epoch; EXPLAIN
// <select> returns the plan description as a one-row result, and EXPLAIN
// ANALYZE <select> executes the query and returns the annotated operator
// tree, one row per rendered line. DELETE
// supports conjunctive predicates over the target relation's own
// attributes. SELECT, INSERT and DELETE accept `?` placeholders bound
// positionally by params; DDL does not (a placeholder there is a parse
// error, and passing params alongside DDL is rejected).
func (in *Instance) Exec(src string, params ...Value) (*ExecResult, error) {
	return in.ExecTraced(nil, src, params...)
}

// ExecTraced is Exec with a per-statement trace: SELECT records operator
// spans and kv counters into t, INSERT/DELETE count their block and posting
// maintenance kv ops, and EXPLAIN ANALYZE uses t as the execution trace. A
// nil trace costs nothing; Exec is ExecTraced(nil).
func (in *Instance) ExecTraced(t *obs.Trace, src string, params ...Value) (*ExecResult, error) {
	stmt, err := sqlpkg.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	if want := sqlpkg.StatementParams(stmt); len(params) != want {
		if _, ok := stmt.(*sqlpkg.Explain); !ok {
			return nil, fmt.Errorf("zidian: statement wants %d parameters, got %d", want, len(params))
		}
	}
	switch s := stmt.(type) {
	case *sqlpkg.Query:
		p, err := in.Prepare(src)
		if err != nil {
			return nil, err
		}
		res, stats, err := p.RunTraced(t, params...)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Result: res, Stats: stats, Relations: p.Relations()}, nil
	case *sqlpkg.Insert:
		rows, err := bindInsertRows(in.db, s, params)
		if err != nil {
			return nil, err
		}
		out := in.submitWrite(s.Table, &writeOp{insertRows: rows, kvt: t.KVCounters(), trace: t})
		if out.err != nil {
			return nil, out.err
		}
		return &ExecResult{Affected: out.affected, Relations: []string{s.Table}}, nil
	case *sqlpkg.Delete:
		rel := in.db.Relation(s.Table)
		if rel == nil {
			return nil, fmt.Errorf("zidian: unknown relation %q", s.Table)
		}
		match, unique, err := compileDeletePreds(rel.Schema, s, params)
		if err != nil {
			return nil, err
		}
		// The predicate is evaluated inside the committer, against the
		// relation as of this operation's slot in its batch — a doomed set
		// computed here could go stale while the op waits in the queue.
		out := in.submitWrite(s.Table, &writeOp{match: match, unique: unique, kvt: t.KVCounters(), trace: t})
		if out.err != nil {
			return nil, out.err
		}
		return &ExecResult{Affected: out.affected, Relations: []string{s.Table}}, nil
	case *sqlpkg.CreateIndex:
		rel := in.db.Relation(s.Table)
		if rel == nil {
			return nil, fmt.Errorf("zidian: unknown relation %q", s.Table)
		}
		n, err := in.store.CreateIndex(s.Name, s.Table, s.Attr, rel.Tuples)
		if err != nil {
			return nil, err
		}
		in.epoch.Add(1)
		return &ExecResult{Affected: n, SchemaChanged: true, Relations: []string{s.Table}}, nil
	case *sqlpkg.DropIndex:
		rel, err := in.store.DropIndex(s.Name)
		if err != nil {
			return nil, err
		}
		in.epoch.Add(1)
		return &ExecResult{SchemaChanged: true, Relations: []string{rel}}, nil
	case *sqlpkg.Explain:
		q, err := ra.Bind(s.Query, in.db)
		if err != nil {
			return nil, err
		}
		if s.Analyze {
			info, err := in.checker.Plan(q)
			if err != nil {
				return nil, err
			}
			rels := append([]string{}, info.Relations...)
			res, stats, _, err := in.analyzeInfo(t, info, params)
			if err != nil {
				return nil, err
			}
			return &ExecResult{Result: res, Stats: stats, Relations: rels}, nil
		}
		plan, rels, err := in.explainQuery(q)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Result: &Result{
			Cols: []string{"plan"},
			Rows: []Tuple{{String(plan)}},
		}, Relations: rels}, nil
	case *sqlpkg.Show:
		return nil, fmt.Errorf("zidian: SHOW %s requires a serving layer (statement statistics live in the server, not the embedded instance)", s.What)
	default:
		return nil, fmt.Errorf("zidian: unsupported statement")
	}
}

// deleteProbe is the primary-key fast path for DELETE: when the WHERE
// clause is a conjunction of equality predicates covering exactly the
// relation's declared key, at most one tuple can match, so the committer
// compares the key alone and stops at the first hit instead of evaluating
// the compiled predicate chain over the whole relation — the dominant CPU
// cost of point deletes on large relations.
type deleteProbe struct {
	pos  []int
	vals []Value
}

// match reports whether t carries the probe's key values.
func (p *deleteProbe) match(t Tuple) bool {
	for i, at := range p.pos {
		if relation.Compare(t[at], p.vals[i]) != 0 {
			return false
		}
	}
	return true
}

// compileDeletePreds compiles a DELETE's WHERE clause against the target
// relation's schema; column references may be bare or table-qualified, and
// value positions may be `?` placeholders bound from params (validated
// against the referenced column's kind). For the key-equality form
// described on deleteProbe it returns the probe's match, unique; otherwise
// the compiled predicate.
func compileDeletePreds(schema *RelSchema, s *sqlpkg.Delete, params []Value) (match func(Tuple) bool, unique bool, err error) {
	var preds []kba.Pred
	colName := func(c sqlpkg.Col) (string, error) {
		if c.Table != "" && c.Table != s.Table {
			return "", fmt.Errorf("zidian: DELETE predicates must reference %s, found %s", s.Table, c)
		}
		if !schema.Has(c.Name) {
			return "", fmt.Errorf("zidian: relation %s has no attribute %q", s.Table, c.Name)
		}
		return c.Name, nil
	}
	bindTo := func(pr *sqlpkg.Param, attr string) (Value, error) {
		if pr.Index < 0 || pr.Index >= len(params) {
			return Value{}, fmt.Errorf("zidian: parameter slot %d out of range (have %d)", pr.Index, len(params))
		}
		kind := relation.KindNull
		if i := schema.Index(attr); i >= 0 {
			kind = schema.Attrs[i].Kind
		}
		v, err := relation.CoerceKind(params[pr.Index], kind)
		if err != nil {
			return Value{}, fmt.Errorf("zidian: parameter %d: %w", pr.Index, err)
		}
		return v, nil
	}
	// eq tracks attr -> literal while every predicate stays a plain
	// equality; one non-equality (or a repeated attribute) disables the
	// key-probe fast path.
	eq := make(map[string]Value, len(s.Where))
	eqOK := true
	for _, p := range s.Where {
		left, err := colName(p.Left)
		if err != nil {
			return nil, false, err
		}
		pred := kba.Pred{Attr: left, Op: p.Op, In: p.In}
		switch {
		case p.IsIn():
			// Copy before appending bound values: p.In belongs to the
			// parsed statement, which must stay reusable.
			pred.In = append([]Value{}, p.In...)
			for _, pr := range p.InParams {
				v, err := bindTo(&pr, left)
				if err != nil {
					return nil, false, err
				}
				pred.In = append(pred.In, v)
			}
			eqOK = false
		case p.Right != nil:
			right, err := colName(*p.Right)
			if err != nil {
				return nil, false, err
			}
			pred.RAttr = right
			eqOK = false
		case p.Param != nil:
			v, err := bindTo(p.Param, left)
			if err != nil {
				return nil, false, err
			}
			pred.Lit = &v
		case p.Lit != nil:
			lit := *p.Lit
			pred.Lit = &lit
		}
		if pred.Lit != nil {
			if _, dup := eq[left]; dup || p.Op != sqlpkg.OpEq {
				eqOK = false
			} else {
				eq[left] = *pred.Lit
			}
		}
		preds = append(preds, pred)
	}
	check, err := kba.CompilePreds(schema.AttrNames(), preds)
	if err != nil {
		return nil, false, err
	}
	if !eqOK || len(schema.Key) == 0 || len(eq) != len(schema.Key) {
		return check, false, nil
	}
	probe := &deleteProbe{}
	for _, k := range schema.Key {
		v, ok := eq[k]
		if !ok {
			return check, false, nil
		}
		probe.pos = append(probe.pos, schema.Index(k))
		probe.vals = append(probe.vals, v)
	}
	return probe.match, true, nil
}

// bindInsertRows resolves an INSERT's rows, substituting bound parameters
// at their placeholder positions and validating each against the target
// column's declared kind.
func bindInsertRows(db *Database, s *sqlpkg.Insert, params []Value) ([]Tuple, error) {
	rel := db.Relation(s.Table)
	if rel == nil {
		return nil, fmt.Errorf("zidian: unknown relation %q", s.Table)
	}
	out := make([]Tuple, len(s.Rows))
	for ri, row := range s.Rows {
		t := make(Tuple, len(row))
		copy(t, row)
		if s.Params != nil {
			for ci, pr := range s.Params[ri] {
				if pr == nil {
					continue
				}
				if pr.Index < 0 || pr.Index >= len(params) {
					return nil, fmt.Errorf("zidian: parameter slot %d out of range (have %d)", pr.Index, len(params))
				}
				kind := relation.KindNull
				if ci < len(rel.Schema.Attrs) {
					kind = rel.Schema.Attrs[ci].Kind
				}
				v, err := relation.CoerceKind(params[pr.Index], kind)
				if err != nil {
					return nil, fmt.Errorf("zidian: parameter %d: %w", pr.Index, err)
				}
				t[ci] = v
			}
		}
		out[ri] = t
	}
	return out, nil
}

// DesignSchema runs T2B: it extracts QCS access patterns from the workload
// queries and designs a BaaV schema under the storage budget (0 = no
// budget). With ensurePreserving, a primary-key schema per relation is
// added so the result is data preserving.
func DesignSchema(db *Database, workloadSQL []string, budget int64, ensurePreserving bool) (*BaaVSchema, *DesignReport, error) {
	var queries []*ra.Query
	for _, src := range workloadSQL {
		q, err := ra.Parse(src, db)
		if err != nil {
			return nil, nil, err
		}
		queries = append(queries, q)
	}
	d := &qcs.Designer{Rels: baav.RelSchemas(db), Workload: queries}
	return d.Design(db, qcs.Config{Budget: budget, EnsurePreserving: ensurePreserving})
}
