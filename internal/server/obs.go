package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"zidian"
	"zidian/internal/obs"
	"zidian/internal/relation"
)

// Statement verbs used as metric label values and slow-log kinds.
const (
	verbSelect         = "select"
	verbInsert         = "insert"
	verbDelete         = "delete"
	verbDDL            = "ddl"
	verbExplain        = "explain"
	verbExplainAnalyze = "explain_analyze"
	verbShow           = "show"
)

// serverObs is the server's observability surface: the metrics registry
// behind /metrics, the per-statement measurement context, and the
// slow-query log. A nil *serverObs (Config.DisableMetrics) is fully inert —
// every method is nil-safe, begin returns a nil context, and the nil trace
// it yields turns off counting all the way down to the kv cluster.
type serverObs struct {
	reg *obs.Registry

	queries  *obs.CounterVec   // zidian_queries_total{verb}
	errs     *obs.CounterVec   // zidian_query_errors_total{reason}
	latency  *obs.HistogramVec // zidian_query_duration_seconds{verb}
	admWait  *obs.Histogram    // zidian_admission_wait_seconds
	lockWait *obs.Histogram    // zidian_lock_wait_seconds
	postings *obs.Counter      // zidian_index_posting_reads_total
	blocks   *obs.Counter      // zidian_blocks_fetched_total
	batch    *obs.Histogram    // zidian_commit_batch_size

	// stmts is the per-template statistics registry behind
	// /stats/statements and SHOW STATEMENTS; stmtTopK bounds how many
	// templates the per-template /metrics families export.
	stmts    *obs.StmtStats
	stmtTopK int

	// capture, when non-nil, streams one anonymized JSON line per finished
	// statement for later replay.
	capture *captureLog

	slowThreshold time.Duration
	slowMaxBytes  int64
	slowDropped   *obs.Counter // zidian_slow_query_dropped_total
	slowMu        sync.Mutex
	slowOut       io.Writer
	slowBytes     int64 // bytes written since start/last rotation, under slowMu
}

// newServerObs builds the registry and registers every family the server
// exposes. Pre-existing stats structs (admission gate, plan cache, kv node
// metrics, session counters) join via pull-style RegisterFunc closures so
// their own bookkeeping stays untouched.
func newServerObs(s *Server, cfg Config) *serverObs {
	o := &serverObs{
		reg:           obs.NewRegistry(),
		stmts:         obs.NewStmtStats(cfg.StmtStatsCapacity),
		stmtTopK:      cfg.StmtMetricsTopK,
		capture:       newCaptureLog(cfg.CaptureLog),
		slowThreshold: cfg.SlowQueryThreshold,
		slowMaxBytes:  cfg.SlowQueryMaxBytes,
		slowOut:       cfg.SlowQueryLog,
	}
	r := o.reg
	o.queries = r.NewCounterVec("zidian_queries_total",
		"Statements executed, by verb.", "verb")
	o.errs = r.NewCounterVec("zidian_query_errors_total",
		"Statements failed, by reason.", "reason")
	o.latency = r.NewHistogramVec("zidian_query_duration_seconds",
		"End-to-end statement wall time inside the server, by verb.", "verb", nil)
	o.admWait = r.NewHistogram("zidian_admission_wait_seconds",
		"Time statements spent queued at the admission gate, including waits that ended in rejection or timeout.", nil)
	o.lockWait = r.NewHistogram("zidian_lock_wait_seconds",
		"Time statements spent waiting at the statement gate (nonzero only around DDL).", nil)
	o.postings = r.NewCounter("zidian_index_posting_reads_total",
		"Secondary-index posting entries read by traced statements.")
	o.blocks = r.NewCounter("zidian_blocks_fetched_total",
		"BaaV blocks fetched and decoded by traced statements.")
	o.slowDropped = r.NewCounter("zidian_slow_query_dropped_total",
		"Slow-query log lines dropped by the size cap.")
	// Batch sizes ride the histogram machinery by encoding a batch of n
	// statements as n "seconds": bucket upper bounds are statement counts.
	o.batch = r.NewHistogram("zidian_commit_batch_size",
		"Statements folded into one group commit, per installed batch.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	if s != nil && s.inst != nil { // tests exercise the obs layer serverless
		s.inst.SetCommitObserver(func(n int) {
			o.batch.Observe(time.Duration(n) * time.Second)
		})
	}

	r.RegisterFunc("zidian_commit_seq",
		"Installed MVCC commit sequence, per relation.", "counter", "rel",
		func() []obs.Sample {
			rels := s.inst.Relations()
			out := make([]obs.Sample, len(rels))
			for i, rel := range rels {
				out[i] = obs.Sample{Label: rel, Value: float64(s.inst.CommitSeq(rel))}
			}
			return out
		})
	r.RegisterFunc("zidian_mvcc_versions_live",
		"Block versions currently held in the version directory.", "gauge", "",
		func() []obs.Sample {
			live, _ := s.inst.MVCCVersions()
			return []obs.Sample{{Value: float64(live)}}
		})
	r.RegisterFunc("zidian_mvcc_versions_reclaimed_total",
		"Retired block versions physically reclaimed since open.", "counter", "",
		func() []obs.Sample {
			_, reclaimed := s.inst.MVCCVersions()
			return []obs.Sample{{Value: float64(reclaimed)}}
		})
	r.RegisterFunc("zidian_mvcc_versions_swept_total",
		"Retired block versions reclaimed by the background sweep (a subset of the reclaimed total).", "counter", "",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.inst.MVCCSwept())}}
		})

	r.RegisterFunc("zidian_stmt_seconds_total",
		"Total statement wall time for the top-K templates by total time.", "counter", "template",
		func() []obs.Sample {
			top := o.stmts.TopTemplates(o.stmtTopK)
			out := make([]obs.Sample, len(top))
			for i, t := range top {
				out[i] = obs.Sample{Label: t.Template, Value: t.Seconds}
			}
			return out
		})
	r.RegisterFunc("zidian_stmt_calls_total",
		"Statement calls for the top-K templates by total time.", "counter", "template",
		func() []obs.Sample {
			top := o.stmts.TopTemplates(o.stmtTopK)
			out := make([]obs.Sample, len(top))
			for i, t := range top {
				out[i] = obs.Sample{Label: t.Template, Value: float64(t.Calls)}
			}
			return out
		})
	r.RegisterFunc("zidian_stmt_kv_ops_total",
		"Traced KV operations for the top-K templates by total time.", "counter", "template",
		func() []obs.Sample {
			top := o.stmts.TopTemplates(o.stmtTopK)
			out := make([]obs.Sample, len(top))
			for i, t := range top {
				out[i] = obs.Sample{Label: t.Template, Value: float64(t.KVOps)}
			}
			return out
		})
	r.RegisterFunc("zidian_stmt_templates",
		"Statement templates currently tracked by the statistics registry.", "gauge", "",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(o.stmts.Tracked())}}
		})
	r.RegisterFunc("zidian_stmt_templates_evicted_total",
		"Statement templates evicted from the statistics registry (totals fold into the _evicted bucket).", "counter", "",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(o.stmts.Evictions())}}
		})

	r.RegisterFunc("zidian_admission_in_flight",
		"Statements currently holding an execution slot.", "gauge", "",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.adm.Stats().InFlight)}}
		})
	r.RegisterFunc("zidian_admission_waiting",
		"Statements currently queued for an execution slot.", "gauge", "",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.adm.Stats().Waiting)}}
		})
	r.RegisterFunc("zidian_admission_total",
		"Admission gate outcomes, by result.", "counter", "result",
		func() []obs.Sample {
			st := s.adm.Stats()
			return []obs.Sample{
				{Label: "admitted", Value: float64(st.Admitted)},
				{Label: "rejected", Value: float64(st.Rejected)},
				{Label: "timed_out", Value: float64(st.TimedOut)},
			}
		})
	r.RegisterFunc("zidian_plan_cache_events_total",
		"Plan cache activity, by event.", "counter", "event",
		func() []obs.Sample {
			st := s.Cache().Stats()
			return []obs.Sample{
				{Label: "hit", Value: float64(st.Hits)},
				{Label: "miss", Value: float64(st.Misses)},
				{Label: "eviction", Value: float64(st.Evictions)},
				{Label: "params_hit", Value: float64(st.ParamsHits)},
				{Label: "lifted_hit", Value: float64(st.LiftedHits)},
				{Label: "literal_hit", Value: float64(st.LiteralHits)},
				{Label: "invalidation", Value: float64(st.Invalidations)},
				{Label: "stale_drop", Value: float64(st.StaleDrops)},
			}
		})
	r.RegisterFunc("zidian_plan_cache_size",
		"Compiled plans currently cached.", "gauge", "",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.cache.Len())}}
		})
	r.RegisterFunc("zidian_plan_cache_epoch",
		"Schema epoch of the served instance; cached plans behind it are stale.", "gauge", "",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.inst.SchemaEpoch())}}
		})
	r.RegisterFunc("zidian_kv_ops_total",
		"KV operations served by the storage nodes, by op.", "counter", "op",
		func() []obs.Sample {
			m := s.inst.Store().Cluster.Metrics()
			return []obs.Sample{
				{Label: "delete", Value: float64(m.Deletes)},
				{Label: "get", Value: float64(m.Gets)},
				{Label: "put", Value: float64(m.Puts)},
				{Label: "scan_next", Value: float64(m.ScanNexts)},
			}
		})
	r.RegisterFunc("zidian_kv_bytes_total",
		"Bytes moved between the SQL layer and the storage nodes, by direction.", "counter", "dir",
		func() []obs.Sample {
			m := s.inst.Store().Cluster.Metrics()
			return []obs.Sample{
				{Label: "read", Value: float64(m.BytesRead)},
				{Label: "written", Value: float64(m.BytesWritten)},
			}
		})
	// Per-node families: the same op/byte totals broken out by storage
	// node, so shard skew and hot nodes are visible without a trace.
	r.RegisterFunc("zidian_kv_node_ops_total",
		"KV operations served, by storage node (all op kinds).", "counter", "node",
		func() []obs.Sample {
			cl := s.inst.Store().Cluster
			out := make([]obs.Sample, cl.NodeCount())
			for i := range out {
				m := cl.NodeMetrics(i)
				out[i] = obs.Sample{Label: strconv.Itoa(i),
					Value: float64(m.Gets + m.Puts + m.Deletes + m.ScanNexts)}
			}
			return out
		})
	r.RegisterFunc("zidian_kv_node_reads_total",
		"KV read operations (gets and scan steps) served, by storage node.", "counter", "node",
		func() []obs.Sample {
			cl := s.inst.Store().Cluster
			out := make([]obs.Sample, cl.NodeCount())
			for i := range out {
				m := cl.NodeMetrics(i)
				out[i] = obs.Sample{Label: strconv.Itoa(i), Value: float64(m.Gets + m.ScanNexts)}
			}
			return out
		})
	r.RegisterFunc("zidian_kv_node_writes_total",
		"KV write operations (puts and deletes) served, by storage node.", "counter", "node",
		func() []obs.Sample {
			cl := s.inst.Store().Cluster
			out := make([]obs.Sample, cl.NodeCount())
			for i := range out {
				m := cl.NodeMetrics(i)
				out[i] = obs.Sample{Label: strconv.Itoa(i), Value: float64(m.Puts + m.Deletes)}
			}
			return out
		})
	r.RegisterFunc("zidian_kv_node_bytes_read_total",
		"Bytes read from storage, by storage node.", "counter", "node",
		func() []obs.Sample {
			cl := s.inst.Store().Cluster
			out := make([]obs.Sample, cl.NodeCount())
			for i := range out {
				out[i] = obs.Sample{Label: strconv.Itoa(i), Value: float64(cl.NodeMetrics(i).BytesRead)}
			}
			return out
		})
	r.RegisterFunc("zidian_kv_node_bytes_written_total",
		"Bytes written to storage, by storage node.", "counter", "node",
		func() []obs.Sample {
			cl := s.inst.Store().Cluster
			out := make([]obs.Sample, cl.NodeCount())
			for i := range out {
				out[i] = obs.Sample{Label: strconv.Itoa(i), Value: float64(cl.NodeMetrics(i).BytesWritten)}
			}
			return out
		})
	r.RegisterFunc("zidian_kv_node_write_hold_seconds_total",
		"Time write batches held a storage node's lock exclusively, stalling its readers, by storage node.", "counter", "node",
		func() []obs.Sample {
			cl := s.inst.Store().Cluster
			out := make([]obs.Sample, cl.NodeCount())
			for i := range out {
				out[i] = obs.Sample{Label: strconv.Itoa(i), Value: cl.NodeMetrics(i).WriteHold.Seconds()}
			}
			return out
		})
	r.RegisterFunc("zidian_sessions",
		"Open wire-protocol sessions.", "gauge", "",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.sessions.Load())}}
		})
	r.RegisterFunc("zidian_sessions_total",
		"Wire-protocol sessions accepted since start.", "counter", "",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.totalSess.Load())}}
		})
	r.RegisterFunc("zidian_uptime_seconds",
		"Seconds since the server started.", "gauge", "",
		func() []obs.Sample {
			return []obs.Sample{{Value: time.Since(s.started).Seconds()}}
		})
	// The Go collector, read from runtime/metrics at scrape time: no
	// stop-the-world, nothing per statement.
	for _, m := range []struct{ name, help, typ, sample string }{
		{"zidian_go_heap_live_bytes", "Heap bytes the last GC cycle marked live.", "gauge", "/gc/heap/live:bytes"},
		{"zidian_go_heap_objects", "Heap objects, live or not yet swept.", "gauge", "/gc/heap/objects:objects"},
		{"zidian_go_gc_cycles_total", "Completed GC cycles since the process started.", "counter", "/gc/cycles/total:gc-cycles"},
		{"zidian_go_gc_cpu_seconds_total", "Estimated CPU time the GC has spent since the process started.", "counter", "/cpu/classes/gc/total:cpu-seconds"},
	} {
		r.RegisterFunc(m.name, m.help, m.typ, "", func() []obs.Sample {
			return []obs.Sample{{Value: runtimeMetric(m.sample)}}
		})
	}
	return o
}

// runtimeMetric reads one runtime/metrics sample as a float.
func runtimeMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	default:
		return 0
	}
}

// begin opens a per-statement measurement context. Nil receiver → nil
// context → nil trace, so a disabled server pays only nil checks. The trace
// carries counters only — all that finish and the slow log read — except
// under EXPLAIN ANALYZE, the one verb whose answer is the operator tree.
func (o *serverObs) begin(verb string) *stmtCtx {
	if o == nil {
		return nil
	}
	trace := obs.CountersOnly()
	if verb == verbExplainAnalyze {
		trace = &obs.Trace{}
	}
	return &stmtCtx{o: o, verb: verb, trace: trace, start: time.Now()}
}

// stmtCtx measures one statement through the serving layer: it owns the
// statement's trace, records where time went (queue, gate, execution), and
// on finish folds everything into the registry and — when the statement was
// slow or failed slow — the slow-query log. All methods are nil-safe.
type stmtCtx struct {
	o         *serverObs
	verb      string
	template  string   // anonymized statement text: literals replaced by ?
	binds     []string // kinds of bound/replaced values, in order
	session   uint64   // originating wire session (0 for HTTP)
	relations []string
	cacheHit  bool
	trace     *obs.Trace
	start     time.Time
	done      bool
}

// Trace returns the statement's trace (nil when metrics are disabled).
func (c *stmtCtx) Trace() *obs.Trace {
	if c == nil {
		return nil
	}
	return c.trace
}

// setStmt derives, from the normalized statement text, the anonymized
// template and bind-kind list that key the statistics registry and the
// capture stream. params are the statement's bound values — sent by the
// client or lifted from its text; their kinds fill the positions of the ?
// placeholders and the values are never kept. A lifted template still goes
// through the anonymizer: the range literals the lift leaves in the text
// must not reach the feed either.
func (c *stmtCtx) setStmt(norm string, params []relation.Value) {
	if c == nil {
		return
	}
	c.template, c.binds = AnonymizeSQL(norm, params)
}

// setSession records the originating wire session for capture.
func (c *stmtCtx) setSession(id uint64) {
	if c == nil {
		return
	}
	c.session = id
}

// setRelations records the statement's relation footprint.
func (c *stmtCtx) setRelations(rels []string) {
	if c == nil {
		return
	}
	c.relations = rels
}

// admissionWait records time spent at the admission gate. It is called on
// every acquire — successful or not — so a statement that times out in the
// queue still reports where its latency went.
func (c *stmtCtx) admissionWait(d time.Duration) {
	if c == nil {
		return
	}
	c.trace.QueueWaitNanos += int64(d)
	c.o.admWait.Observe(d)
}

// locksWait records time spent waiting at the statement gate.
func (c *stmtCtx) locksWait(d time.Duration) {
	if c == nil {
		return
	}
	c.trace.LockWaitNanos += int64(d)
	c.o.lockWait.Observe(d)
}

// finish closes the statement: verb and latency counters, error counters by
// reason, trace-derived posting/block totals, and the slow-query log when
// the statement exceeded the threshold. Idempotent so retry loops can call
// it once per statement regardless of exit path.
func (c *stmtCtx) finish(rows int, cacheHit bool, err error) {
	if c == nil || c.done {
		return
	}
	c.done = true
	c.cacheHit = cacheHit
	wall := time.Since(c.start)
	c.o.queries.With(c.verb).Inc()
	c.o.latency.With(c.verb).Observe(wall)
	if err != nil {
		c.o.errs.With(errorCode(err)).Inc()
	}
	c.o.postings.Add(c.trace.PostingReads())
	c.o.blocks.Add(c.trace.Blocks())
	// Fold into the per-template registry with the same wall value the
	// global histogram observed, so per-template sums reconcile exactly
	// against the global families.
	c.o.stmts.Record(obs.StmtUsage{
		Verb:           c.verb,
		Template:       c.template,
		Wall:           wall,
		Rows:           int64(rows),
		Err:            err != nil,
		CacheHit:       cacheHit,
		KV:             c.trace.KV.Snapshot(),
		PostingReads:   c.trace.PostingReads(),
		Blocks:         c.trace.Blocks(),
		QueueWaitNanos: c.trace.QueueWaitNanos,
		LockWaitNanos:  c.trace.LockWaitNanos,
		Relations:      c.relations,
	})
	c.o.capture.record(CaptureEntry{
		Session:  c.session,
		Verb:     c.verb,
		Template: c.template,
		Binds:    c.binds,
		Rows:     int64(rows),
		OK:       err == nil,
	})
	c.o.logSlow(c, rows, wall, err)
}

// slowEntry is one slow-query log line: everything needed to understand an
// offending statement without re-running it — the template (never literal
// values), where the time went layer by layer, and what the statement
// touched.
type slowEntry struct {
	TS              string   `json:"ts"`
	Verb            string   `json:"verb"`
	Template        string   `json:"template"`
	BindArity       int      `json:"bindArity"`
	Relations       []string `json:"relations,omitempty"`
	Rows            int      `json:"rows"`
	WallMicros      int64    `json:"wallMicros"`
	QueueWaitMicros int64    `json:"queueWaitMicros"`
	LockWaitMicros  int64    `json:"lockWaitMicros"`
	// Snapshot renders the MVCC sequences the statement's reads pinned
	// ("REL:seq,..."), CommitWaitMicros the time a write sat in its
	// relation's group-commit queue.
	Snapshot         string         `json:"snapshot,omitempty"`
	CommitWaitMicros int64          `json:"commitWaitMicros,omitempty"`
	KV               obs.KVSnapshot `json:"kv"`
	PostingReads     int64          `json:"postingReads"`
	BlocksFetched    int64          `json:"blocksFetched"`
	CacheHit         bool           `json:"cacheHit"`
	Error            string         `json:"error,omitempty"`
	Code             string         `json:"code,omitempty"`
}

// logSlow emits one JSON line when the statement's wall time crossed the
// threshold. Failed statements are logged too — a queue timeout is exactly
// the kind of slowness the log exists to explain.
func (o *serverObs) logSlow(c *stmtCtx, rows int, wall time.Duration, err error) {
	if o.slowThreshold <= 0 || o.slowOut == nil || wall < o.slowThreshold {
		return
	}
	e := slowEntry{
		TS:               time.Now().UTC().Format(time.RFC3339Nano),
		Verb:             c.verb,
		Template:         c.template,
		BindArity:        len(c.binds),
		Relations:        c.relations,
		Rows:             rows,
		WallMicros:       wall.Microseconds(),
		QueueWaitMicros:  c.trace.QueueWaitNanos / 1e3,
		LockWaitMicros:   c.trace.LockWaitNanos / 1e3,
		KV:               c.trace.KV.Snapshot(),
		PostingReads:     c.trace.PostingReads(),
		BlocksFetched:    c.trace.Blocks(),
		CacheHit:         c.cacheHit,
		CommitWaitMicros: c.trace.CommitWaitNanos / 1e3,
	}
	if len(c.trace.SnapshotSeqs) > 0 {
		e.Snapshot = zidian.RenderSnapshotSeqs(c.trace.SnapshotSeqs)
	}
	if err != nil {
		e.Error = err.Error()
		e.Code = errorCode(err)
	}
	line, merr := json.Marshal(&e)
	if merr != nil {
		return
	}
	line = append(line, '\n')
	o.slowMu.Lock()
	defer o.slowMu.Unlock()
	if o.slowMaxBytes > 0 {
		if int64(len(line)) > o.slowMaxBytes {
			// A single line larger than the whole cap can never fit.
			o.slowDropped.Inc()
			return
		}
		if o.slowBytes+int64(len(line)) > o.slowMaxBytes {
			// Cap reached: rotate when the sink supports it, otherwise
			// drop and count — the log must never outgrow its bound.
			rot, ok := o.slowOut.(interface{ Rotate() error })
			if !ok || rot.Rotate() != nil {
				o.slowDropped.Inc()
				return
			}
			o.slowBytes = 0
		}
	}
	n, _ := o.slowOut.Write(line)
	o.slowBytes += int64(n)
}

// errorCode maps a statement error to the machine-readable code carried in
// the response payload and the slow-query log: backpressure and shutdown
// conditions keep distinct codes so clients can tell retryable rejections
// from statement faults.
func errorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrQueueTimeout):
		return "queue_timeout"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "statement"
	}
}
