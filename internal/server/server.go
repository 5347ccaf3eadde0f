package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zidian"
	"zidian/internal/obs"
	sqlpkg "zidian/internal/sql"
)

// Config tunes a Server. The zero value picks serving defaults suitable for
// tests and small deployments.
type Config struct {
	// MaxConcurrent bounds the number of statements executing at once
	// (default 2×CPU-ish: 8).
	MaxConcurrent int
	// QueueDepth bounds how many admitted connections may wait for an
	// execution slot (default 4×MaxConcurrent).
	QueueDepth int
	// QueueTimeout bounds how long a statement may wait for a slot
	// (default 1s).
	QueueTimeout time.Duration
	// PlanCacheSize bounds the shared plan cache (default 4096 plans).
	PlanCacheSize int
	// MaxLineBytes bounds one wire-protocol line (default 1 MiB).
	MaxLineBytes int
	// SlowQueryThreshold, when positive, emits one structured JSON line to
	// SlowQueryLog for every statement whose server-side wall time meets or
	// exceeds it (including statements that failed slowly, e.g. queue
	// timeouts). Zero disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines (default os.Stderr when a
	// threshold is set).
	SlowQueryLog io.Writer
	// SlowQueryMaxBytes, when positive, bounds the slow-query log: when the
	// cap would be exceeded the sink is rotated if it supports
	// Rotate() error (see RotatingFile), otherwise the line is dropped and
	// counted on zidian_slow_query_dropped_total. Zero means unbounded.
	SlowQueryMaxBytes int64
	// StmtStatsCapacity bounds the per-template statement statistics
	// registry behind /stats/statements and SHOW STATEMENTS (default 512
	// templates; cold templates evict into the _evicted bucket).
	StmtStatsCapacity int
	// StmtMetricsTopK bounds how many templates the per-template /metrics
	// families (zidian_stmt_*) export (default 10).
	StmtMetricsTopK int
	// CaptureLog, when non-nil, receives one JSON line per finished
	// statement (anonymized template, bind kinds, arrival delta, session,
	// outcome — never literal values) for replay via zidian-loadgen -replay.
	CaptureLog io.Writer
	// EnablePprof mounts net/http/pprof handlers under /debug/pprof/ on the
	// HTTP surface.
	EnablePprof bool
	// ReclaimInterval sets the cadence of the background MVCC reclamation
	// sweeper, which drops the retired block and posting versions of
	// relations that stopped receiving commits. Zero uses the 5s default;
	// negative disables the sweeper, and retired versions then wait for
	// their relation's next commit.
	ReclaimInterval time.Duration
}

func (c Config) normalized() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxConcurrent
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 4096
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 1 << 20
	}
	if c.SlowQueryThreshold > 0 && c.SlowQueryLog == nil {
		c.SlowQueryLog = os.Stderr
	}
	if c.StmtStatsCapacity <= 0 {
		c.StmtStatsCapacity = 512
	}
	if c.StmtMetricsTopK <= 0 {
		c.StmtMetricsTopK = 10
	}
	return c
}

// sessKey carries the originating wire-session id through a statement's
// context so the capture stream can preserve per-session ordering.
type sessKey struct{}

func withSessionID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, sessKey{}, id)
}

func sessionID(ctx context.Context) uint64 {
	id, _ := ctx.Value(sessKey{}).(uint64)
	return id
}

// Server is a long-lived, concurrent SQL service over one opened
// zidian.Instance. It terminates the wire protocol on TCP, serves the HTTP
// surface, shares one plan cache and one admission gate across both, and
// schedules statements on one FIFO gate (see fairGate): queries and writes
// hold it shared and run concurrently — readers pin MVCC snapshots, writers
// group-commit per relation — and DDL alone holds it exclusively. Compiled
// plans survive writes — they depend only on the schemas. Every statement
// takes one path, serve.
type Server struct {
	inst  *zidian.Instance
	cfg   Config
	cache *PlanCache
	adm   *Admission

	// gate is the statement scheduler described above. The kv cluster is
	// already safe for concurrent use and the store/index bookkeeping is
	// internally synchronized; the gate only keeps DDL apart from every
	// other statement, so a statement's plan and its run see one catalog.
	gate fairGate

	// startEpoch is the instance's schema epoch when the server started;
	// staleDrops counts the cache entries dropped for trailing the epoch.
	startEpoch uint64
	staleDrops atomic.Int64

	// obs is the metrics registry + slow-query log.
	obs *serverObs

	// stopSweep halts the background MVCC reclamation sweeper; nil when
	// Config.ReclaimInterval is negative.
	stopSweep func()

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	tcpLn   net.Listener
	httpSrv *http.Server
	conns   map[net.Conn]struct{}
	closed  bool

	wg        sync.WaitGroup
	started   time.Time
	nextSess  atomic.Uint64
	sessions  atomic.Int64
	totalSess atomic.Int64
	queries   atomic.Int64
	errors    atomic.Int64
}

// New wraps an opened instance in a server. Call ServeTCP/ServeHTTP (or
// Start) to begin accepting, and Shutdown to drain.
func New(inst *zidian.Instance, cfg Config) *Server {
	cfg = cfg.normalized()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		inst:    inst,
		cfg:     cfg,
		cache:   NewPlanCache(cfg.PlanCacheSize),
		adm:     NewAdmission(cfg.MaxConcurrent, cfg.QueueDepth, cfg.QueueTimeout),
		ctx:     ctx,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
		started: time.Now(),

		startEpoch: inst.SchemaEpoch(),
	}
	s.obs = newServerObs(s, cfg)
	if inst != nil && cfg.ReclaimInterval >= 0 {
		s.stopSweep = inst.StartReclaimSweeper(cfg.ReclaimInterval)
	}
	return s
}

// MetricsRegistry exposes the server's metrics registry for tests and
// embedders.
func (s *Server) MetricsRegistry() *obs.Registry { return s.obs.reg }

// Cache exposes the shared plan cache (for stats and tests).
func (s *Server) Cache() ServerCache { return ServerCache{s.cache, s} }

// ServerCache is the server's plan cache: the LRU, with Stats that carry
// the catalog fields the server keeps.
type ServerCache struct {
	*PlanCache
	s *Server
}

// Stats is PlanCache.Stats with the instance's schema epoch, the schema
// changes since the server started, and the server's stale drops.
func (c ServerCache) Stats() CacheStats {
	st := c.PlanCache.Stats()
	st.Epoch = c.s.inst.SchemaEpoch()
	st.Invalidations = int64(st.Epoch - c.s.startEpoch)
	st.StaleDrops = c.s.staleDrops.Load()
	return st
}

// Start listens on the given TCP and HTTP addresses (":0" picks a free
// port; an empty address disables that surface) and serves in background
// goroutines until Shutdown. It returns the bound addresses.
func (s *Server) Start(tcpAddr, httpAddr string) (tcp, httpA string, err error) {
	if tcpAddr != "" {
		ln, err := net.Listen("tcp", tcpAddr)
		if err != nil {
			return "", "", err
		}
		tcp = ln.Addr().String()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeTCP(ln)
		}()
	}
	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return "", "", err
		}
		httpA = ln.Addr().String()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeHTTP(ln)
		}()
	}
	return tcp, httpA, nil
}

// ServeTCP accepts wire-protocol connections on ln until Shutdown or a
// permanent accept error.
func (s *Server) ServeTCP(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.tcpLn = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.ctx.Done():
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// serveConn runs one session: read a request line, serve it, write the
// response line, in order, until the client disconnects.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.sessions.Add(-1)
	}()
	s.sessions.Add(1)
	s.totalSess.Add(1)
	sess := newSession(s.nextSess.Add(1), conn.RemoteAddr().String())

	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), s.cfg.MaxLineBytes)
	var dec wireScanner // its unescape scratch is reused from line to line
	var out []byte      // the response line; reused, see writeResponse
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		var resp Response
		dec.buf, dec.pos, dec.depth = line, 0, 0
		if err := dec.request(&req, false); err != nil {
			resp = s.protocolError("malformed request: " + err.Error())
		} else {
			resp = s.handle(sess, &req)
		}
		if err := s.writeResponse(conn, &out, &resp); err != nil {
			return
		}
	}
	// Tell the client why the session is ending when the protocol itself
	// failed — most importantly an oversized request line, which would
	// otherwise look like a silent disconnect.
	if err := sc.Err(); err != nil {
		msg := "request line error: " + err.Error()
		if errors.Is(err, bufio.ErrTooLong) {
			msg = fmt.Sprintf("server: request line exceeds %d bytes", s.cfg.MaxLineBytes)
		}
		resp := s.protocolError(msg)
		_ = s.writeResponse(conn, &out, &resp) // the session is ending either way
	}
}

// maxRetainedLine bounds the response buffer a connection keeps between
// statements: one large answer must not pin its buffer for the session.
const maxRetainedLine = 64 << 10

// encodeResponse appends resp's line to dst. An answer JSON cannot carry (a
// non-finite float) is the statement's failure: it is counted and resp is
// replaced by the error response, which is what the line then holds.
func (s *Server) encodeResponse(dst []byte, resp *Response) []byte {
	b, err := resp.AppendJSON(dst)
	if err != nil {
		s.errors.Add(1)
		*resp = Response{ID: resp.ID, Error: err.Error(), Code: "statement"}
		b, _ = resp.AppendJSON(dst) // no rows: cannot fail
	}
	return append(b, '\n')
}

// writeResponse encodes resp into the connection's buffer and hands the
// socket one Write.
func (s *Server) writeResponse(w io.Writer, buf *[]byte, resp *Response) error {
	b := s.encodeResponse((*buf)[:0], resp)
	_, err := w.Write(b)
	if cap(b) > maxRetainedLine {
		b = nil
	}
	*buf = b
	return err
}

// protocolError shapes a failure of the wire protocol itself — a line that
// is not a request — like every statement failure: counted once, with a
// stable code.
func (s *Server) protocolError(msg string) Response {
	s.errors.Add(1)
	return Response{Error: msg, Code: "protocol"}
}

// handle dispatches one request against a session.
func (s *Server) handle(sess *Session, req *Request) Response {
	resp := Response{ID: req.ID}
	ctx := withSessionID(s.ctx, sess.ID)
	fail := func(err error) Response {
		s.errors.Add(1)
		resp.OK = false
		resp.Error = err.Error()
		resp.Code = errorCode(err)
		return resp
	}
	switch req.Op {
	case "ping":
		resp.OK = true
	case "stats":
		st := s.Stats()
		resp.OK = true
		resp.Server = &st
	case "query", "exec":
		if req.valErr != nil {
			return fail(req.valErr)
		}
		r, err := s.serveSQL(ctx, req.SQL, req.vals)
		if err != nil {
			return fail(err)
		}
		r.ID = req.ID
		return r
	case "prepare":
		if req.Name == "" {
			return fail(fmt.Errorf("server: prepare needs a statement name"))
		}
		key := NormalizeSQL(req.SQL)
		if _, _, err := s.serve(ctx, stmt{verb: verbPrepare, src: req.SQL, key: key}); err != nil {
			return fail(err)
		}
		if err := sess.SetPrepared(req.Name, key, req.SQL); err != nil {
			return fail(err)
		}
		resp.OK = true
	case "execute":
		if req.valErr != nil {
			return fail(req.valErr)
		}
		key, src, ok := sess.Prepared(req.Name)
		if !ok {
			return fail(fmt.Errorf("server: no prepared statement %q", req.Name))
		}
		r, hit, err := s.serve(ctx, stmt{verb: verbSelect, src: src, key: key, params: req.vals})
		if err != nil {
			return fail(err)
		}
		s.fillResult(&resp, r.Result, r.Stats, hit)
	case "close":
		if !sess.ClosePrepared(req.Name) {
			return fail(fmt.Errorf("server: no prepared statement %q", req.Name))
		}
		resp.OK = true
	default:
		return fail(fmt.Errorf("server: unknown op %q", req.Op))
	}
	return resp
}

// serveSQL runs one statement of any kind and shapes its response: the one
// dispatch behind the wire's query and exec ops and HTTP /query. A SELECT —
// recognized by its plan-cache key, without parsing — takes the cached read
// path and reports its execution statistics; everything else goes through
// Exec.
func (s *Server) serveSQL(ctx context.Context, sql string, params []zidian.Value) (Response, error) {
	var resp Response
	if st := selectStmt(sql, params); strings.HasPrefix(st.key, "select") {
		r, hit, err := s.serve(ctx, st)
		if err != nil {
			return resp, err
		}
		s.fillResult(&resp, r.Result, r.Stats, hit)
		return resp, nil
	}
	r, err := s.Exec(ctx, sql, params...)
	if err != nil {
		return resp, err
	}
	resp.OK = true
	resp.Affected = r.Affected
	if r.Result != nil {
		resp.Cols = r.Result.Cols
		resp.tuples = r.Result.Rows
	}
	return resp, nil
}

func (s *Server) fillResult(resp *Response, res *zidian.Result, stats *zidian.Stats, cacheHit bool) {
	resp.OK = true
	resp.Cols = res.Cols
	resp.tuples = res.Rows
	resp.Stats = &QueryStats{
		ScanFree:   stats.ScanFree,
		Bounded:    stats.Bounded,
		Gets:       stats.Gets,
		DataValues: stats.DataValues,
		WallMicros: stats.Wall.Microseconds(),
		CacheHit:   cacheHit,
	}
}

// stmtKey computes a statement's plan-cache key. An ad hoc SELECT — no bound
// params, no `?` in the text, the property the server observes instead of
// taking an option — has its equality literals lifted (sql.LiftLiterals):
// key is then the `?` template's key and lifted its bindings, the template's
// key being what a client that parameterized those positions would have
// sent. Everything else keys by NormalizeSQL with lifted nil; a statement
// that came with params pays only the length check.
func stmtKey(src string, params []zidian.Value) (key string, lifted []zidian.Value) {
	if len(params) == 0 {
		if key, vals, ok := sqlpkg.LiftLiterals(src); ok {
			return key, vals
		}
	}
	return NormalizeSQL(src), nil
}

// stmt is one statement on its way through serve.
type stmt struct {
	verb   string         // the metric label, which also says what step 4 does
	src    string         // the SELECT a plan compiles from, or the text Exec runs
	key    string         // the plan-cache key of src, or the `?` template lifted from it
	lifted []zidian.Value // non-nil: key is a template, run bound to these values
	params []zidian.Value // the values the client bound
}

// verbPrepare marks the prepare op: it resolves a plan, runs nothing and
// leaves no statement record.
const verbPrepare = "prepare"

// selectStmt is a SELECT with its plan-cache key (see stmtKey).
func selectStmt(sql string, params []zidian.Value) stmt {
	key, lifted := stmtKey(sql, params)
	return stmt{verb: verbSelect, src: sql, key: key, lifted: lifted, params: params}
}

// serve is the statement lifecycle. Every statement the server runs passes
// through it: the wire's query, exec, prepare and execute ops, HTTP /query,
// EXPLAIN ANALYZE, Server.Query and Server.Exec. In order, it
//
//  1. begins the statement record;
//  2. takes an admission slot, then the gate: exclusive for DDL, shared for
//     everything else;
//  3. resolves the plan (see plan), inside the gate hold, so no DDL sent
//     through the server lands between a plan and its run;
//  4. runs the plan, or hands the statement to Instance.ExecTraced;
//  5. releases the gate and the slot, and finishes the record.
//
// SHOW STATEMENTS reads only the statement registry and skips steps 2 and
// 3. It reports whether the plan came from the cache.
func (s *Server) serve(ctx context.Context, st stmt) (r zidian.ExecResult, hit bool, err error) {
	var c *stmtCtx
	if st.verb != verbPrepare {
		c = s.obs.begin(st.verb)
	}
	c.setSession(sessionID(ctx))
	binds := st.params // the values whose kinds the statement feed reports
	if st.lifted != nil {
		binds = st.lifted
	}
	c.setStmt(st.key, binds)
	rows := 0
	if st.verb == verbShow {
		r.Result, err = s.showStatements()
		if err == nil {
			rows = len(r.Result.Rows)
		}
		c.finish(rows, false, err)
		return r, false, err
	}
	ddl := st.verb == verbDDL
	if err = s.schedule(ctx, c, ddl); err != nil {
		c.finish(0, false, err)
		return r, false, err
	}
	if st.verb != verbPrepare {
		s.queries.Add(1)
	}
	switch st.verb {
	case verbSelect, verbExplainAnalyze, verbPrepare:
		var p *zidian.Prepared
		if p, hit, err = s.plan(c, &st); err != nil || st.verb == verbPrepare {
			break
		}
		r.Relations = p.Relations()
		c.setRelations(r.Relations)
		if st.verb == verbSelect {
			r.Result, r.Stats, err = p.RunTraced(c.Trace(), st.params...)
		} else {
			r.Result, r.Stats, _, err = p.Analyze(c.Trace(), st.params...)
		}
		if err == nil {
			rows = len(r.Result.Rows)
		}
	default:
		var x *zidian.ExecResult
		if x, err = s.inst.ExecTraced(c.Trace(), st.src, st.params...); err == nil {
			r, rows = *x, x.Affected
			c.setRelations(r.Relations)
		}
	}
	s.unschedule(ddl)
	c.finish(rows, hit, err)
	return r, hit, err
}

// schedule is step 2 of serve: an admission slot, then the statement gate,
// exclusive or shared. Queue and gate waits land in the statement record
// even when acquisition fails, so a timed-out statement still reports where
// its latency went. A nil return is paired with one unschedule of the same
// mode.
func (s *Server) schedule(ctx context.Context, c *stmtCtx, exclusive bool) error {
	qStart := time.Now()
	err := s.adm.Acquire(ctx)
	c.admissionWait(time.Since(qStart))
	if err != nil {
		return err
	}
	lStart := time.Now()
	if exclusive {
		s.gate.Lock()
	} else {
		s.gate.RLock()
	}
	c.locksWait(time.Since(lStart))
	return nil
}

// unschedule releases what schedule took, gate first.
func (s *Server) unschedule(exclusive bool) {
	if exclusive {
		s.gate.Unlock()
	} else {
		s.gate.RUnlock()
	}
	s.adm.Release()
}

// plan is step 3 of serve. A lifted statement runs its template bound to
// the lifted values; when the template does not compile, or its slot kinds
// reject a lifted value, the statement is served from its literal text
// instead, so rows and error text are what they would be without the lift.
func (s *Server) plan(c *stmtCtx, st *stmt) (*zidian.Prepared, bool, error) {
	if st.lifted != nil {
		if tp, hit, err := s.cached(st.key, st.key, true); err == nil {
			if bp, err := tp.Bind(st.lifted...); err == nil {
				s.cache.count(tp, hit, true)
				return bp, hit, nil
			}
		}
		st.key, st.lifted = NormalizeSQL(st.src), nil
		c.setStmt(st.key, st.params)
	}
	return s.cached(st.key, st.src, false)
}

// cached returns the cache's plan for key, compiling src and caching it on
// a miss, and reports whether it was a hit. A cached plan is stale exactly
// when its epoch trails the instance's schema epoch: DDL, sent through the
// server or run on the instance, changed the catalog after it was compiled.
// A stale entry is dropped and counted, and src recompiled. With lifted set
// the lookup is not counted here: plan counts it once the template has
// accepted the lifted values.
func (s *Server) cached(key, src string, lifted bool) (*zidian.Prepared, bool, error) {
	p, ok := s.cache.lookup(key)
	if ok && p.Epoch() < s.inst.SchemaEpoch() {
		if s.cache.remove(key, p) {
			s.staleDrops.Add(1)
		}
		ok = false
	}
	if !lifted {
		s.cache.count(p, ok, false)
	}
	if ok {
		return p, true, nil
	}
	p, err := s.inst.Prepare(src)
	if err != nil {
		return nil, false, err
	}
	s.cache.Put(key, p)
	return p, false, nil
}

// Query compiles (or reuses) and executes one SELECT, binding params into
// the statement's `?` placeholders, and reports whether the plan came from
// the cache. Statements of one shape share one cache entry across all their
// values, whether the client sent `?` and params or inlined the literals
// (see stmtKey): the workload compiles once per template, not once per
// literal.
func (s *Server) Query(ctx context.Context, sql string, params ...zidian.Value) (*zidian.Result, *zidian.Stats, bool, error) {
	r, hit, err := s.serve(ctx, selectStmt(sql, params))
	return r.Result, r.Stats, hit, err
}

// Exec runs one SQL statement of any kind through serve. DDL holds the gate
// exclusively, so no statement runs beside it, and the plans compiled
// before it go stale by their epoch. INSERT, DELETE and EXPLAIN hold it
// shared like a read (the group committer orders writes; EXPLAIN only
// plans). A SELECT takes the cached read path. EXPLAIN ANALYZE schedules
// like the SELECT it wraps and answers the annotated operator tree: the
// inner SELECT compiles through the plan cache under its own normalized
// text, with no literals lifted, so the analyzed plan is the one compiled
// from exactly the text given, and a `?` inner statement shares the cached
// template of the query it wraps. Params bind into `?` placeholders.
func (s *Server) Exec(ctx context.Context, sql string, params ...zidian.Value) (*zidian.ExecResult, error) {
	kind, err := zidian.StatementInfo(sql)
	if err != nil {
		return nil, err
	}
	st := stmt{verb: verbExplain, src: sql, params: params}
	switch kind {
	case zidian.StmtSelect:
		st = selectStmt(sql, params)
	case zidian.StmtExplainAnalyze:
		st.verb, st.src = verbExplainAnalyze, sqlpkg.AnalyzedQuery(sql)
	case zidian.StmtShow:
		st.verb, st.key = verbShow, "show statements"
	case zidian.StmtInsert:
		st.verb = verbInsert
	case zidian.StmtDelete:
		st.verb = verbDelete
	case zidian.StmtDDL:
		st.verb = verbDDL
	}
	if st.key == "" {
		st.key = NormalizeSQL(st.src)
	}
	r, _, err := s.serve(ctx, st)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// showStatements answers SHOW STATEMENTS: a relational rendering of the
// statement statistics registry, ordered by total time. It reads only
// registry snapshots, no data, but still counts as a statement under the
// "show" verb so the registry observes its own readers.
func (s *Server) showStatements() (*zidian.Result, error) {
	snap := s.obs.stmts.Snapshot()
	entries := snap.Statements
	obs.SortStmtEntries(entries, obs.SortByTotalTime)
	if snap.Evicted != nil {
		entries = append(entries, *snap.Evicted)
	}
	res := &zidian.Result{Cols: []string{
		"template", "verb", "calls", "errors", "rows", "total_ms", "mean_us",
		"p50_us", "p95_us", "p99_us", "kv_ops", "rtt_ms", "postings", "blocks", "hit_pct",
	}}
	for _, e := range entries {
		hitPct := 0.0
		if e.Calls > 0 {
			hitPct = 100 * float64(e.CacheHits) / float64(e.Calls)
		}
		res.Rows = append(res.Rows, zidian.Tuple{
			zidian.String(e.Template),
			zidian.String(e.Verb),
			zidian.Int(e.Calls),
			zidian.Int(e.Errors),
			zidian.Int(e.Rows),
			zidian.Float(float64(e.TotalNanos) / 1e6),
			zidian.Float(e.MeanMicros),
			zidian.Float(e.P50Micros),
			zidian.Float(e.P95Micros),
			zidian.Float(e.P99Micros),
			zidian.Int(e.KVOps),
			zidian.Float(float64(e.KV.WaitNanos) / 1e6),
			zidian.Int(e.PostingReads),
			zidian.Int(e.Blocks),
			zidian.Float(hitPct),
		})
	}
	return res, nil
}

// Stats snapshots server-wide statistics. With metrics enabled it includes
// the server-side statement latency quantiles derived from the
// zidian_query_duration_seconds histogram (all verbs merged).
func (s *Server) Stats() ServerStats {
	kvm := s.inst.Store().Cluster.Metrics()
	st := ServerStats{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Sessions:       s.sessions.Load(),
		TotalSessions:  s.totalSess.Load(),
		Queries:        s.queries.Load(),
		Errors:         s.errors.Load(),
		PlanCache:      s.Cache().Stats(),
		Admission:      s.adm.Stats(),
		StoreGets:      kvm.Gets,
		StoreScanNexts: kvm.ScanNexts,
	}
	if snap := s.obs.latency.MergedSnapshot(); snap.QuantilesValid() {
		st.QueryLatency = &LatencyQuantiles{
			Count:     snap.Count,
			P50Micros: snap.Quantile(0.50) * 1e6,
			P95Micros: snap.Quantile(0.95) * 1e6,
			P99Micros: snap.Quantile(0.99) * 1e6,
		}
	}
	return st
}

// ServeHTTP serves the HTTP surface on ln until Shutdown:
//
//	POST /query   {"sql": "select ...", "params": [...]}  (or GET /query?q=...)
//	GET  /healthz liveness
//	GET  /stats   server statistics (JSON superset of the metrics families)
//	GET  /stats/statements per-template statement statistics
//	              (?top=K bounds the list, ?by=total_time|calls|kv_ops sorts)
//	GET  /metrics Prometheus text exposition
//	GET  /debug/pprof/* profiling, when Config.EnablePprof is set
func (s *Server) ServeHTTP(ln net.Listener) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.httpQuery)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st := s.Stats()
		json.NewEncoder(w).Encode(&st)
	})
	mux.HandleFunc("/stats/statements", s.httpStatements)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.obs.reg.WritePrometheus(w)
	})
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.httpSrv = srv
	s.mu.Unlock()
	err := srv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// httpStatements serves GET /stats/statements: the statement statistics
// registry as JSON, sorted by ?by= (total_time default, calls, kv_ops) and
// bounded by ?top=K.
func (s *Server) httpStatements(w http.ResponseWriter, r *http.Request) {
	by := r.URL.Query().Get("by")
	switch by {
	case "", obs.SortByTotalTime, obs.SortByCalls, obs.SortByKVOps:
	default:
		http.Error(w, fmt.Sprintf("unknown sort %q: use %s, %s or %s",
			by, obs.SortByTotalTime, obs.SortByCalls, obs.SortByKVOps), http.StatusBadRequest)
		return
	}
	if by == "" {
		by = obs.SortByTotalTime
	}
	top := 0
	if t := r.URL.Query().Get("top"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n <= 0 {
			http.Error(w, "top must be a positive integer", http.StatusBadRequest)
			return
		}
		top = n
	}
	snap := s.obs.stmts.Snapshot()
	obs.SortStmtEntries(snap.Statements, by)
	if top > 0 && len(snap.Statements) > top {
		snap.Statements = snap.Statements[:top]
	}
	payload := StatementsPayload{
		SortedBy:   by,
		Tracked:    snap.Tracked,
		Capacity:   snap.Capacity,
		Evictions:  snap.Evictions,
		Statements: snap.Statements,
		Evicted:    snap.Evicted,
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&payload)
}

func (s *Server) httpQuery(w http.ResponseWriter, r *http.Request) {
	var sql string
	var rawParams []json.RawMessage
	switch r.Method {
	case http.MethodGet:
		sql = r.URL.Query().Get("q")
	case http.MethodPost:
		var body struct {
			SQL    string            `json:"sql"`
			Params []json.RawMessage `json:"params"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, "malformed body: "+err.Error(), http.StatusBadRequest)
			return
		}
		sql = body.SQL
		rawParams = body.Params
	default:
		http.Error(w, "use GET ?q= or POST {\"sql\": ...}", http.StatusMethodNotAllowed)
		return
	}
	if NormalizeSQL(sql) == "" { // nothing but white space and semicolons
		http.Error(w, "empty statement", http.StatusBadRequest)
		return
	}
	params, err := DecodeParams(rawParams)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := s.serveSQL(s.ctx, sql, params)
	w.Header().Set("Content-Type", "application/json")
	status := http.StatusOK
	if err != nil {
		s.errors.Add(1)
		resp.Error = err.Error()
		resp.Code = errorCode(err)
		// Backpressure and shutdown are transient server-side conditions the
		// client should retry elsewhere/later; everything else is the
		// statement's own fault.
		status = http.StatusBadRequest
		if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrQueueTimeout) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
		}
	}
	body := s.encodeResponse(nil, &resp)
	if status == http.StatusOK && !resp.OK { // the answer did not encode
		status = http.StatusBadRequest
	}
	w.WriteHeader(status)
	w.Write(body)
}

// Shutdown stops accepting, unblocks idle connections, and waits for
// in-flight statements to drain until ctx expires, then force-closes
// stragglers. It is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	tcpLn, httpSrv := s.tcpLn, s.httpSrv
	// Wake blocked readers: sessions finish the statement they are serving,
	// write its response, then fail the next read and exit cleanly.
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	s.cancel() // aborts statements waiting in the admission queue
	if s.stopSweep != nil {
		s.stopSweep() // idempotent; waits for an in-flight sweep pass
	}
	if tcpLn != nil {
		tcpLn.Close()
	}
	var httpErr error
	if httpSrv != nil {
		httpErr = httpSrv.Shutdown(ctx)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return httpErr
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
