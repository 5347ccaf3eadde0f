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
	// DisableMetrics turns the observability layer off entirely: no
	// registry, no per-statement traces, no slow-query log, and /metrics
	// answers 404. Metrics are on by default; this exists for overhead
	// measurement (zidian-bench -exp server with -obs=off).
	DisableMetrics bool
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
	// sweeper, which drops retired block versions and retries pending
	// posting shrinks on relations that stopped receiving commits. Zero
	// uses the 5s default; negative disables the sweeper (retired state
	// then waits for each relation's next commit, as before).
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
// plans survive writes — they depend only on the schemas.
type Server struct {
	inst  *zidian.Instance
	cfg   Config
	cache *PlanCache
	adm   *Admission

	// gate is the statement scheduler described above. The kv cluster is
	// already safe for concurrent use and the store/index bookkeeping is
	// internally synchronized; the gate only keeps DDL apart from every
	// other statement, which is what the plan cache's epoch capture relies
	// on.
	gate fairGate

	// obs is the metrics registry + slow-query log; nil when
	// Config.DisableMetrics is set (every use is nil-safe).
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
	}
	if !cfg.DisableMetrics {
		s.obs = newServerObs(s, cfg)
	}
	if inst != nil && cfg.ReclaimInterval >= 0 {
		s.stopSweep = inst.StartReclaimSweeper(cfg.ReclaimInterval)
	}
	return s
}

// MetricsRegistry exposes the server's metrics registry for tests and
// embedders; nil when Config.DisableMetrics is set.
func (s *Server) MetricsRegistry() *obs.Registry {
	if s.obs == nil {
		return nil
	}
	return s.obs.reg
}

// Cache exposes the shared plan cache (for stats and tests).
func (s *Server) Cache() *PlanCache { return s.cache }

// Admission exposes the admission gate (for stats and tests).
func (s *Server) Admission() *Admission { return s.adm }

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
		p, _, err := s.compileNorm(key, req.SQL, false)
		if err != nil {
			return fail(err)
		}
		if err := sess.SetPrepared(req.Name, key, p); err != nil {
			return fail(err)
		}
		resp.OK = true
	case "execute":
		params := req.vals
		if req.valErr != nil {
			return fail(req.valErr)
		}
		p, key, ok := sess.Prepared(req.Name)
		if !ok {
			return fail(fmt.Errorf("server: no prepared statement %q", req.Name))
		}
		// DDL since compilation? Recompile against the current catalog: the
		// old plan may use a dropped index or miss a newly created one.
		// runFresh repeats the refresh if another DDL lands mid-execution.
		stored := p
		if p.Epoch() != s.inst.SchemaEpoch() {
			p2, _, err := s.compileNorm(key, p.SQL(), false)
			if err != nil {
				return fail(err)
			}
			p = p2
		}
		c := s.obs.begin(verbSelect)
		c.setStmt(key, params)
		c.setSession(sess.ID)
		c.setRelations(p.Relations())
		res, stats, ran, err := s.runFresh(ctx, c, key, p.SQL(), nil, p, params)
		if err != nil {
			c.finish(0, true, err)
			return fail(err)
		}
		c.finish(len(res.Rows), true, nil)
		if ran != stored {
			if err := sess.SetPrepared(req.Name, key, ran); err != nil {
				return fail(err)
			}
		}
		s.fillResult(&resp, res, stats, true)
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
	key, lifted := stmtKey(sql, params)
	if strings.HasPrefix(key, "select") {
		res, stats, _, cacheHit, err := s.queryNorm(ctx, key, sql, params, lifted)
		if err != nil {
			return resp, err
		}
		s.fillResult(&resp, res, stats, cacheHit)
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

// compileNorm returns the cached plan for the normalized key, compiling sql
// and caching it on a miss, and reports whether it was a cache hit. With
// lifted set the key came from the lift and the lookup is not counted here:
// queryNorm counts it once the template has accepted the lifted values. The
// cache epoch is captured under a shared hold of the gate — DDL holds it
// exclusively while it invalidates — so a plan compiled just before a DDL
// lands in the cache tagged stale instead of surviving the flush.
func (s *Server) compileNorm(norm, sql string, lifted bool) (*zidian.Prepared, bool, error) {
	p, ok := s.cache.lookup(norm)
	if !lifted {
		s.cache.count(p, ok, false)
	}
	if ok {
		return p, true, nil
	}
	s.gate.RLock()
	epoch := s.cache.Epoch()
	p, err := s.inst.Prepare(sql)
	s.gate.RUnlock()
	if err != nil {
		return nil, false, err
	}
	s.cache.PutAt(norm, p, epoch)
	return p, false, nil
}

// schedule admits one statement: an admission slot, then the statement gate
// — exclusive for DDL, shared for everything else — and counts it. Queue and
// gate waits land in the statement context even when acquisition fails, so a
// timed-out statement still reports where its latency went. A nil return is
// paired with one unschedule of the same mode.
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
	s.queries.Add(1)
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

// run executes a compiled plan as one scheduled statement, binding params
// into the plan template first.
func (s *Server) run(ctx context.Context, c *stmtCtx, p *zidian.Prepared, params []zidian.Value) (*zidian.Result, *zidian.Stats, error) {
	if err := s.schedule(ctx, c, false); err != nil {
		return nil, nil, err
	}
	defer s.unschedule(false)
	return p.RunTraced(c.Trace(), params...)
}

// Query compiles (or reuses) and executes one SELECT, binding params into
// the statement's `?` placeholders, and reports whether the plan came from
// the cache. Statements of one shape share one cache entry across all their
// values, whether the client sent `?` and params or inlined the literals
// (see stmtKey): the workload compiles once per template, not once per
// literal.
func (s *Server) Query(ctx context.Context, sql string, params ...zidian.Value) (*zidian.Result, *zidian.Stats, bool, error) {
	key, lifted := stmtKey(sql, params)
	res, stats, _, hit, err := s.queryNorm(ctx, key, sql, params, lifted)
	return res, stats, hit, err
}

// queryNorm is Query with stmtKey already applied; it also returns the plan
// that ran. With lifted values, norm is a template: it is its own source
// text (what a miss or an epoch change compiles), and the statement runs the
// template bound to lifted. When the template does not compile, or its slot
// kinds reject a lifted value, the statement is served from its literal text
// instead, so rows and error text are what they would be without the lift.
func (s *Server) queryNorm(ctx context.Context, norm, sql string, params, lifted []zidian.Value) (*zidian.Result, *zidian.Stats, *zidian.Prepared, bool, error) {
	c := s.obs.begin(verbSelect)
	c.setSession(sessionID(ctx))
	var p *zidian.Prepared
	var hit bool
	binds := params // the values whose kinds the statement feed reports
	if lifted != nil {
		if tp, thit, err := s.compileNorm(norm, norm, true); err == nil {
			if bp, err := tp.Bind(lifted...); err == nil {
				s.cache.count(tp, thit, true)
				p, hit, sql, binds = bp, thit, norm, lifted
			}
		}
		if p == nil {
			norm, lifted = NormalizeSQL(sql), nil
		}
	}
	c.setStmt(norm, binds)
	if p == nil {
		var err error
		if p, hit, err = s.compileNorm(norm, sql, false); err != nil {
			c.finish(0, false, err)
			return nil, nil, nil, false, err
		}
	}
	c.setRelations(p.Relations())
	res, stats, ran, err := s.runFresh(ctx, c, norm, sql, lifted, p, params)
	if err != nil {
		c.finish(0, hit, err)
		return nil, nil, nil, hit, err
	}
	c.finish(len(res.Rows), hit, nil)
	return res, stats, ran, hit, nil
}

// runFresh executes a compiled plan, recompiling and retrying when DDL made
// the plan stale between compilation and execution (compile and run hold
// the read lock in separate critical sections, so a DROP INDEX can land in
// between and strand a plan on a vanished index). Non-nil lifted means p is
// a template already bound to those values, and a recompiled template is
// bound to them before the retry. It returns the plan that finally ran so
// callers can refresh session state.
func (s *Server) runFresh(ctx context.Context, c *stmtCtx, norm, sql string, lifted []zidian.Value, p *zidian.Prepared, params []zidian.Value) (*zidian.Result, *zidian.Stats, *zidian.Prepared, error) {
	for attempt := 0; ; attempt++ {
		res, stats, err := s.run(ctx, c, p, params)
		if err == nil || attempt >= 2 || p.Epoch() == s.inst.SchemaEpoch() {
			return res, stats, p, err
		}
		p2, _, cerr := s.compileNorm(norm, sql, lifted != nil)
		if cerr == nil && lifted != nil {
			p2, cerr = p2.Bind(lifted...)
		}
		if cerr != nil {
			return nil, nil, p, cerr
		}
		p = p2
	}
}

// Exec runs one SQL statement under the gate hold its kind requires: DDL
// takes the gate exclusively and invalidates the plan cache while still
// holding it — so no statement can observe the new catalog with an old plan
// — and INSERT, DELETE and EXPLAIN take it shared like a read (the group
// committer orders writes; EXPLAIN only plans). EXPLAIN ANALYZE schedules
// like the SELECT it wraps (it executes), and a SELECT routed here delegates
// to the cached read path. Params bind into `?` placeholders.
func (s *Server) Exec(ctx context.Context, sql string, params ...zidian.Value) (*zidian.ExecResult, error) {
	kind, err := zidian.StatementInfo(sql)
	if err != nil {
		return nil, err
	}
	if kind == zidian.StmtShow {
		return s.execShow(ctx)
	}
	if kind == zidian.StmtSelect {
		key, lifted := stmtKey(sql, params)
		res, stats, ran, _, err := s.queryNorm(ctx, key, sql, params, lifted)
		if err != nil {
			return nil, err
		}
		return &zidian.ExecResult{Result: res, Stats: stats, Relations: ran.Relations()}, nil
	}
	if kind == zidian.StmtExplainAnalyze {
		return s.execExplainAnalyze(ctx, sql, params)
	}
	verb := verbExplain
	switch kind {
	case zidian.StmtInsert:
		verb = verbInsert
	case zidian.StmtDelete:
		verb = verbDelete
	case zidian.StmtDDL:
		verb = verbDDL
	}
	c := s.obs.begin(verb)
	c.setStmt(NormalizeSQL(sql), params)
	c.setSession(sessionID(ctx))
	ddl := kind == zidian.StmtDDL
	if err := s.schedule(ctx, c, ddl); err != nil {
		c.finish(0, false, err)
		return nil, err
	}
	defer s.unschedule(ddl)
	r, err := s.inst.ExecTraced(c.Trace(), sql, params...)
	if err != nil {
		c.finish(0, false, err)
		return nil, err
	}
	if r.SchemaChanged {
		s.cache.Invalidate()
	}
	c.setRelations(r.Relations)
	c.finish(r.Affected, false, nil)
	return r, nil
}

// execExplainAnalyze serves EXPLAIN ANALYZE <select>: the inner SELECT
// compiles through the plan cache under its own normalized text — literals
// are not lifted here, so the analyzed plan is the one compiled from
// exactly the text given, and a `?` inner statement shares the cached
// template of the query it wraps — the statement schedules exactly like a
// read — admission, then the gate shared — and executes
// under the statement trace; the client receives the annotated operator
// tree instead of the rows.
func (s *Server) execExplainAnalyze(ctx context.Context, src string, params []zidian.Value) (*zidian.ExecResult, error) {
	inner := sqlpkg.AnalyzedQuery(src)
	norm := NormalizeSQL(inner)
	c := s.obs.begin(verbExplainAnalyze)
	c.setStmt(norm, params)
	c.setSession(sessionID(ctx))
	p, hit, err := s.compileNorm(norm, inner, false)
	if err != nil {
		c.finish(0, false, err)
		return nil, err
	}
	c.setRelations(p.Relations())
	if err := s.schedule(ctx, c, false); err != nil {
		c.finish(0, hit, err)
		return nil, err
	}
	defer s.unschedule(false)
	res, stats, _, err := p.Analyze(c.Trace(), params...)
	if err != nil {
		c.finish(0, hit, err)
		return nil, err
	}
	c.finish(len(res.Rows), hit, nil)
	return &zidian.ExecResult{Result: res, Stats: stats, Relations: p.Relations()}, nil
}

// execShow serves SHOW STATEMENTS: a relational rendering of the statement
// statistics registry, ordered by total time. It reads only registry
// snapshots — no data access, no admission — but still counts as a statement
// under the "show" verb so the registry observes its own readers.
func (s *Server) execShow(ctx context.Context) (*zidian.ExecResult, error) {
	if s.obs == nil {
		return nil, fmt.Errorf("server: SHOW STATEMENTS requires metrics (disabled by configuration)")
	}
	c := s.obs.begin(verbShow)
	c.setStmt("show statements", nil)
	c.setSession(sessionID(ctx))
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
	c.finish(len(res.Rows), false, nil)
	return &zidian.ExecResult{Result: res}, nil
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
		PlanCache:      s.cache.Stats(),
		Admission:      s.adm.Stats(),
		StoreGets:      kvm.Gets,
		StoreScanNexts: kvm.ScanNexts,
	}
	if s.obs != nil {
		snap := s.obs.latency.MergedSnapshot()
		if snap.QuantilesValid() {
			st.QueryLatency = &LatencyQuantiles{
				Count:     snap.Count,
				P50Micros: snap.Quantile(0.50) * 1e6,
				P95Micros: snap.Quantile(0.95) * 1e6,
				P99Micros: snap.Quantile(0.99) * 1e6,
			}
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
//	              (?top=K bounds the list, ?by=total_time|calls|kv_ops sorts;
//	              404 when metrics are disabled)
//	GET  /metrics Prometheus text exposition (404 when metrics are disabled)
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
		if s.obs == nil {
			http.Error(w, "metrics disabled", http.StatusNotFound)
			return
		}
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
	if s.obs == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
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
