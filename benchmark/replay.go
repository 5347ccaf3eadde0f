package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"zidian"
	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/obs"
	"zidian/internal/parallel"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/server"
	"zidian/internal/sql"
)

// The traced pass. With the server stopped, one goroutine replays a fixed
// number of generated statements through a replica of the server's
// statement path assembled only from the layers' public functions, with a
// span around each call. The replica differs from the server where the
// server's own code is unexported: AnonymizeSQL runs unmemoized, index reads
// go to the index manager directly instead of through the facade's
// snapshot wrapper (equivalent here: nothing writes concurrently), and there
// is no admission gate, lock table or statement-statistics registry.

// replica holds what the statement path needs between statements.
type replica struct {
	inst    *zidian.Instance
	db      *relation.Database
	store   *baav.Store
	checker *core.Checker
	workers int
	cache   *server.PlanCache
	// plans holds the compiled plans the cache decides the fate of: the
	// cache stores *zidian.Prepared, which only the facade can build, so it
	// is given nil entries and used for its hit/miss/eviction decisions and
	// their cost.
	plans map[string]*core.PlanInfo
}

func newReplica(env *Env) *replica {
	store := env.Inst.Store()
	return &replica{
		inst:  env.Inst,
		db:    env.DB,
		store: store,
		checker: core.NewChecker(store.Schema, baav.RelSchemas(env.DB)).
			WithStats(store).WithIndexes(store.Index.(core.IndexCatalog)),
		workers: env.Workers,
		cache:   server.NewPlanCache(4096),
		plans:   map[string]*core.PlanInfo{},
	}
}

// passCounts are the product's own per-statement trace counters summed over
// the traced statements. One goroutine and no timers, so they repeat exactly.
type passCounts struct {
	gets, scanNexts, postings, blocks int64
}

// opTotal accumulates one operator kind's self time and self kv ops.
type opTotal struct{ selfNs, kvOps, count int64 }

// passResult is the traced pass. Index 1 of wall and stmts is the half of
// the statements that ran with spans on, index 0 the half with spans off.
type passResult struct {
	wall   [2]time.Duration
	stmts  [2]int
	spans  []span
	counts passCounts
	ops    map[string]*opTotal
	ledger *ledger
}

// replayChunk is how many consecutive statements share a span setting.
const replayChunk = 250

// replay runs the statements through the replica in one pass, alternating
// chunks with spans off and spans on. Both settings see the same store,
// the same cache and the same minute of the host, and the difference of
// their mean statement times is the cost of the spans. Counts and operator
// trees are kept for the statements that ran with spans on.
func replay(env *Env, lines [][]byte, stmts []Stmt, tr *tracer) (*passResult, error) {
	r := newReplica(env)
	res := &passResult{ops: map[string]*opTotal{}, ledger: newLedger()}
	for start := 0; start < len(lines); start += replayChunk {
		end := min(start+replayChunk, len(lines))
		mode := (start / replayChunk) % 2
		tr.on = mode == 1
		began := time.Now()
		for i := start; i < end; i++ {
			t, affected, err := r.statement(tr, lines[i])
			if err != nil {
				return nil, fmt.Errorf("replay statement %d (%s): %w", i, stmts[i].Template, err)
			}
			tr.nextStmt()
			if stmts[i].Write {
				res.ledger.record(stmts[i], affected)
			}
			if !tr.on {
				continue
			}
			kv := t.KV.Snapshot()
			res.counts.gets += kv.Gets
			res.counts.scanNexts += kv.ScanNexts
			res.counts.postings += t.PostingReads()
			res.counts.blocks += t.Blocks()
			addOps(res.ops, t.Root)
		}
		res.wall[mode] += time.Since(began)
		res.stmts[mode] += end - start
	}
	res.spans = tr.spans
	return res, nil
}

// addOps folds one statement's operator tree into the per-operator totals:
// self wall time and self kv ops are the node's inclusive figures minus its
// children's.
func addOps(ops map[string]*opTotal, n *obs.OpNode) {
	if n == nil {
		return
	}
	self, kvOps := int64(n.Wall), n.KV.Ops()
	for _, c := range n.Children {
		self -= int64(c.Wall)
		kvOps -= c.KV.Ops()
		addOps(ops, c)
	}
	t := ops[n.Name]
	if t == nil {
		t = &opTotal{}
		ops[n.Name] = t
	}
	t.selfNs += self
	t.kvOps += kvOps
	t.count++
}

// encodeRequests renders each statement as the line a client would send.
func encodeRequests(stmts []Stmt) ([][]byte, error) {
	lines := make([][]byte, len(stmts))
	for i, st := range stmts {
		raw, err := server.EncodeParams(st.Params)
		if err != nil {
			return nil, err
		}
		op := "query"
		if st.Write {
			op = "exec"
		}
		lines[i], err = json.Marshal(&server.Request{ID: int64(i + 1), Op: op, SQL: st.SQL, Params: raw})
		if err != nil {
			return nil, err
		}
	}
	return lines, nil
}

// statement serves one request line the way Server.serveConn and
// Server.handle do, and returns the product trace it ran under.
func (r *replica) statement(tr *tracer, line []byte) (*obs.Trace, int, error) {
	root := tr.begin(phStmt)
	defer tr.end(root)

	s := tr.begin(phDecode)
	var req server.Request
	if err := json.Unmarshal(line, &req); err != nil {
		return nil, 0, err
	}
	params, err := server.DecodeParams(req.Params)
	tr.end(s)
	if err != nil {
		return nil, 0, err
	}

	s = tr.begin(phNormalize)
	norm := server.NormalizeSQL(req.SQL)
	tr.end(s)

	s = tr.begin(phAnonymize)
	server.AnonymizeSQL(norm, params)
	tr.end(s)

	t := &obs.Trace{}
	resp := server.Response{ID: req.ID, OK: true}
	if strings.HasPrefix(norm, "select") {
		info, hit, err := r.compile(tr, norm, req.SQL)
		if err != nil {
			return nil, 0, err
		}
		s = tr.begin(phKbaBind)
		bound, err := info.Bind(params)
		tr.end(s)
		if err != nil {
			return nil, 0, err
		}
		res, m, err := r.execRead(tr, bound, t)
		if err != nil {
			return nil, 0, err
		}
		s = tr.begin(phEncode)
		resp.Cols = res.Cols
		resp.Rows = wireRows(res.Rows)
		resp.Stats = &server.QueryStats{
			ScanFree:   bound.ScanFree,
			Gets:       m.Gets,
			DataValues: m.DataValues,
			WallMicros: m.Wall.Microseconds(),
			CacheHit:   hit,
		}
	} else {
		s = tr.begin(phExecWrite)
		out, err := r.inst.ExecTraced(t, req.SQL, params...)
		tr.end(s)
		if err != nil {
			return nil, 0, err
		}
		s = tr.begin(phEncode)
		resp.Affected = out.Affected
	}
	_, err = json.Marshal(&resp)
	tr.end(s)
	return t, resp.Affected, err
}

// compile is Server.compileNorm: the cached plan, or parse, bind and plan
// on a miss.
func (r *replica) compile(tr *tracer, norm, src string) (*core.PlanInfo, bool, error) {
	s := tr.begin(phCacheGet)
	_, hit := r.cache.Get(norm)
	tr.end(s)
	if hit {
		return r.plans[norm], true, nil
	}
	s = tr.begin(phParse)
	stmt, err := sql.ParseStatement(src)
	tr.end(s)
	if err != nil {
		return nil, false, err
	}
	ast, ok := stmt.(*sql.Query)
	if !ok {
		return nil, false, fmt.Errorf("not a query: %s", src)
	}
	s = tr.begin(phRaBind)
	q, err := ra.Bind(ast, r.db)
	tr.end(s)
	if err != nil {
		return nil, false, err
	}
	s = tr.begin(phPlan)
	info, err := r.checker.Plan(q)
	if err == nil && info.Root != nil {
		_ = info.Root.String() // Instance.Prepare renders the plan text once per compile
	}
	tr.end(s)
	if err != nil {
		return nil, false, err
	}
	s = tr.begin(phCacheGet)
	r.cache.Put(norm, nil)
	tr.end(s)
	r.plans[norm] = info
	return info, false, nil
}

// execRead is Prepared.RunTraced after the bind: pin a snapshot, run the
// plan against the pinned view, release.
func (r *replica) execRead(tr *tracer, info *core.PlanInfo, t *obs.Trace) (*ra.Result, *parallel.Metrics, error) {
	s := tr.begin(phPin)
	snap := r.store.PinSnapshot(info.Relations)
	defer func() {
		s := tr.begin(phPin)
		snap.Release()
		tr.end(s)
	}()
	view := r.store.AtSnapshot(snap)
	tr.end(s)

	s = tr.begin(phExec)
	res, m, err := parallel.RunKBATraced(info, view, r.workers, t)
	tr.end(s)
	return res, m, err
}

// wireRows shapes result tuples as the server's JSON rows.
func wireRows(rows []relation.Tuple) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		row := make([]any, len(r))
		for j, v := range r {
			switch v.Kind {
			case relation.KindInt:
				row[j] = v.Int
			case relation.KindFloat:
				row[j] = v.Flt
			case relation.KindString:
				row[j] = v.Str
			}
		}
		out[i] = row
	}
	return out
}
