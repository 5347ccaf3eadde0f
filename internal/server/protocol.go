// Package server is the serving layer of the SQL-over-NoSQL middleware: a
// long-lived, concurrent query service wrapping a zidian.Instance.
//
// The paper positions Zidian as middleware between SQL clients and a NoSQL
// store; this package supplies the pieces such a deployment needs beyond
// query compilation itself — connection handling, statement reuse, and load
// shedding:
//
//   - a line-delimited JSON wire protocol over TCP (one Request per line in,
//     one Response per line out, requests served in order per connection),
//   - an HTTP surface (POST/GET /query, GET /healthz, GET /stats),
//   - per-connection sessions with named prepared statements,
//   - a shared, lock-striped plan cache keyed by normalized SQL text so
//     repeated queries skip the parse/check/plan pipeline,
//   - admission control: a bounded number of concurrently executing
//     statements plus a bounded wait queue with a timeout, so overload
//     degrades into fast rejections instead of collapse,
//   - graceful shutdown draining in-flight work.
//
// # Wire protocol
//
// Each request is one JSON object on one line. Fields:
//
//	{"id": 7, "op": "query",   "sql": "select ..."}        run one statement (a SELECT, by convention)
//	{"id": 8, "op": "exec",    "sql": "insert ..."}        run one statement (the same dispatch)
//	{"id": 9, "op": "prepare", "name": "q1", "sql": "..."} compile + name a SELECT
//	{"id":10, "op": "execute", "name": "q1"}               run a prepared SELECT
//	{"id":11, "op": "close",   "name": "q1"}               drop a prepared SELECT
//	{"id":12, "op": "ping"}                                liveness check
//	{"id":13, "op": "stats"}                               server statistics
//
// Statements may carry `?` placeholders; the params array binds them
// positionally. JSON integers bind as SQL ints, fractions as floats,
// strings as strings:
//
//	{"id":14, "op": "query", "sql": "select V.make from VEHICLE V where V.vehicle_id = ?",
//	 "params": [42]}
//	{"id":15, "op": "prepare", "name": "q2", "sql": "... where V.vehicle_id = ?"}
//	{"id":16, "op": "execute", "name": "q2", "params": [7]}
//
// The response mirrors the id and carries either ok:true with the payload or
// ok:false with an error string:
//
//	{"id":7,"ok":true,"cols":["make","model"],"rows":[["FORD","F-150"]],
//	 "stats":{"scanFree":true,"gets":3,"wallMicros":412,"cacheHit":true}}
//
// Both structs are read and written by the hand-written codec in wire.go, on
// both ends of the connection: it accepts what encoding/json accepted for a
// Request except that keys match by exact case, and writes byte for byte
// what encoding/json wrote for a Response (README "Wire protocol" has the
// grammar).
package server

import (
	"encoding/json"

	"zidian/internal/obs"
	"zidian/internal/relation"
	"zidian/internal/sql"
)

// Request is one client command.
type Request struct {
	// ID is echoed back in the response so clients can match replies.
	ID int64 `json:"id,omitempty"`
	// Op is the command: query, exec, prepare, execute, close, ping, stats.
	Op string `json:"op"`
	// SQL is the statement text for query, exec and prepare.
	SQL string `json:"sql,omitempty"`
	// Name identifies a prepared statement for prepare, execute and close.
	Name string `json:"name,omitempty"`
	// Params binds the statement's `?` placeholders positionally (query,
	// exec, execute). Elements are JSON numbers or strings.
	Params []json.RawMessage `json:"params,omitempty"`

	// vals and valErr are Params as the wire decoder bound them while it
	// scanned the line (see wireScanner.params): the values, or why one of
	// them is not a parameter.
	vals   []relation.Value
	valErr error
}

// Response is the reply to one Request.
type Response struct {
	ID int64 `json:"id,omitempty"`
	OK bool  `json:"ok"`
	// Error describes the failure when OK is false; Code is its
	// machine-readable class ("queue_timeout", "overloaded", "canceled",
	// "statement", or "protocol" for a line that is not a request), so
	// clients can tell retryable backpressure rejections from statement
	// faults without parsing the message.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// Cols and Rows carry a SELECT answer.
	Cols []string `json:"cols,omitempty"`
	Rows [][]any  `json:"rows,omitempty"`
	// Affected is the row count of an INSERT or DELETE.
	Affected int `json:"affected,omitempty"`
	// Stats carries per-query execution statistics for SELECTs.
	Stats *QueryStats `json:"stats,omitempty"`
	// Server carries server-wide statistics for the stats op.
	Server *ServerStats `json:"server,omitempty"`

	// tuples is a SELECT answer as the executor returned it; the encoder
	// reads it in place of Rows, so the server never boxes a cell.
	tuples []relation.Tuple
}

// QueryStats is the wire form of zidian.Stats plus serving-layer fields.
type QueryStats struct {
	ScanFree   bool   `json:"scanFree"`
	Bounded    bool   `json:"bounded"`
	Gets       int64  `json:"gets"`
	DataValues int64  `json:"dataValues"`
	WallMicros int64  `json:"wallMicros"`
	CacheHit   bool   `json:"cacheHit"`
	Plan       string `json:"plan,omitempty"`
}

// ServerStats is the payload of the stats op and the /stats endpoint.
type ServerStats struct {
	UptimeSeconds  float64        `json:"uptimeSeconds"`
	Sessions       int64          `json:"sessions"`
	TotalSessions  int64          `json:"totalSessions"`
	Queries        int64          `json:"queries"`
	Errors         int64          `json:"errors"`
	PlanCache      CacheStats     `json:"planCache"`
	Admission      AdmissionStats `json:"admission"`
	StoreGets      int64          `json:"storeGets"`
	StoreScanNexts int64          `json:"storeScanNexts"`
	// QueryLatency summarizes the server-side statement latency histogram
	// (all verbs merged); nil when nothing ran yet.
	QueryLatency *LatencyQuantiles `json:"queryLatency,omitempty"`
}

// CacheStats is a point-in-time snapshot of plan cache effectiveness.
type CacheStats struct {
	Size      int     `json:"size"`
	Capacity  int     `json:"capacity"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hitRate"`
	// The three-way split of Hits by how the statement reached its entry:
	// ParamsHits on a template the client parameterized itself, LiftedHits
	// on a template the server derived by lifting the statement's equality
	// literals (both kinds share entries: one plan serves every literal of a
	// shape), LiteralHits on an entry keyed by literal text — the fallback,
	// which only an exact-text repeat can hit. A lifted statement whose
	// values the template rejects counts once, under its literal text.
	ParamsHits  int64 `json:"paramsHits"`
	LiftedHits  int64 `json:"liftedHits"`
	LiteralHits int64 `json:"literalHits"`
	// Epoch is the instance's schema epoch; Invalidations counts the schema
	// changes since the server started, and StaleDrops the entries the
	// server dropped because their plan trailed the epoch.
	Epoch         uint64 `json:"epoch"`
	Invalidations int64  `json:"invalidations"`
	StaleDrops    int64  `json:"staleDrops"`
}

// StatementsPayload is the body of GET /stats/statements: the per-template
// statement statistics registry, sorted and optionally truncated. Templates
// are anonymized (literals replaced by ?), so the payload never carries data
// values. Evicted, when present, folds the totals of templates evicted from
// the registry so sums over the payload stay conserved.
type StatementsPayload struct {
	SortedBy   string          `json:"sortedBy"`
	Tracked    int             `json:"tracked"`
	Capacity   int             `json:"capacity"`
	Evictions  int64           `json:"evictions"`
	Statements []obs.StmtEntry `json:"statements"`
	Evicted    *obs.StmtEntry  `json:"evicted,omitempty"`
}

// LatencyQuantiles are interpolated quantiles of a latency histogram, in
// microseconds to match the rest of the wire stats.
type LatencyQuantiles struct {
	Count     int64   `json:"count"`
	P50Micros float64 `json:"p50Micros"`
	P95Micros float64 `json:"p95Micros"`
	P99Micros float64 `json:"p99Micros"`
}

// NormalizeSQL returns a statement's plan-cache key; sql.Normalize has the
// rules.
func NormalizeSQL(src string) string { return sql.Normalize(src) }
