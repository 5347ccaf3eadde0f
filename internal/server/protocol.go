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
package server

import (
	"encoding/json"
	"fmt"
	"strings"

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
}

// DecodeParams converts a request's raw JSON parameters into SQL values.
// Integral JSON numbers become ints (block keys are routinely ints, and a
// float-typed 42 would encode to a different storage key than the int 42),
// other numbers become floats, JSON strings become strings. Booleans, null,
// arrays and objects are rejected.
func DecodeParams(raw []json.RawMessage) ([]relation.Value, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make([]relation.Value, len(raw))
	for i, r := range raw {
		s := strings.TrimSpace(string(r))
		if s == "" {
			return nil, fmt.Errorf("server: parameter %d is empty", i)
		}
		if s[0] == '"' {
			var v string
			if err := json.Unmarshal(r, &v); err != nil {
				return nil, fmt.Errorf("server: parameter %d: %w", i, err)
			}
			out[i] = relation.String(v)
			continue
		}
		var num json.Number
		if err := json.Unmarshal(r, &num); err != nil {
			return nil, fmt.Errorf("server: parameter %d must be a number or string, got %s", i, s)
		}
		if iv, err := num.Int64(); err == nil {
			out[i] = relation.Int(iv)
			continue
		}
		fv, err := num.Float64()
		if err != nil {
			return nil, fmt.Errorf("server: parameter %d: %w", i, err)
		}
		out[i] = relation.Float(fv)
	}
	return out, nil
}

// EncodeParams converts Go values into wire parameters; the client uses it
// to build requests. Supported kinds: integers, floats, strings, and
// relation.Value.
func EncodeParams(params []any) ([]json.RawMessage, error) {
	if len(params) == 0 {
		return nil, nil
	}
	out := make([]json.RawMessage, len(params))
	for i, p := range params {
		if v, ok := p.(relation.Value); ok {
			p = jsonValue(v)
		}
		switch p.(type) {
		case int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64,
			float32, float64, string:
		default:
			return nil, fmt.Errorf("server: unsupported parameter %d type %T", i, p)
		}
		b, err := json.Marshal(p)
		if err != nil {
			return nil, fmt.Errorf("server: parameter %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
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
	// (all verbs merged); nil when metrics are disabled or nothing ran yet.
	QueryLatency *LatencyQuantiles `json:"queryLatency,omitempty"`
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

// jsonValue converts a relation value to its natural JSON representation.
func jsonValue(v relation.Value) any {
	switch v.Kind {
	case relation.KindInt:
		return v.Int
	case relation.KindFloat:
		return v.Flt
	case relation.KindString:
		return v.Str
	default:
		return nil
	}
}

// jsonRows converts result tuples to JSON-ready rows.
func jsonRows(rows []relation.Tuple) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		row := make([]any, len(r))
		for j, v := range r {
			row[j] = jsonValue(v)
		}
		out[i] = row
	}
	return out
}

// NormalizeSQL canonicalizes a statement for plan-cache keying: whitespace
// runs outside quoted regions collapse to one space, reserved keywords fold
// to lower case, and trailing semicolons are dropped. Two spellings of the
// same statement therefore share one cache entry, while everything the
// compiled plan depends on stays significant:
//
//   - string literals — including text after an embedded ” escape, which
//     the lexer keeps inside the literal (internal/sql/lexer.go) — are
//     copied verbatim, so statements differing only inside a literal never
//     collide on one cache key;
//   - "-quoted regions are tracked like '-quoted ones and copied verbatim;
//   - identifier case is preserved (the parser keeps it, and relation and
//     attribute lookups are case-sensitive), so SELECT * FROM Emp and
//     select * from emp — different relations — key separately. Only words
//     in the lexer's reserved set, which can never be identifiers, fold.
func NormalizeSQL(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	space := false
	flushSpace := func() {
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
	}
	isWord := func(c byte) bool {
		return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
	}
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '\'' || c == '"':
			// Quoted region: copy verbatim up to the closing quote. A ''
			// inside a '-quoted literal is the lexer's escape for one quote
			// character, not the end of the literal, so it keeps the region
			// open (the pre-fix normalizer exited here and mangled the rest
			// of the literal).
			quote := c
			flushSpace()
			b.WriteByte(c)
			i++
			for i < len(src) {
				b.WriteByte(src[i])
				if src[i] == quote {
					if quote == '\'' && i+1 < len(src) && src[i+1] == quote {
						b.WriteByte(src[i+1])
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			space = true
			i++
		case isWord(c):
			start := i
			for i < len(src) && isWord(src[i]) {
				i++
			}
			word := src[start:i]
			flushSpace()
			if sql.IsReserved(word) {
				b.WriteString(strings.ToLower(word))
			} else {
				b.WriteString(word)
			}
		default:
			flushSpace()
			b.WriteByte(c)
			i++
		}
	}
	s := b.String()
	for strings.HasSuffix(s, ";") {
		s = strings.TrimSuffix(s, ";")
		s = strings.TrimRight(s, " ")
	}
	return s
}

// LiftSQL turns an ad hoc SELECT into the plan-cache key and bindings of its
// `?` template: sql.LiftLiterals takes the literals in `=` and `IN (...)`
// operand positions out of the text, walking the parser's own lexer so an
// operand is exactly what the parser would read as one, and NormalizeSQL
// keys what is left — the text a client that parameterized those positions
// would have sent, so both reach one cache entry. Range-compared literals
// and LIMIT counts stay in the template. ok is false when the statement must
// be keyed and compiled by its literal text (see sql.LiftLiterals).
func LiftSQL(src string) (template string, vals []relation.Value, ok bool) {
	text, vals, ok := sql.LiftLiterals(src)
	if !ok {
		return "", nil, false
	}
	return NormalizeSQL(text), vals, true
}
