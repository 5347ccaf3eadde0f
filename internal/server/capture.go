// Workload capture: the serving layer can stream one JSON line per finished
// statement to a sink, recording the statement's anonymized template, the
// kinds of its bound values (never the values themselves), its arrival-time
// offset, session, and outcome. The resulting file is a replayable workload
// description: zidian-loadgen -replay re-drives the same template mix with
// synthesized binds, and zidian-bench -exp replay turns any captured run into
// a before/after comparison.
package server

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"zidian/internal/relation"
)

// AnonymizeSQL rewrites a NormalizeSQL-normalized statement into its
// statistics/capture template: every literal becomes a `?` placeholder and
// the kind of each replaced or bound value is reported positionally, so two
// statements differing only in constants share one template and no literal
// value ever reaches a capture file. params are the statement's bound values
// (for `?` placeholders already present in the text); they contribute their
// kinds in position. Rules:
//
//   - '-quoted string literals (including ” escapes) become ? with kind
//     "string";
//   - numeric literals become ? with kind "int" or "float" — except a number
//     directly after the keyword `limit`, which is kept verbatim: a LIMIT
//     count is plan shape, not data, and replaying it with a random bind
//     would change the statement's cost class;
//   - pre-existing ? placeholders stay and take their kind from params;
//   - "-quoted regions (quoted identifiers) and everything else copy
//     verbatim.
func AnonymizeSQL(norm string, params []relation.Value) (string, []string) {
	var b []byte
	var binds []string
	paramIdx := 0
	lastWord := ""
	isWordByte := func(c byte) bool {
		return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
	}
	for i := 0; i < len(norm); {
		c := norm[i]
		switch {
		case c == '\'':
			// String literal → placeholder; skip the body honoring '' escapes.
			i++
			for i < len(norm) {
				if norm[i] == '\'' {
					if i+1 < len(norm) && norm[i+1] == '\'' {
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
			b = append(b, '?')
			binds = append(binds, "string")
			lastWord = ""
		case c == '"':
			// Quoted identifier: verbatim.
			b = append(b, c)
			i++
			for i < len(norm) {
				b = append(b, norm[i])
				if norm[i] == '"' {
					i++
					break
				}
				i++
			}
			lastWord = ""
		case c == '?':
			b = append(b, '?')
			if paramIdx < len(params) {
				binds = append(binds, bindKind(params[paramIdx]))
			} else {
				binds = append(binds, "any")
			}
			paramIdx++
			i++
			lastWord = ""
		case c >= '0' && c <= '9',
			c == '-' && i+1 < len(norm) && norm[i+1] >= '0' && norm[i+1] <= '9':
			start := i
			if c == '-' {
				i++
			}
			isFloat := false
			for i < len(norm) && ((norm[i] >= '0' && norm[i] <= '9') || norm[i] == '.') {
				if norm[i] == '.' {
					isFloat = true
				}
				i++
			}
			// Digits glued to an identifier head (T1, sess_2) are part of
			// the identifier per the word scan below — this branch only
			// fires when the previous byte was not a word byte, so a bare
			// digit run here is always a literal.
			if lastWord == "limit" {
				b = append(b, norm[start:i]...)
			} else {
				b = append(b, '?')
				if isFloat {
					binds = append(binds, "float")
				} else {
					binds = append(binds, "int")
				}
			}
			lastWord = ""
		case isWordByte(c):
			start := i
			for i < len(norm) && isWordByte(norm[i]) {
				i++
			}
			word := norm[start:i]
			b = append(b, word...)
			lastWord = word
		default:
			b = append(b, c)
			i++
			if c != ' ' {
				lastWord = ""
			}
		}
	}
	return string(b), binds
}

// anonCache memoizes AnonymizeSQL keyed by the normalized statement text.
// A serving workload is a small set of templates repeated many times, and
// the rewrite costs several allocations per statement, so each server keeps
// one. Entries are computed with nil params; the kinds of a statement's own
// bound values are patched in per call (paramSlots marks which positions
// came from `?` placeholders — the only positions params can fill).
type anonCache struct {
	m sync.Map // norm string → *anonEntry
	n atomic.Int64
}

// anonCacheMax bounds the cache. Only texts the rewrite leaves unchanged
// are admitted — templates, whose values all sit in `?` slots. A text with
// literals of its own (an inlined INSERT, a range fence) is one of an
// unbounded family and would only crowd the templates out, so it is rewritten
// each time and never stored: no burst of one-off texts can fill the memo.
// Should distinct templates alone pass the cap, the memo is dropped and
// refills from live traffic.
const anonCacheMax = 4096

type anonEntry struct {
	template   string
	binds      []string // kinds with `?` placeholders unresolved ("any")
	paramSlots []int    // positions in binds filled from the caller's params
}

func (c *anonCache) anonymize(norm string, params []relation.Value) (string, []string) {
	if v, ok := c.m.Load(norm); ok {
		e := v.(*anonEntry)
		return e.template, e.resolve(params)
	}
	template, binds := AnonymizeSQL(norm, nil)
	e := &anonEntry{template: template, binds: binds}
	// With nil params every `?` placeholder reports kind "any", and nothing
	// else can: literal rewrites always know their kind.
	for i, k := range binds {
		if k == "any" {
			e.paramSlots = append(e.paramSlots, i)
		}
	}
	if template == norm {
		if _, loaded := c.m.LoadOrStore(norm, e); !loaded && c.n.Add(1) > anonCacheMax {
			c.m.Clear()
			c.n.Store(0)
		}
	}
	return e.template, e.resolve(params)
}

// resolve returns the entry's bind kinds with params' kinds substituted at
// the placeholder positions. The shared slice is returned as-is when there
// is nothing to patch; callers treat bind lists as read-only.
func (e *anonEntry) resolve(params []relation.Value) []string {
	if len(e.paramSlots) == 0 || len(params) == 0 {
		return e.binds
	}
	out := make([]string, len(e.binds))
	copy(out, e.binds)
	for i, at := range e.paramSlots {
		if i >= len(params) {
			break
		}
		out[at] = bindKind(params[i])
	}
	return out
}

// bindKind names a bound value's kind for the capture stream.
func bindKind(v relation.Value) string {
	switch v.Kind {
	case relation.KindInt:
		return "int"
	case relation.KindFloat:
		return "float"
	case relation.KindString:
		return "string"
	default:
		return "any"
	}
}

// CaptureEntry is one line of a workload capture file. It holds the
// statement's shape and timing, never its data: Template is the anonymized
// text and Binds records only the kind of each bound or replaced literal.
type CaptureEntry struct {
	// DTMicros is the statement's start offset from capture start, in
	// microseconds; replay paces by these deltas.
	DTMicros int64 `json:"dtMicros"`
	// Session identifies the originating connection (0 for HTTP), so replay
	// can preserve per-session ordering.
	Session uint64 `json:"session,omitempty"`
	// Verb is the serving-layer verb (select, insert, delete, ddl, ...).
	Verb string `json:"verb"`
	// Template is the anonymized normalized statement.
	Template string `json:"template"`
	// Binds are the kinds of the statement's bound values, in placeholder
	// order: "int", "float", "string", or "any".
	Binds []string `json:"binds,omitempty"`
	// Rows is the result row count (SELECT) or affected count (write).
	Rows int64 `json:"rows,omitempty"`
	// OK records the outcome; replay skips nothing but reports mismatches.
	OK bool `json:"ok"`
}

// captureLog serializes capture entries to a sink, one JSON line each.
type captureLog struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
}

func newCaptureLog(w io.Writer) *captureLog {
	if w == nil {
		return nil
	}
	return &captureLog{w: w, start: time.Now()}
}

// record appends one finished statement. nil-safe so the hot path can call
// it unconditionally.
func (l *captureLog) record(e CaptureEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e.DTMicros = time.Since(l.start).Microseconds()
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	l.w.Write(append(line, '\n'))
}

// RotatingFile is an append-only log sink with one-deep rotation: Rotate
// closes the current file, moves it to path+".1" (replacing any previous
// rotation), and reopens the path truncated. The slow-query log uses it to
// honor its byte cap without losing the most recent window.
type RotatingFile struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// OpenRotatingFile opens (or creates, appending) path as a rotating sink.
func OpenRotatingFile(path string) (*RotatingFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &RotatingFile{path: path, f: f}, nil
}

// Write appends to the current file.
func (r *RotatingFile) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return 0, os.ErrClosed
	}
	return r.f.Write(p)
}

// Rotate moves the current file aside to path+".1" and starts fresh.
func (r *RotatingFile) Rotate() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return os.ErrClosed
	}
	if err := r.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(r.path, r.path+".1"); err != nil && !os.IsNotExist(err) {
		return err
	}
	f, err := os.OpenFile(r.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		r.f = nil
		return err
	}
	r.f = f
	return nil
}

// Close closes the underlying file.
func (r *RotatingFile) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
