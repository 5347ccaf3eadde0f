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
	"time"

	"zidian/internal/relation"
	"zidian/internal/sql"
)

// AnonymizeSQL returns a statement key's statistics and capture template and
// the kinds of its placeholders; sql.Anonymize has the rules.
func AnonymizeSQL(norm string, params []relation.Value) (string, []string) {
	return sql.Anonymize(norm, params)
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
