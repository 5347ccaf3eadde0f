package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"zidian/internal/relation"
)

func TestAnonymizeSQL(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		params []relation.Value
		want   string
		binds  []string
	}{
		{
			name:  "int literal",
			src:   "select T.a from T where T.id = 42",
			want:  "select T.a from T where T.id = ?",
			binds: []string{"int"},
		},
		{
			name:  "string literal with quote escape",
			src:   "select T.a from T where T.name = 'O''Brien' and T.id = 7",
			want:  "select T.a from T where T.name = ? and T.id = ?",
			binds: []string{"string", "int"},
		},
		{
			name:  "float and negative int",
			src:   "select T.a from T where T.x = 1.5 and T.y = -3",
			want:  "select T.a from T where T.x = ? and T.y = ?",
			binds: []string{"float", "int"},
		},
		{
			name:  "limit count stays verbatim",
			src:   "select T.a from T where T.id = 9 LIMIT 10",
			want:  "select T.a from T where T.id = ? limit 10",
			binds: []string{"int"},
		},
		{
			name:   "existing placeholders take kinds from params",
			src:    "select T.a from T where T.id = ? and T.name = ?",
			params: []relation.Value{relation.Int(4), relation.String("x")},
			want:   "select T.a from T where T.id = ? and T.name = ?",
			binds:  []string{"int", "string"},
		},
		{
			name:  "placeholder beyond params reports any",
			src:   "select T.a from T where T.id = ?",
			want:  "select T.a from T where T.id = ?",
			binds: []string{"any"},
		},
		{
			// The parser has no quoted identifiers: "…" is a string literal.
			name:  "double-quoted literal and digit-bearing alias",
			src:   `select T1.a from "Weird Rel" T1 where T1.v = 5`,
			want:  `select T1.a from ? T1 where T1.v = ?`,
			binds: []string{"string", "int"},
		},
		{
			name:  "insert values",
			src:   "insert into ACCOUNTS values (1001, 'W2', 55)",
			want:  "insert into ACCOUNTS values (?, ?, ?)",
			binds: []string{"int", "string", "int"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, binds := AnonymizeSQL(NormalizeSQL(tc.src), tc.params)
			if got != tc.want {
				t.Fatalf("template:\n got %q\nwant %q", got, tc.want)
			}
			if !reflect.DeepEqual(binds, tc.binds) {
				t.Fatalf("binds: got %v want %v", binds, tc.binds)
			}
		})
	}
}

// TestAnonymizeSQLNoLiteralLeak feeds statements with distinctive literal
// values and requires none of them to survive into the template — the privacy
// property the capture stream depends on.
func TestAnonymizeSQLNoLiteralLeak(t *testing.T) {
	for _, tc := range []struct {
		src, want string
		secrets   []string
		binds     []string
	}{
		{"select T.a from T where T.id = 8675309 and T.pw = 'hunter2' and T.x = 4.9921",
			"select T.a from T where T.id = ? and T.pw = ? and T.x = ?",
			[]string{"8675309", "hunter2", "4.9921"}, []string{"int", "string", "float"}},
		{`select V.model from VEHICLE V where V.make > "SECRETMAKE"`,
			"select V.model from VEHICLE V where V.make > ?",
			[]string{"SECRETMAKE"}, []string{"string"}},
		{`insert into T values (1, "SECRETVAL")`,
			"insert into T values (?, ?)",
			[]string{"SECRETVAL"}, []string{"int", "string"}},
		{`delete from T where T.pw = "SECRETPW"`,
			"delete from T where T.pw = ?",
			[]string{"SECRETPW"}, []string{"string"}},
		{`select T.a from T where T.pw = "SECRET OPEN`,
			"select T.a from T where T.pw = ?",
			[]string{"SECRET"}, []string{"any"}},
	} {
		got, binds := AnonymizeSQL(NormalizeSQL(tc.src), nil)
		for _, s := range tc.secrets {
			if strings.Contains(got, s) {
				t.Errorf("literal %q leaked into template %q", s, got)
			}
		}
		if got != tc.want || !reflect.DeepEqual(binds, tc.binds) {
			t.Errorf("AnonymizeSQL(%q) = %q %v, want %q %v", tc.src, got, binds, tc.want, tc.binds)
		}
	}
}

func TestCaptureLogRecord(t *testing.T) {
	var buf bytes.Buffer
	l := newCaptureLog(&buf)
	l.record(CaptureEntry{Verb: "select", Template: "select T.a from T where T.id = ?", Binds: []string{"int"}, Rows: 3, OK: true})
	l.record(CaptureEntry{Verb: "insert", Template: "insert into T values (?)", Binds: []string{"int"}, OK: true, Session: 2})

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d capture lines, want 2", len(lines))
	}
	var e CaptureEntry
	if err := json.Unmarshal(lines[0], &e); err != nil {
		t.Fatal(err)
	}
	if e.Verb != "select" || e.Rows != 3 || !e.OK {
		t.Fatalf("round-trip mismatch: %+v", e)
	}
	if e.DTMicros < 0 {
		t.Fatalf("negative arrival delta %d", e.DTMicros)
	}

	// nil sink, nil log: both safe no-ops.
	newCaptureLog(nil).record(CaptureEntry{Verb: "select"})
}

func TestRotatingFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slow.log")
	rf, err := OpenRotatingFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf.Write([]byte("first\n")); err != nil {
		t.Fatal(err)
	}
	if err := rf.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := rf.Write([]byte("second\n")); err != nil {
		t.Fatal(err)
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	if string(old) != "first\n" {
		t.Fatalf("rotated file holds %q, want %q", old, "first\n")
	}
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(cur) != "second\n" {
		t.Fatalf("current file holds %q, want %q", cur, "second\n")
	}
	// Rotate twice more: .1 is replaced, never accumulated.
	rf2, err := OpenRotatingFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rf2.Write([]byte("third\n"))
	if err := rf2.Rotate(); err != nil {
		t.Fatal(err)
	}
	rf2.Close()
	old, _ = os.ReadFile(path + ".1")
	if string(old) != "second\nthird\n" {
		t.Fatalf("second rotation holds %q, want %q", old, "second\nthird\n")
	}
}

// slowCtx builds a minimal finished-statement context for logSlow.
func slowCtx(o *serverObs) *stmtCtx {
	c := o.begin(verbSelect)
	c.template = "select T.a from T where T.id = ?"
	c.binds = []string{"int"}
	return c
}

// TestSlowQueryLogByteCapDrops caps the log over a plain (non-rotating)
// writer: once the cap is reached further lines are dropped and counted.
func TestSlowQueryLogByteCapDrops(t *testing.T) {
	var buf bytes.Buffer
	o := newServerObs(nil, Config{
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &buf,
	})
	c := slowCtx(o)

	// Measure one line, then cap at 2.5 lines.
	o.slowMaxBytes = 1 << 30
	o.logSlow(c, 1, time.Millisecond, nil)
	lineLen := int64(buf.Len())
	if lineLen == 0 {
		t.Fatal("no slow-query line written")
	}
	o.slowMaxBytes = lineLen*2 + lineLen/2

	for i := 0; i < 5; i++ {
		o.logSlow(c, 1, time.Millisecond, nil)
	}
	if int64(buf.Len()) > o.slowMaxBytes {
		t.Fatalf("log grew to %d bytes past the %d cap", buf.Len(), o.slowMaxBytes)
	}
	if got := o.slowDropped.Value(); got != 4 {
		t.Fatalf("dropped %d lines, want 4 (one fits after the first, four over cap)", got)
	}
	// Every retained line is valid JSON with the anonymized template.
	for _, ln := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var e slowEntry
		if err := json.Unmarshal(ln, &e); err != nil {
			t.Fatalf("retained line unparseable: %v", err)
		}
		if e.Template != c.template {
			t.Fatalf("template %q, want %q", e.Template, c.template)
		}
	}
}

// TestSlowQueryLogByteCapRotates caps the log over a RotatingFile: hitting
// the cap rotates instead of dropping, so nothing is lost and the counter
// stays at zero.
func TestSlowQueryLogByteCapRotates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slow.log")
	rf, err := OpenRotatingFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	o := newServerObs(nil, Config{
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       rf,
	})
	c := slowCtx(o)

	o.slowMaxBytes = 1 << 30
	o.logSlow(c, 1, time.Millisecond, nil)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	lineLen := fi.Size()
	o.slowMaxBytes = lineLen*2 + lineLen/2

	for i := 0; i < 5; i++ {
		o.logSlow(c, 1, time.Millisecond, nil)
	}
	if got := o.slowDropped.Value(); got != 0 {
		t.Fatalf("dropped %d lines despite rotation", got)
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("no rotated file: %v", err)
	}
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > o.slowMaxBytes {
		t.Fatalf("current log %d bytes past the %d cap", fi.Size(), o.slowMaxBytes)
	}
}

// TestSlowQueryLogOversizeLine drops a single line larger than the cap even
// on a rotating sink — rotation cannot make it fit.
func TestSlowQueryLogOversizeLine(t *testing.T) {
	var buf bytes.Buffer
	o := newServerObs(nil, Config{
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &buf,
		SlowQueryMaxBytes:  8,
	})
	o.logSlow(slowCtx(o), 1, time.Millisecond, nil)
	if buf.Len() != 0 {
		t.Fatalf("oversize line written (%d bytes)", buf.Len())
	}
	if got := o.slowDropped.Value(); got != 1 {
		t.Fatalf("dropped %d, want 1", got)
	}
}
