package main

import (
	"bufio"
	"os"
	"strconv"
	"time"
)

// The benchmark's own tracing. Spans are recorded from this package, around
// the calls into each layer; no product file carries a span. They stay in
// memory during the pass and are written out when it ends.

// phase names a span. The string is the per-layer metric the span's self
// time is reported under.
type phase uint8

const (
	phStmt phase = iota
	phDecode
	phNormalize
	phAnonymize
	phCacheGet
	phParse
	phRaBind
	phPlan
	phKbaBind
	phPin
	phExec
	phEncode
	phExecWrite
	numPhases
)

var phaseNames = [numPhases]string{
	phStmt:      "stmt.total_ns",
	phDecode:    "wire.decode_ns",
	phNormalize: "server.normalize_ns",
	phAnonymize: "server.anonymize_ns",
	phCacheGet:  "server.plancache_get_ns",
	phParse:     "sql.parse_ns",
	phRaBind:    "ra.bind_ns",
	phPlan:      "core.plan_ns",
	phKbaBind:   "kba.bind_ns",
	phPin:       "baav.pin_ns",
	phExec:      "parallel.exec_ns",
	phEncode:    "wire.encode_ns",
	phExecWrite: "zidian.exec_write_ns",
}

// span is one timed interval: which statement it belongs to, the span that
// caused it (-1 for a statement's root), and its bounds in nanoseconds
// since the pass started.
type span struct {
	stmt       int32
	parent     int32
	name       phase
	start, end int64
}

// tracer records spans for one single-goroutine pass. While on is false it
// records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int32 // stack of open span ids
	stmt  int32
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name phase) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{stmt: t.stmt, parent: parent, name: name, start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// nextStmt closes out a statement; spans begun afterwards belong to the
// next one.
func (t *tracer) nextStmt() { t.stmt++ }

// selfTimes returns each span's self time: its duration minus the part of
// it its child spans cover. The pass is one goroutine, so a span's children
// are sequential and never overlap; their coverage is the sum of their
// durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// phaseTotals sums, per phase, the spans' self times and durations, and
// counts them.
func phaseTotals(spans []span) (selfNs, durNs, count [numPhases]int64) {
	for i, self := range selfTimes(spans) {
		s := spans[i]
		selfNs[s.name] += self
		durNs[s.name] += s.end - s.start
		count[s.name]++
	}
	return selfNs, durNs, count
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for id, s := range spans {
		b = append(b[:0], `{"stmt":`...)
		b = strconv.AppendInt(b, int64(s.stmt), 10)
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"name":"`...)
		b = append(b, phaseNames[s.name]...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, "}\n"...)
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
