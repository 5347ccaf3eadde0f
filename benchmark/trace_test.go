package main

import (
	"math"
	"testing"
)

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	// stmt [0,100) → decode [5,25), exec [30,90) → pin [35,45)
	spans := []span{
		{parent: -1, name: phStmt, start: 0, end: 100},
		{parent: 0, name: phDecode, start: 5, end: 25},
		{parent: 0, name: phExec, start: 30, end: 90},
		{parent: 2, name: phPin, start: 35, end: 45},
	}
	want := []int64{20, 20, 50, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got, want[i])
		}
	}
	selfNs, durNs, count := phaseTotals(spans)
	if selfNs[phExec] != 50 || durNs[phExec] != 60 || count[phExec] != 1 || selfNs[phStmt] != 20 || durNs[phStmt] != 100 {
		t.Errorf("phase totals: exec self %d of %d ×%d, stmt self %d of %d",
			selfNs[phExec], durNs[phExec], count[phExec], selfNs[phStmt], durNs[phStmt])
	}
}

func TestTracerNestsAndRecordsNothingWhileOff(t *testing.T) {
	tr := newTracer(8)
	tr.on = true
	root := tr.begin(phStmt)
	child := tr.begin(phDecode)
	tr.end(child)
	tr.end(root)
	tr.nextStmt()
	next := tr.begin(phStmt)
	tr.end(next)
	if tr.spans[child].parent != root || tr.spans[root].parent != -1 || tr.spans[next].parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if tr.spans[child].stmt != 0 || tr.spans[next].stmt != 1 {
		t.Errorf("statement ids: %+v", tr.spans)
	}
	tr.on = false
	tr.end(tr.begin(phStmt))
	if len(tr.spans) != 3 || len(tr.open) != 0 {
		t.Errorf("a span was recorded while off: %+v", tr.spans)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, because that is what the driver computes spreads with.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2, 5, 4})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5: %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

func TestHistogramDeltaFromExposition(t *testing.T) {
	before := parseProm([]byte(`# TYPE h histogram
h_bucket{verb="select",le="0.001"} 10
h_bucket{verb="select",le="0.01"} 10
h_bucket{verb="select",le="+Inf"} 10
h_sum{verb="select"} 0.005
h_count{verb="select"} 10
c{op="get"} 5
`))
	after := parseProm([]byte(`h_bucket{verb="select",le="0.001"} 60
h_bucket{verb="select",le="0.01"} 110
h_bucket{verb="select",le="+Inf"} 110
h_bucket{verb="insert",le="0.001"} 0
h_bucket{verb="insert",le="0.01"} 100
h_bucket{verb="insert",le="+Inf"} 100
h_sum{verb="select"} 0.305
h_sum{verb="insert"} 0.5
h_count{verb="select"} 110
h_count{verb="insert"} 100
c{op="get"} 25
`))
	if d := after[`c{op="get"}`] - before[`c{op="get"}`]; d != 20 {
		t.Errorf("counter delta %v, want 20", d)
	}
	h := after.histSince(before, "h")
	// 200 new observations: 50 under 1ms, 150 between 1ms and 10ms.
	if h.count != 200 || len(h.bounds) != 2 || h.counts[0] != 50 || h.counts[1] != 150 {
		t.Fatalf("delta histogram: %+v", h)
	}
	// Rank 100 is the 50th of the 150 in (1ms, 10ms]: 1ms + 9ms/3 = 4ms.
	if got := h.quantile(0.5); math.Abs(got-0.004) > 1e-12 {
		t.Errorf("p50 %v, want 0.004", got)
	}
	if got := h.mean(); math.Abs(got-0.004) > 1e-12 {
		t.Errorf("mean %v, want 0.004", got)
	}
}
