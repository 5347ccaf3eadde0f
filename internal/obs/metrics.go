// Package obs is the observability core: a dependency-free metrics
// registry (atomic counters, gauges, fixed-bucket latency histograms with
// quantile snapshots, single-label families, Prometheus text exposition)
// and a per-query trace context threaded through the executors down to the
// kv cluster. Everything here is stdlib-only so every layer of the system
// can import it without cycles.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one exported value of a counter or gauge family. Label is the
// label value ("" for unlabeled families).
type Sample struct {
	Label string
	Value float64
}

// family is one registered metric family, exposed in registration order.
type family struct {
	name  string
	help  string
	typ   string // "counter" | "gauge" | "histogram"
	label string // label key, "" when unlabeled
	// Exactly one of collect / hist / histVec is set.
	collect func() []Sample
	hist    *Histogram
	histVec *HistogramVec
}

// Registry is an ordered collection of metric families. Registration takes
// the lock; reads of counter/gauge values are atomic and exposition only
// locks the family list, so scraping never blocks the hot path.
type Registry struct {
	mu       sync.Mutex
	families []*family
	names    map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) add(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[f.name] {
		panic("obs: duplicate metric family " + f.name)
	}
	r.names[f.name] = true
	r.families = append(r.families, f)
}

// RegisterFunc registers a counter or gauge family whose samples are pulled
// from fn at exposition time. This is how pre-existing stats structs
// (admission, plan cache, kv node metrics) join the registry without
// changing their own bookkeeping.
func (r *Registry) RegisterFunc(name, help, typ, label string, fn func() []Sample) {
	if typ != "counter" && typ != "gauge" {
		panic("obs: RegisterFunc type must be counter or gauge")
	}
	r.add(&family{name: name, help: help, typ: typ, label: label, collect: fn})
}

// NewCounter registers and returns an unlabeled monotonic counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, help: help, typ: "counter",
		collect: func() []Sample { return []Sample{{Value: float64(c.Value())}} }})
	return c
}

// NewCounterVec registers and returns a counter family with one label key.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{counters: make(map[string]*Counter)}
	r.add(&family{name: name, help: help, typ: "counter", label: label, collect: v.samples})
	return v
}

// NewGauge registers and returns an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&family{name: name, help: help, typ: "gauge",
		collect: func() []Sample { return []Sample{{Value: g.Value()}} }})
	return g
}

// NewHistogram registers and returns an unlabeled latency histogram.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.add(&family{name: name, help: help, typ: "histogram", hist: h})
	return h
}

// NewHistogramVec registers and returns a histogram family with one label.
func (r *Registry) NewHistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	v := &HistogramVec{buckets: buckets, hists: make(map[string]*Histogram)}
	r.add(&family{name: name, help: help, typ: "histogram", label: label, histVec: v})
	return v
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ n atomic.Int64 }

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the gauge value.
func (g *Gauge) Value() float64 { return floatFromBits(g.bits.Load()) }

// CounterVec is a set of counters distinguished by one label value.
type CounterVec struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// With returns the counter for the given label value, creating it on first
// use so the family exposes only labels that occurred.
func (v *CounterVec) With(label string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.counters[label]
	if c == nil {
		c = &Counter{}
		v.counters[label] = c
	}
	return c
}

func (v *CounterVec) samples() []Sample {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]Sample, 0, len(v.counters))
	for label, c := range v.counters {
		out = append(out, Sample{Label: label, Value: float64(c.Value())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// DefBuckets are the default latency bucket upper bounds in seconds:
// roughly exponential from 50µs (a point lookup on warm cache) to 10s
// (a queue-timeout-scale stall).
var DefBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observations and scrapes
// are lock-free; quantiles are estimated by linear interpolation inside the
// bucket holding the target rank.
type Histogram struct {
	bounds   []float64 // ascending upper bounds in seconds; +Inf is implicit
	counts   []atomic.Int64
	count    atomic.Int64
	sumNanos atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets must be strictly ascending")
		}
	}
	return &Histogram{bounds: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// Snapshot returns a point-in-time copy of the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.SumNanos = h.sumNanos.Load()
	return s
}

// HistSnapshot is an immutable histogram state: per-bucket counts (the last
// entry is the +Inf bucket), total count, and the sum of observed time.
type HistSnapshot struct {
	Bounds   []float64
	Counts   []int64
	Count    int64
	SumNanos int64
}

// MinQuantileSamples is the smallest observation count at which bucket
// quantiles are meaningful. Below it, interpolating a p50/p95/p99 from one
// or two samples just reads back a bucket boundary as if it were signal, so
// Quantile reports 0 instead and callers should omit quantiles entirely.
const MinQuantileSamples = 3

// QuantilesValid reports whether the snapshot holds enough observations for
// Quantile to return a meaningful estimate.
func (s HistSnapshot) QuantilesValid() bool { return s.Count >= MinQuantileSamples }

// Quantile estimates the q-quantile (0 < q <= 1) in seconds by linear
// interpolation within the bucket containing the target rank. Observations
// beyond the last finite bound clamp to it. Returns 0 when the histogram
// holds fewer than MinQuantileSamples observations (see QuantilesValid).
func (s HistSnapshot) Quantile(q float64) float64 {
	if !s.QuantilesValid() {
		return 0
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		prev := float64(cum)
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket: clamp to last finite bound
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Merge adds another snapshot with identical bounds into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if len(s.Counts) == 0 {
		s.Bounds, s.Counts = o.Bounds, append([]int64(nil), o.Counts...)
		s.Count, s.SumNanos = o.Count, o.SumNanos
		return
	}
	for i := range o.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.SumNanos += o.SumNanos
}

// HistogramVec is a histogram family with one label key.
type HistogramVec struct {
	mu      sync.Mutex
	buckets []float64
	hists   map[string]*Histogram
}

// With returns the histogram for the given label value.
func (v *HistogramVec) With(label string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h := v.hists[label]
	if h == nil {
		h = newHistogram(v.buckets)
		v.hists[label] = h
	}
	return h
}

// MergedSnapshot folds every label's histogram into one snapshot, for
// whole-family quantiles (e.g. overall query latency across verbs).
func (v *HistogramVec) MergedSnapshot() HistSnapshot {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out HistSnapshot
	for _, h := range v.hists {
		out.Merge(h.Snapshot())
	}
	return out
}

func (v *HistogramVec) sorted() []struct {
	label string
	h     *Histogram
} {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]struct {
		label string
		h     *Histogram
	}, 0, len(v.hists))
	for label, h := range v.hists {
		out = append(out, struct {
			label string
			h     *Histogram
		}{label, h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// WritePrometheus writes every family in Prometheus text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.collect != nil:
			for _, s := range f.collect() {
				if f.label != "" && s.Label != "" {
					fmt.Fprintf(w, "%s{%s=%q} %s\n", f.name, f.label, s.Label, fnum(s.Value))
				} else {
					fmt.Fprintf(w, "%s %s\n", f.name, fnum(s.Value))
				}
			}
		case f.hist != nil:
			writeHist(w, f.name, "", "", f.hist.Snapshot())
		case f.histVec != nil:
			for _, lh := range f.histVec.sorted() {
				writeHist(w, f.name, f.label, lh.label, lh.h.Snapshot())
			}
		}
	}
}

func writeHist(w io.Writer, name, labelKey, labelVal string, s HistSnapshot) {
	pair := ""
	if labelKey != "" {
		pair = fmt.Sprintf("%s=%q,", labelKey, labelVal)
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = fnum(s.Bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, pair, le, cum)
	}
	suffix := ""
	if labelKey != "" {
		suffix = fmt.Sprintf("{%s=%q}", labelKey, labelVal)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, fnum(float64(s.SumNanos)/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, s.Count)
}

func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
