package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSamples is one scrape of the server's /metrics exposition: sample
// name with its label set, exactly as printed, to value.
type promSamples map[string]float64

func parseProm(text []byte) promSamples {
	out := promSamples{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// histDelta is the part of one histogram family observed between two
// scrapes, merged over every label value of the family.
type histDelta struct {
	bounds []float64 // ascending finite upper bounds, in seconds
	counts []float64 // per-bucket (not cumulative); the last is +Inf
	count  float64
	sum    float64
}

func (after promSamples) histSince(before promSamples, family string) histDelta {
	cum := map[float64]float64{}
	var h histDelta
	for name, v := range after {
		d := v - before[name]
		switch {
		case strings.HasPrefix(name, family+"_bucket{"):
			le := name[strings.Index(name, `le="`)+4:]
			le = le[:strings.IndexByte(le, '"')]
			bound := math.Inf(1)
			if le != "+Inf" {
				bound, _ = strconv.ParseFloat(le, 64)
			}
			cum[bound] += d
		case name == family+"_count" || strings.HasPrefix(name, family+"_count{"):
			h.count += d
		case name == family+"_sum" || strings.HasPrefix(name, family+"_sum{"):
			h.sum += d
		}
	}
	for b := range cum {
		h.bounds = append(h.bounds, b)
	}
	sort.Float64s(h.bounds)
	prev := 0.0
	for _, b := range h.bounds {
		h.counts = append(h.counts, cum[b]-prev)
		prev = cum[b]
	}
	if n := len(h.bounds); n > 0 && math.IsInf(h.bounds[n-1], 1) {
		h.bounds = h.bounds[:n-1]
	}
	return h
}

// quantile interpolates linearly inside the bucket holding the rank, as the
// server's own /stats quantiles do; observations past the last finite bound
// clamp to it.
func (h histDelta) quantile(q float64) float64 {
	if h.count == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * h.count
	cum := 0.0
	for i, c := range h.counts {
		prev := cum
		cum += c
		if cum < rank {
			continue
		}
		if i >= len(h.bounds) {
			break
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		if c == 0 {
			return h.bounds[i]
		}
		return lo + (h.bounds[i]-lo)*(rank-prev)/c
	}
	return h.bounds[len(h.bounds)-1]
}

func (h histDelta) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}
