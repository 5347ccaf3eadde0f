// Package workload generates the three datasets of the paper's evaluation
// (Section 9) at laptop scale — the TPC-H benchmark (skew-free, uniform),
// and synthetic stand-ins for the UK MOT and US AIRCA real-life datasets
// (skewed, small active domains) — together with their query suites and
// hand-designed BaaV schemas. Query classifications (scan-free / bounded)
// mirror the paper's and are validated by tests.
package workload

import (
	"fmt"
	"math/rand"

	"zidian/internal/baav"
	"zidian/internal/relation"
)

// Query is one workload query with the paper's classification.
type Query struct {
	Name string
	SQL  string
	// ScanFree records whether the query is scan-free over the workload's
	// BaaV schema (the paper's q1–q6 vs q7–q12 split).
	ScanFree bool
	// Bounded additionally requires stable block degrees (true for the
	// real-life datasets' q1–q6; false for TPC-H, whose scan-free queries
	// are unbounded — Section 9, "BaaV schema").
	Bounded bool
}

// Workload bundles a generated database, its BaaV schema, and queries.
type Workload struct {
	Name    string
	DB      *relation.Database
	Schema  *baav.Schema
	Queries []Query
}

// Spec parameterizes generation.
type Spec struct {
	// Scale multiplies the base cardinalities (1.0 ≈ a few thousand rows).
	Scale float64
	// Seed makes generation deterministic.
	Seed int64
}

// source is one generator's random stream. It embeds the *rand.Rand every
// draw reads and keeps the Zipf distributions zipfN has built on it, one per
// (n, s): building one costs a few Exp/Log calls and draws nothing, so a
// cached distribution yields exactly the values a fresh one would.
type source struct {
	*rand.Rand
	zipfs map[zipfShape]*rand.Zipf
}

// zipfShape is the (n, s) of a zipfN distribution.
type zipfShape struct {
	n int
	s float64
}

func (s Spec) rand() *source {
	if s.Seed == 0 {
		s.Seed = 1
	}
	return &source{Rand: rand.New(rand.NewSource(s.Seed)), zipfs: make(map[zipfShape]*rand.Zipf)}
}

func (s Spec) scaled(base int) int {
	if s.Scale <= 0 {
		s.Scale = 1
	}
	n := int(float64(base) * s.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// ScanFreeQueries filters the suite by classification.
func (w *Workload) ScanFreeQueries() []Query {
	var out []Query
	for _, q := range w.Queries {
		if q.ScanFree {
			out = append(out, q)
		}
	}
	return out
}

// NonScanFreeQueries filters the suite by classification.
func (w *Workload) NonScanFreeQueries() []Query {
	var out []Query
	for _, q := range w.Queries {
		if !q.ScanFree {
			out = append(out, q)
		}
	}
	return out
}

// Generate builds the named workload ("tpch", "mot" or "airca").
func Generate(name string, spec Spec) (*Workload, error) {
	switch name {
	case "tpch":
		return TPCH(spec), nil
	case "mot":
		return MOT(spec), nil
	case "airca":
		return AIRCA(spec), nil
	default:
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
}

// zipfN draws a Zipf-distributed value in [0, n) with skew s (s > 1; larger
// is more skewed). The real-life datasets use it to reproduce the skew the
// paper attributes their speedups to.
func zipfN(r *source, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	z := r.zipfs[zipfShape{n, s}]
	if z == nil {
		z = rand.NewZipf(r.Rand, s, 1, uint64(n-1))
		r.zipfs[zipfShape{n, s}] = z
	}
	return int(z.Uint64())
}

// pick returns a uniform element of the pool.
func pick(r *source, pool []string) string { return pool[r.Intn(len(pool))] }

// pickZipf returns a Zipf-skewed element of the pool (early entries hot).
func pickZipf(r *source, pool []string, s float64) string {
	return pool[zipfN(r, len(pool), s)]
}

// date renders a synthetic ISO date; lexicographic order equals date order.
func date(year, month, day int) string {
	return fmt.Sprintf("%04d-%02d-%02d", year, 1+month%12, 1+day%28)
}
