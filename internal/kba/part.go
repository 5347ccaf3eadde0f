package kba

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"zidian/internal/relation"
)

// PartRel is a partitioned intermediate relation: flat rows over a fixed
// attribute layout, split across workers. It is what every operator of the
// executor consumes and produces; with one worker it is a plain row slice.
type PartRel struct {
	Attrs []string
	Parts [][]relation.Tuple
}

// NewPartRel returns an empty relation over attrs with one partition per
// worker.
func NewPartRel(attrs []string, workers int) *PartRel {
	return &PartRel{Attrs: attrs, Parts: make([][]relation.Tuple, workers)}
}

// Rows gathers all partitions into one slice, partition-major.
func (v *PartRel) Rows() []relation.Tuple {
	out := make([]relation.Tuple, 0, v.Len())
	for _, p := range v.Parts {
		out = append(out, p...)
	}
	return out
}

// Len returns the row count across all partitions.
func (v *PartRel) Len() int {
	n := 0
	for _, p := range v.Parts {
		n += len(p)
	}
	return n
}

// Positions resolves attribute names to column positions.
func (v *PartRel) Positions(names []string) ([]int, error) {
	pos := make(map[string]int, len(v.Attrs))
	for i, a := range v.Attrs {
		pos[a] = i
	}
	out := make([]int, len(names))
	for i, n := range names {
		j, ok := pos[n]
		if !ok {
			return nil, fmt.Errorf("kba: attribute %q not in %v", n, v.Attrs)
		}
		out[i] = j
	}
	return out, nil
}

// Lit wraps an already computed PartRel as a plan leaf, so composed
// operators (union → distinct) and the TaaV baseline's join tail run their
// intermediates through the one executor. It gets no operator span.
type Lit struct{ V *PartRel }

func (l *Lit) Children() []Plan { return nil }
func (l *Lit) String() string   { return "lit" }

// hashTuple routes a projected key to a worker.
func hashTuple(t relation.Tuple, idx []int, workers int) int {
	if workers == 1 {
		return 0
	}
	h := fnv.New64a()
	for _, i := range idx {
		h.Write(relation.AppendValue(nil, t[i]))
	}
	return int(h.Sum64() % uint64(workers))
}

// repartition redistributes rows so that rows agreeing on the key columns
// land on the same worker. Bytes of rows that change workers are added to
// shuffle. Empty keyIdx sends everything to worker 0 (a gather). With one
// worker every row is already colocated: the input is returned as is.
func repartition(v *PartRel, keyIdx []int, shuffle *atomic.Int64) *PartRel {
	workers := len(v.Parts)
	if workers == 1 {
		return v
	}
	out := NewPartRel(v.Attrs, workers)
	// buckets[src][dst]
	buckets := make([][][]relation.Tuple, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([][]relation.Tuple, workers)
			var moved int64
			for _, row := range v.Parts[w] {
				dst := 0
				if len(keyIdx) > 0 {
					dst = hashTuple(row, keyIdx, workers)
				}
				local[dst] = append(local[dst], row)
				if dst != w {
					moved += int64(row.SizeBytes())
				}
			}
			buckets[w] = local
			shuffle.Add(moved)
		}(w)
	}
	wg.Wait()
	for dst := 0; dst < workers; dst++ {
		for src := 0; src < workers; src++ {
			out.Parts[dst] = append(out.Parts[dst], buckets[src][dst]...)
		}
	}
	return out
}

// ForWorkers runs fn once per worker concurrently and returns the first
// error. One worker runs inline on the calling goroutine: sequential
// execution starts no goroutine.
func ForWorkers(workers int, fn func(w int) error) error {
	if workers == 1 {
		return fn(0)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
