package baav

import (
	"zidian/internal/obs"
	"zidian/internal/relation"
)

// SecondaryIndex resolves block-aware secondary-index lookups at plan
// execution time. It is implemented by internal/index.Manager; the store
// only needs the read path, so executors stay decoupled from the index
// subsystem's catalog and maintenance machinery.
type SecondaryIndex interface {
	// Lookup returns the block keys posted under v in the named index and
	// the number of get invocations issued: LookupManyT for one value,
	// untraced.
	Lookup(name string, v relation.Value) ([]relation.Tuple, int, error)
	// LookupManyT resolves several values' postings in one batched cluster
	// round (the gets group by owning node), counting kv ops into the
	// trace's kv sink and decoded posting lists into its posting-read
	// counter (nil untraced). outs aligns with vs, nil for a value with no
	// posting; gets is one per value.
	LookupManyT(t *obs.Trace, name string, vs []relation.Value) (outs [][]relation.Tuple, gets int, err error)
	// Range returns the postings of every indexed value within the bounds
	// (nil = unbounded side; loIncl/hiIncl select closed ends) as parallel
	// slices — vals[i] posted block key keys[i] — merged into encoded
	// (value, key) order, plus the number of posting lists visited by the
	// bounded ordered walk: RangeLimitT untraced and unbounded.
	Range(name string, lo, hi *relation.Value, loIncl, hiIncl bool) (vals []relation.Value, keys []relation.Tuple, scanned int, err error)
	// RangeLimitT is Range bounded to the first limit postings in (value,
	// key) order (negative = unbounded) under a per-statement trace (nil
	// untraced): the streaming merge stops the walk after O(limit) posting
	// lists per node, so a pushed-down LIMIT costs O(limit) scan steps
	// instead of O(range).
	RangeLimitT(t *obs.Trace, name string, lo, hi *relation.Value, loIncl, hiIncl bool, limit int) (vals []relation.Value, keys []relation.Tuple, scanned int, err error)
	// MaxPostings returns the longest posting list of the named index; the
	// boundedness check treats it like a block degree.
	MaxPostings(name string) int
}
