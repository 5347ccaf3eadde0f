package kv

import (
	"sort"
	"sync/atomic"
)

// Engine is a single storage node: a dictionary from byte-string keys to
// byte-string values with ordered range scans. Engines are not safe for
// concurrent mutation; the Cluster serializes access per node. Everything
// but Put and Delete is a pure read — the cluster runs gets, scans and size
// reads under the node's shared lock, concurrently with each other.
type Engine interface {
	// Get returns the value stored under key.
	Get(key []byte) ([]byte, bool)
	// Put stores value under key, replacing any previous value.
	Put(key, value []byte)
	// Delete removes key, reporting whether it was present.
	Delete(key []byte) bool
	// ScanRange visits pairs with from <= key <= to (bytewise), in ascending
	// key order, until fn returns false. A nil from starts at the first key;
	// a nil to runs to the last. The bounded seek is what makes ordered
	// posting-range walks cost O(range), not O(instance): keys below from are
	// never visited. A prefix scan is the range [prefix, successor(prefix)].
	// It must not mutate engine state that another read depends on: engines
	// merge on the write path. The one thing a read may do is fill a
	// read-only view of state only writes change (the hash engine's sorted
	// pending buffer) through an atomic pointer that every write clears —
	// readers under the shared lock may race to build it, and each builds
	// the same view.
	ScanRange(from, to []byte, fn func(key, value []byte) bool)
	// Len returns the number of stored pairs.
	Len() int
	// SizeBytes returns the total payload size (keys + values).
	SizeBytes() int64
	// PrefixEmpty reports whether the engine definitely holds no key
	// carrying prefix. It reads like ScanRange (the cluster probes it under
	// the shared lock) and may answer conservatively: true is a
	// guarantee of emptiness, false only means "maybe non-empty". The
	// cluster uses it to skip a node's emulated seek round trip when a scan
	// prefix provably misses the node.
	PrefixEmpty(prefix []byte) bool
}

// EngineKind selects one of the engine implementations, each standing in for
// one of the paper's storage systems.
type EngineKind int

const (
	// EngineHash is a hash-table engine that keeps its keys in order beside
	// the map — a sorted slice plus a small pending buffer of fresh keys,
	// sorted once per write burst by the first read that needs it; it plays
	// the role of Cassandra's partition store ("cstore").
	EngineHash EngineKind = iota
	// EngineLSM is a log-structured merge engine (memtable + sorted runs
	// with compaction); it plays the role of HBase ("hstore").
	EngineLSM
	// EngineSorted keeps one sorted array with a write buffer folded in on
	// the write path, like a Kudu tablet ("kstore"): slower point writes,
	// fast ordered scans (read-only buffer overlay).
	EngineSorted
)

// String names the engine kind.
func (k EngineKind) String() string {
	switch k {
	case EngineHash:
		return "hash"
	case EngineLSM:
		return "lsm"
	case EngineSorted:
		return "sorted"
	default:
		return "unknown"
	}
}

// NewEngine constructs an engine of the given kind.
func NewEngine(kind EngineKind) Engine {
	switch kind {
	case EngineLSM:
		return newLSMEngine()
	case EngineSorted:
		return newSortedEngine()
	default:
		return newHashEngine()
	}
}

// hashEngine stores pairs in a map and maintains key order on the write
// path, so scans are pure reads and the cluster can run them under
// per-node read locks concurrently with gets (ROADMAP: parallelize
// scan-heavy mixes). Fresh keys accumulate in a small unsorted pending
// buffer that Put folds into the sorted slice once it fills — one O(n)
// merge per hashMergeAt writes keeps bulk loads near O(N log N) instead of
// the O(N²) a splice-per-key would cost. ScanRange and PrefixEmpty read the
// pending buffer through a sorted copy, built by the first of them after a
// write and kept until the next one: a burst of range walks between two
// writes sorts the buffer once, and the load path pays a nil check per Put.
type hashEngine struct {
	m       map[string][]byte
	keys    []string // sorted; excludes pending
	pending []string // fresh keys not yet merged, unsorted
	size    int64
	// sorted is pending in key order, or nil when no read has asked for it
	// since the last write. Readers under the cluster's shared lock fill it
	// (several may race; each stores an equal copy); Put, Delete and
	// mergePending clear it under the exclusive lock.
	sorted atomic.Pointer[[]string]
}

const hashMergeAt = 4096

func newHashEngine() *hashEngine {
	return &hashEngine{m: make(map[string][]byte)}
}

func (e *hashEngine) Get(key []byte) ([]byte, bool) {
	v, ok := e.m[string(key)]
	return v, ok
}

// dropSorted forgets the sorted view after a write changed the pending
// buffer; an atomic store only when a view exists, so bulk loads pay a load.
func (e *hashEngine) dropSorted() {
	if e.sorted.Load() != nil {
		e.sorted.Store(nil)
	}
}

// sortedPending returns the pending buffer in key order, building the view
// on first use after a write.
func (e *hashEngine) sortedPending() []string {
	if len(e.pending) == 0 {
		return nil
	}
	if v := e.sorted.Load(); v != nil {
		return *v
	}
	v := append([]string(nil), e.pending...)
	sort.Strings(v)
	e.sorted.Store(&v)
	return v
}

// mergePending folds the pending buffer into the sorted key slice.
func (e *hashEngine) mergePending() {
	if len(e.pending) == 0 {
		return
	}
	e.dropSorted()
	sort.Strings(e.pending)
	merged := make([]string, 0, len(e.keys)+len(e.pending))
	i, j := 0, 0
	for i < len(e.keys) || j < len(e.pending) {
		if j >= len(e.pending) || (i < len(e.keys) && e.keys[i] < e.pending[j]) {
			merged = append(merged, e.keys[i])
			i++
		} else {
			merged = append(merged, e.pending[j])
			j++
		}
	}
	e.keys = merged
	e.pending = e.pending[:0]
}

func (e *hashEngine) Put(key, value []byte) {
	k := string(key)
	if old, ok := e.m[k]; ok {
		e.size -= int64(len(old))
	} else {
		e.size += int64(len(k))
		e.pending = append(e.pending, k)
		e.dropSorted()
		if len(e.pending) >= hashMergeAt {
			e.mergePending()
		}
	}
	e.m[k] = value
	e.size += int64(len(value))
}

func (e *hashEngine) Delete(key []byte) bool {
	k := string(key)
	old, ok := e.m[k]
	if !ok {
		return false
	}
	delete(e.m, k)
	e.size -= int64(len(k) + len(old))
	// Deletes are rare next to puts: fold pending first, then splice once.
	e.mergePending()
	i := sort.SearchStrings(e.keys, k)
	e.keys = append(e.keys[:i], e.keys[i+1:]...)
	return true
}

// lowerBound returns the index of the first of the sorted keys >= from.
func lowerBound(keys []string, from []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if keys[h] < string(from) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

func (e *hashEngine) ScanRange(from, to []byte, fn func(key, value []byte) bool) {
	pend := e.sortedPending()
	pend = pend[lowerBound(pend, from):]
	i := lowerBound(e.keys, from)
	for i < len(e.keys) || len(pend) > 0 {
		var k string
		if len(pend) == 0 || (i < len(e.keys) && e.keys[i] < pend[0]) {
			k = e.keys[i]
			i++
		} else {
			k = pend[0]
			pend = pend[1:]
		}
		if to != nil && k > string(to) {
			return
		}
		if !fn([]byte(k), e.m[k]) {
			return
		}
	}
}

func (e *hashEngine) Len() int { return len(e.m) }

func (e *hashEngine) SizeBytes() int64 { return e.size }

// PrefixEmpty: one binary search over the sorted keys and one over the
// sorted view of the pending buffer, no mutation.
func (e *hashEngine) PrefixEmpty(prefix []byte) bool {
	for _, keys := range [2][]string{e.keys, e.sortedPending()} {
		i := lowerBound(keys, prefix)
		if i < len(keys) && len(keys[i]) >= len(prefix) && keys[i][:len(prefix)] == string(prefix) {
			return false
		}
	}
	return true
}
