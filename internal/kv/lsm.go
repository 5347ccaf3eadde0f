package kv

import (
	"sort"
	"strings"
)

// lsmEngine is a deliberately small log-structured merge engine: writes go
// to an in-memory memtable; when the memtable exceeds a threshold it is
// flushed to an immutable sorted run; runs are compacted (merged) once there
// are too many. Reads consult the memtable first and then runs from newest
// to oldest. Deletes write tombstones (nil values).
type lsmEngine struct {
	mem       map[string][]byte // nil value = tombstone
	memBytes  int64
	runs      []run // runs[0] is oldest
	size      int64 // live payload estimate
	flushSize int64
	maxRuns   int
}

type run struct {
	keys []string
	vals [][]byte // nil = tombstone
}

const (
	defaultFlushBytes = 256 << 10
	defaultMaxRuns    = 6
)

func newLSMEngine() *lsmEngine {
	return &lsmEngine{
		mem:       make(map[string][]byte),
		flushSize: defaultFlushBytes,
		maxRuns:   defaultMaxRuns,
	}
}

func (e *lsmEngine) Get(key []byte) ([]byte, bool) {
	k := string(key)
	if v, ok := e.mem[k]; ok {
		if v == nil {
			return nil, false
		}
		return capped(v), true
	}
	for i := len(e.runs) - 1; i >= 0; i-- {
		r := &e.runs[i]
		j := sort.SearchStrings(r.keys, k)
		if j < len(r.keys) && r.keys[j] == k {
			if r.vals[j] == nil {
				return nil, false
			}
			return capped(r.vals[j]), true
		}
	}
	return nil, false
}

// GetMany answers key by key.
func (e *lsmEngine) GetMany(reqs []GetRequest, idxs []int32, out []GetResult) {
	for _, i := range idxs {
		out[i].Value, out[i].OK = e.Get(reqs[i].Key)
	}
}

func (e *lsmEngine) Put(key, value []byte) {
	k := string(key)
	e.mem[k] = value
	e.memBytes += int64(len(k) + len(value))
	if e.memBytes >= e.flushSize {
		e.flush()
	}
}

func (e *lsmEngine) Delete(key []byte) bool {
	_, ok := e.Get(key)
	if !ok {
		return false
	}
	k := string(key)
	e.mem[k] = nil // tombstone
	e.memBytes += int64(len(k))
	if e.memBytes >= e.flushSize {
		e.flush()
	}
	return true
}

// flush turns the memtable into a new sorted run and compacts if needed.
func (e *lsmEngine) flush() {
	if len(e.mem) == 0 {
		return
	}
	keys := make([]string, 0, len(e.mem))
	for k := range e.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = e.mem[k]
	}
	e.runs = append(e.runs, run{keys: keys, vals: vals})
	e.mem = make(map[string][]byte)
	e.memBytes = 0
	if len(e.runs) > e.maxRuns {
		e.compact()
	}
}

// compact merges all runs into one, dropping tombstones and shadowed
// versions.
func (e *lsmEngine) compact() {
	merged := make(map[string][]byte)
	for _, r := range e.runs { // oldest first; newer overwrite
		for i, k := range r.keys {
			merged[k] = r.vals[i]
		}
	}
	keys := make([]string, 0, len(merged))
	for k, v := range merged {
		if v != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = merged[k]
	}
	e.runs = []run{{keys: keys, vals: vals}}
}

// ScanRange is the bounded ordered walk: a merge-on-scan snapshot of the
// memtable and all runs over the [from, to] key window, newest version
// winning, streamed in ascending order — so the cost is proportional to the
// range, not the engine. It reads the memtable and runs without flushing or
// compacting. Small engine sizes make the snapshot acceptable; real LSM
// trees stream a k-way merge instead.
func (e *lsmEngine) ScanRange(from, to []byte, fn func(key, value []byte) bool) {
	within := func(k string) bool { return to == nil || k <= string(to) }
	s := string(from)
	merged := make(map[string][]byte)
	for _, r := range e.runs {
		i := sort.SearchStrings(r.keys, s)
		for ; i < len(r.keys) && within(r.keys[i]); i++ {
			merged[r.keys[i]] = r.vals[i]
		}
	}
	for k, v := range e.mem {
		if k >= s && within(k) {
			merged[k] = v
		}
	}
	keys := make([]string, 0, len(merged))
	for k, v := range merged {
		if v != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !fn([]byte(k), capped(merged[k])) {
			return
		}
	}
}

func (e *lsmEngine) Len() int {
	n := 0
	e.ScanRange(nil, nil, func(_, _ []byte) bool { n++; return true })
	return n
}

func (e *lsmEngine) SizeBytes() int64 {
	var n int64
	e.ScanRange(nil, nil, func(k, v []byte) bool { n += int64(len(k) + len(v)); return true })
	return n
}

// PrefixEmpty: a binary search per run plus a linear pass over the
// memtable, no mutation. Tombstoned keys count as "maybe non-empty" —
// distinguishing a tombstone from live shadowed versions would cost the
// walk the probe exists to avoid, and false only forfeits the skip.
func (e *lsmEngine) PrefixEmpty(prefix []byte) bool {
	p := string(prefix)
	for i := range e.runs {
		r := &e.runs[i]
		j := sort.SearchStrings(r.keys, p)
		if j < len(r.keys) && strings.HasPrefix(r.keys[j], p) {
			return false
		}
	}
	for k := range e.mem {
		if strings.HasPrefix(k, p) {
			return false
		}
	}
	return true
}
