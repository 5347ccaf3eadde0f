package kv

import (
	"sort"
	"strings"
)

// sortedEngine keeps one sorted array of pairs plus a small unsorted write
// buffer that is folded in on the write path once it grows, similar to a
// Kudu tablet (DiskRowSet + DeltaMemStore): point reads are binary searches,
// ordered scans are sequential, and writes pay an amortized merge cost.
// Merging happens only on Put/Delete (batched every mergeAt writes), never
// on the read path: ScanRange overlays the buffer on the sorted array on the
// fly, so it is a pure read and the cluster can run it under the per-node
// read lock, concurrent with gets.
type sortedEngine struct {
	keys []string
	vals [][]byte
	buf  map[string][]byte // overrides; nil value = delete
	size int64             // payload bytes of the sorted array only

	mergeAt int
}

const defaultMergeAt = 1024

func newSortedEngine() *sortedEngine {
	return &sortedEngine{buf: make(map[string][]byte), mergeAt: defaultMergeAt}
}

func (e *sortedEngine) Get(key []byte) ([]byte, bool) {
	k := string(key)
	if v, ok := e.buf[k]; ok {
		if v == nil {
			return nil, false
		}
		return capped(v), true
	}
	i := sort.SearchStrings(e.keys, k)
	if i < len(e.keys) && e.keys[i] == k {
		return capped(e.vals[i]), true
	}
	return nil, false
}

// GetMany answers key by key.
func (e *sortedEngine) GetMany(reqs []GetRequest, idxs []int32, out []GetResult) {
	for _, i := range idxs {
		out[i].Value, out[i].OK = e.Get(reqs[i].Key)
	}
}

func (e *sortedEngine) Put(key, value []byte) {
	e.buf[string(key)] = value
	if len(e.buf) >= e.mergeAt {
		e.merge()
	}
}

func (e *sortedEngine) Delete(key []byte) bool {
	_, ok := e.Get(key)
	if !ok {
		return false
	}
	e.buf[string(key)] = nil
	if len(e.buf) >= e.mergeAt {
		e.merge()
	}
	return true
}

// merge folds the buffer into the sorted array. Called only from the write
// path (Put/Delete), under the exclusive lock.
func (e *sortedEngine) merge() {
	if len(e.buf) == 0 {
		return
	}
	bufKeys := make([]string, 0, len(e.buf))
	for k := range e.buf {
		bufKeys = append(bufKeys, k)
	}
	sort.Strings(bufKeys)

	keys := make([]string, 0, len(e.keys)+len(bufKeys))
	vals := make([][]byte, 0, len(e.keys)+len(bufKeys))
	i, j := 0, 0
	for i < len(e.keys) || j < len(bufKeys) {
		switch {
		case j >= len(bufKeys) || (i < len(e.keys) && e.keys[i] < bufKeys[j]):
			keys = append(keys, e.keys[i])
			vals = append(vals, e.vals[i])
			i++
		case i >= len(e.keys) || bufKeys[j] < e.keys[i]:
			if v := e.buf[bufKeys[j]]; v != nil {
				keys = append(keys, bufKeys[j])
				vals = append(vals, v)
			}
			j++
		default: // equal: buffer wins
			if v := e.buf[bufKeys[j]]; v != nil {
				keys = append(keys, bufKeys[j])
				vals = append(vals, v)
			}
			i++
			j++
		}
	}
	e.keys, e.vals = keys, vals
	e.buf = make(map[string][]byte)
	e.size = 0
	for i := range e.keys {
		e.size += int64(len(e.keys[i]) + len(e.vals[i]))
	}
}

// ScanRange is the bounded ordered walk over [from, to]: a read-only
// two-pointer overlay of the write buffer on the sorted array, seeked to
// from and stopped past to. Buffered entries win over sorted ones of the
// same key and buffered deletions hide them, so unmerged writes inside the
// range are visible without folding. Nothing is mutated, so the cluster
// runs scans under the shared lock.
func (e *sortedEngine) ScanRange(from, to []byte, fn func(key, value []byte) bool) {
	seek := string(from)
	within := func(k string) bool { return to == nil || k <= string(to) }
	var bufKeys []string
	for k := range e.buf {
		if k >= seek && within(k) {
			bufKeys = append(bufKeys, k)
		}
	}
	sort.Strings(bufKeys)
	i := sort.SearchStrings(e.keys, seek)
	for i < len(e.keys) || len(bufKeys) > 0 {
		fromSorted := len(bufKeys) == 0 ||
			(i < len(e.keys) && e.keys[i] < bufKeys[0])
		var k string
		var v []byte
		switch {
		case fromSorted:
			if i >= len(e.keys) {
				return
			}
			k, v = e.keys[i], e.vals[i]
			i++
			if !within(k) {
				return
			}
		default:
			k = bufKeys[0]
			bufKeys = bufKeys[1:]
			v = e.buf[k]
			if i < len(e.keys) && e.keys[i] == k {
				i++ // buffer overrides the sorted entry
			}
			if v == nil {
				continue // buffered deletion
			}
		}
		if !fn([]byte(k), capped(v)) {
			return
		}
	}
}

// Len counts live pairs without folding the buffer: sorted entries plus
// buffered inserts minus buffered deletions of present keys.
func (e *sortedEngine) Len() int {
	n := len(e.keys)
	for k, v := range e.buf {
		i := sort.SearchStrings(e.keys, k)
		present := i < len(e.keys) && e.keys[i] == k
		switch {
		case v == nil && present:
			n--
		case v != nil && !present:
			n++
		}
	}
	return n
}

// SizeBytes accounts the sorted payload plus the buffer's net effect,
// without folding the buffer.
func (e *sortedEngine) SizeBytes() int64 {
	total := e.size
	for k, v := range e.buf {
		i := sort.SearchStrings(e.keys, k)
		present := i < len(e.keys) && e.keys[i] == k
		if present {
			total -= int64(len(k) + len(e.vals[i]))
		}
		if v != nil {
			total += int64(len(k) + len(v))
		}
	}
	return total
}

// PrefixEmpty: one binary search over the sorted array plus a linear pass
// over the write buffer, no mutation. Buffered deletions count as "maybe
// non-empty" — false only forfeits the round-trip skip.
func (e *sortedEngine) PrefixEmpty(prefix []byte) bool {
	p := string(prefix)
	i := sort.SearchStrings(e.keys, p)
	if i < len(e.keys) && strings.HasPrefix(e.keys[i], p) {
		return false
	}
	for k := range e.buf {
		if strings.HasPrefix(k, p) {
			return false
		}
	}
	return true
}
