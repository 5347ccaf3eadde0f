package kv

import (
	"bytes"
	"hash/maphash"
	"math/bits"
	"slices"
	"sync/atomic"
)

// Engine is a single storage node: a dictionary from byte-string keys to
// byte-string values with ordered range scans. Engines are not safe for
// concurrent mutation; the Cluster serializes access per node. Everything
// but Put and Delete is a pure read — the cluster runs gets, scans and size
// reads under the node's shared lock, concurrently with each other.
//
// Every key and value an engine hands out is a read-only window: the engine
// never writes stored bytes in place (an overwrite stores new ones), so a
// window stays valid, and keeps its bytes, across any later Put, Delete or
// merge; and it is capped at its length, so an append to it reallocates
// instead of reaching another pair. A caller must not write into it.
type Engine interface {
	// Get returns the value stored under key.
	Get(key []byte) ([]byte, bool)
	// GetMany answers a batch of lookups: for each i in idxs, the value
	// stored under reqs[i].Key goes to out[i] (Route is the cluster's, and
	// the engine ignores it). The hash engine overlaps the batch's probes —
	// it resolves the keys probeGroup at a time, each stage's independent
	// loads issued for the whole group before any of them is used — and the
	// sorted and LSM engines answer key by key.
	GetMany(reqs []GetRequest, idxs []int32, out []GetResult)
	// Put stores value under key, replacing any previous value. The engine
	// may keep value itself: the caller must not modify it afterwards.
	Put(key, value []byte)
	// Delete removes key, reporting whether it was present.
	Delete(key []byte) bool
	// ScanRange visits pairs with from <= key <= to (bytewise), in ascending
	// key order, until fn returns false. A nil from starts at the first key;
	// a nil to runs to the last. The bounded seek is what makes a window
	// walk cost O(window), not O(instance): keys below from are never
	// visited. A prefix scan is the range [prefix, successor(prefix)].
	// It must not mutate engine state that another read depends on: engines
	// merge on the write path. The one thing a read may do is fill a
	// read-only view of state only writes change (the hash engine's sorted
	// pending buffer) through an atomic pointer that every write changing
	// that state clears — readers under the shared lock may race to build
	// it, and each builds the same view.
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

// capped returns v capped at its length: the window engines that keep the
// caller's value slice hand out.
func capped(v []byte) []byte { return v[:len(v):len(v)] }

// EngineKind selects one of the engine implementations, each standing in for
// one of the paper's storage systems.
type EngineKind int

const (
	// EngineHash is a hash-table engine that keeps its keys in order beside
	// the table — a sorted slice plus a small pending buffer of fresh keys,
	// sorted once per write burst by the first read that needs it. A delete
	// leaves a tombstone that the next merge drops, as Cassandra drops its
	// tombstones at compaction; it plays the role of Cassandra's partition
	// store ("cstore"). All three engines delete through such a buffered
	// tombstone.
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

// hashEngine stores every pair as one record, key‖value, addressed by an id,
// and finds it through an open-addressing table of (hash tag, id) words —
// so a stored pair costs the collector one pointer and one object, and
// neither the table nor the id slices below hold a pointer at all. It
// maintains key order on the write path, so scans are pure reads and the
// cluster can run them under per-node read locks concurrently with gets.
// Fresh keys accumulate in a small unsorted pending buffer, and a deleted
// key leaves a tombstone: its id stays listed, marked dead, until the next
// merge. Once the pending ids and the tombstones reach hashMergeAt together,
// one merge folds the buffer into the sorted id slice and drops the dead ids
// in the same pass — bulk loads stay near O(N log N) instead of the O(N²) a
// splice-per-key would cost, and a delete costs O(1) amortized instead of an
// O(n) splice. ScanRange and PrefixEmpty skip dead ids, and read the
// pending buffer through a sorted copy, built by the first of them after a
// write and kept until the next one: a burst of range walks between two
// writes sorts the buffer once, and the load path pays a nil check per Put.
type hashEngine struct {
	recs []record // id → its pair; a free id holds the zero record
	// free holds ids a merge reclaimed, reused by the next new key; no id
	// in it is listed in keys or pending.
	free []int32
	// dead marks, one bit per id, the ndead ids deleted since the last
	// merge. Each is listed once in keys or pending and keeps its record,
	// whose key the merge compares, until the merge drops it and frees the
	// id. A bit, not a record field, so the merge's pass over the sorted
	// ids tests it without reading a record.
	dead  []uint64
	ndead int
	// table finds a key's id, under the low 32 bits of its hash.
	table Table
	seed  maphash.Seed

	keys    []int32 // ids in key order, dead ones included; excludes pending
	pending []int32 // ids of fresh keys not yet merged, unsorted
	size    int64
	// sorted is pending in key order, or nil when no read has asked for it
	// since the last write. Readers under the cluster's shared lock fill it
	// (several may race; each stores an equal copy); a Put of a fresh key
	// and mergePending clear it under the exclusive lock. A delete keeps
	// it: it holds ids, and readers test them for tombstones as they go.
	sorted atomic.Pointer[[]int32]
}

// record is one stored pair, key‖value, and the length of its key — kept
// side by side, so a lookup finds both in one place.
type record struct {
	kv   []byte
	klen int32
}

const hashMergeAt = 4096

func newHashEngine() *hashEngine { return &hashEngine{seed: maphash.MakeSeed()} }

// key and val are record id's key and value as capped windows.
func (e *hashEngine) key(id int32) []byte {
	r := &e.recs[id]
	return r.kv[:r.klen:r.klen]
}

func (e *hashEngine) val(id int32) []byte {
	r := &e.recs[id]
	return r.kv[r.klen:]
}

// find returns the slot holding key, or the empty slot that ends its probe
// sequence, and the key's record id (ok false when absent).
func (e *hashEngine) find(key []byte, tag uint32) (slot int, id int32, ok bool) {
	for slot = int(tag); ; slot++ {
		if slot, id = e.table.Probe(slot, tag); id < 0 || bytes.Equal(e.key(id), key) {
			return slot, id, id >= 0
		}
	}
}

func (e *hashEngine) tag(key []byte) uint32 { return uint32(maphash.Bytes(e.seed, key)) }

// probeGroup is how many keys a batched lookup resolves together: enough
// independent cache misses in flight to hide most of each one's latency, few
// enough that a group's tags stay on the stack. A constant, as the
// executor's inlineRows is.
const probeGroup = 16

// lookup resolves up to probeGroup keys into their record ids (-1: absent),
// overlapping their memory accesses: it hashes every key, then loads every
// key's home slot, then compares each home slot's record with its key. A
// stage's loads depend on the stage before only, not on each other, so the
// processor has a whole group's misses in flight where find, key by key,
// waits out each in turn: 700 random gets over 10⁵ records measured 50 µs
// grouped against 80 µs through find, on a 2-core x86 host
// (BenchmarkEngineGetPut/hash/get/batch=700 is the grouped half). A key
// whose home slot holds another tag, or whose record holds another key,
// falls back to find's full probe.
func (e *hashEngine) lookup(keys [][]byte, ids []int32) {
	var tags [probeGroup]uint32
	slots := e.table.slots
	mask := len(slots) - 1
	for j, k := range keys {
		tags[j] = e.tag(k)
	}
	for j := range keys {
		ids[j] = -1 // an empty table, or an empty home slot: absent
		if mask < 0 {
			continue
		}
		if s := slots[int(tags[j])&mask]; s != 0 {
			ids[j] = -2 // another key's home: the full probe
			if uint32(s>>32) == tags[j] {
				ids[j] = int32(uint32(s)) - 1
			}
		}
	}
	for j, k := range keys {
		if id := ids[j]; id == -2 || id >= 0 && !bytes.Equal(e.key(id), k) {
			_, ids[j], _ = e.find(k, tags[j])
		}
	}
}

// Get is find's probe alone. Routed through lookup as a group of one, a get
// measured 35–50 % slower on a miss (BenchmarkEngineGetPut/hash/get/miss):
// the stages' bookkeeping costs more than one key has misses to overlap.
func (e *hashEngine) Get(key []byte) ([]byte, bool) {
	if _, id, ok := e.find(key, e.tag(key)); ok {
		return e.val(id), true
	}
	return nil, false
}

// GetMany resolves the keys in groups of probeGroup through lookup.
func (e *hashEngine) GetMany(reqs []GetRequest, idxs []int32, out []GetResult) {
	var keys [probeGroup][]byte
	var ids [probeGroup]int32
	for len(idxs) > 0 {
		g := idxs[:min(len(idxs), probeGroup)]
		idxs = idxs[len(g):]
		for j, i := range g {
			keys[j] = reqs[i].Key
		}
		e.lookup(keys[:len(g)], ids[:len(g)])
		for j, i := range g {
			if id := ids[j]; id >= 0 {
				out[i] = GetResult{Value: e.val(id), OK: true}
			} else {
				out[i] = GetResult{}
			}
		}
	}
}

// dropSorted forgets the sorted view after a write changed the pending
// buffer; an atomic store only when a view exists, so bulk loads pay a load.
func (e *hashEngine) dropSorted() {
	if e.sorted.Load() != nil {
		e.sorted.Store(nil)
	}
}

func (e *hashEngine) cmpIDs(a, b int32) int { return bytes.Compare(e.key(a), e.key(b)) }

// sortedPending returns the pending buffer in key order, building the view
// on first use after a write.
func (e *hashEngine) sortedPending() []int32 {
	if len(e.pending) == 0 {
		return nil
	}
	if v := e.sorted.Load(); v != nil {
		return *v
	}
	v := slices.Clone(e.pending)
	slices.SortFunc(v, e.cmpIDs)
	e.sorted.Store(&v)
	return v
}

// mergePending folds the pending buffer into the sorted id slice and drops
// the dead ids from both in the same pass; only then are their ids free.
// Each pending key gallops to its place among the sorted ids, and the ids
// between two places are copied, not compared: O(p log(n/p)) compares for
// p pending keys over n sorted ids, plus one pass over the ids.
func (e *hashEngine) mergePending() {
	if len(e.pending) == 0 && e.ndead == 0 {
		return
	}
	e.dropSorted()
	pend := slices.DeleteFunc(e.pending, e.isDead)
	slices.SortFunc(pend, e.cmpIDs)
	// Each dead id is listed once, in keys or in pending.
	merged := make([]int32, 0, len(e.keys)+len(e.pending)-e.ndead)
	keys := e.keys
	for _, id := range pend {
		n := e.below(keys, e.key(id))
		merged = append(e.appendLive(merged, keys[:n]), id)
		keys = keys[n:]
	}
	e.keys = e.appendLive(merged, keys)
	e.pending = e.pending[:0]
	for w, word := range e.dead {
		for ; word != 0; word &= word - 1 {
			id := int32(w<<6 + bits.TrailingZeros64(word))
			e.recs[id] = record{}
			e.free = append(e.free, id)
		}
		e.dead[w] = 0
	}
	e.ndead = 0
}

// below returns how many of the ids, in key order, have keys below k. It
// gallops — compares the 1st, 2nd, 4th, … id before it binary-searches — so
// it costs O(log) of its answer, not of len(ids).
func (e *hashEngine) below(ids []int32, k []byte) int {
	hi := 1
	for hi <= len(ids) && bytes.Compare(e.key(ids[hi-1]), k) < 0 {
		hi *= 2
	}
	lo := hi / 2
	return lo + e.lowerBound(ids[lo:min(hi, len(ids))], k)
}

// appendLive appends the ids that are not dead to dst.
func (e *hashEngine) appendLive(dst, ids []int32) []int32 {
	if e.ndead == 0 {
		return append(dst, ids...)
	}
	for _, id := range ids {
		if !e.isDead(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// isDead reports whether id carries a tombstone.
func (e *hashEngine) isDead(id int32) bool {
	w := int(id >> 6)
	return w < len(e.dead) && e.dead[w]&(1<<(id&63)) != 0
}

// mergeIfFull merges once the pending ids and the tombstones reach
// hashMergeAt together.
func (e *hashEngine) mergeIfFull() {
	if len(e.pending)+e.ndead >= hashMergeAt {
		e.mergePending()
	}
}

func (e *hashEngine) Put(key, value []byte) {
	rec := make([]byte, len(key)+len(value))
	copy(rec, key)
	copy(rec[len(key):], value)
	tag := e.tag(key)
	slot, id, ok := e.find(key, tag)
	if ok {
		// An overwrite replaces the record under its id: the key order,
		// which holds ids, does not move, and windows into the old record
		// keep their bytes.
		e.size += int64(len(value) - len(e.val(id)))
		e.recs[id].kv = rec
		return
	}
	if n := len(e.free); n > 0 {
		id, e.free = e.free[n-1], e.free[:n-1]
		e.recs[id] = record{rec, int32(len(key))}
	} else {
		id = int32(len(e.recs))
		e.recs = append(e.recs, record{rec, int32(len(key))})
	}
	e.table.Add(slot, tag, id)
	e.size += int64(len(rec))
	e.pending = append(e.pending, id)
	e.dropSorted()
	e.mergeIfFull()
}

// Delete takes the key out of the table and leaves a tombstone: the id
// stays listed in keys or pending, marked dead, and the record keeps its
// bytes until the next merge drops it. The sorted view of pending holds
// ids, so it stays valid. O(1) amortized; deletes are not rare next to
// puts: a mixed read/write load issues about 1.4 kv deletes per write
// against 2.7 puts.
func (e *hashEngine) Delete(key []byte) bool {
	slot, id, ok := e.find(key, e.tag(key))
	if !ok {
		return false
	}
	e.table.Remove(slot)
	e.size -= int64(len(e.recs[id].kv))
	w := int(id >> 6)
	if w >= len(e.dead) {
		// Room for every id there is, so the bits grow as often as recs.
		e.dead = append(e.dead, make([]uint64, (len(e.recs)+63)/64-len(e.dead))...)
	}
	e.dead[w] |= 1 << (id & 63)
	e.ndead++
	e.mergeIfFull()
	return true
}

// lowerBound returns the index of the first of the ids, in key order, whose
// key is >= from.
func (e *hashEngine) lowerBound(ids []int32, from []byte) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if bytes.Compare(e.key(ids[h]), from) < 0 {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// ScanRange merges the sorted ids and the sorted view of the pending buffer,
// skipping dead ids and handing out windows into the records: no lookup and
// no copy per pair.
func (e *hashEngine) ScanRange(from, to []byte, fn func(key, value []byte) bool) {
	pend := e.sortedPending()
	pend = pend[e.lowerBound(pend, from):]
	keys := e.keys[e.lowerBound(e.keys, from):]
	for len(keys) > 0 || len(pend) > 0 {
		var id int32
		if len(pend) == 0 || (len(keys) > 0 && e.cmpIDs(keys[0], pend[0]) < 0) {
			id, keys = keys[0], keys[1:]
		} else {
			id, pend = pend[0], pend[1:]
		}
		k := e.key(id)
		if to != nil && bytes.Compare(k, to) > 0 {
			return
		}
		if e.isDead(id) {
			continue
		}
		if !fn(k, e.val(id)) {
			return
		}
	}
}

func (e *hashEngine) Len() int { return e.table.Len() }

func (e *hashEngine) SizeBytes() int64 { return e.size }

// PrefixEmpty: one binary search over the sorted ids and one over the
// sorted view of the pending buffer, then a step past any dead ids that
// carry the prefix — exact, and no mutation.
func (e *hashEngine) PrefixEmpty(prefix []byte) bool {
	for _, ids := range [2][]int32{e.keys, e.sortedPending()} {
		for _, id := range ids[e.lowerBound(ids, prefix):] {
			if !bytes.HasPrefix(e.key(id), prefix) {
				break
			}
			if !e.isDead(id) {
				return false
			}
		}
	}
	return true
}
