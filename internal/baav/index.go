package baav

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"sync"

	"zidian/internal/index"
	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/relation"
)

// SecondaryIndex resolves block-aware secondary-index lookups at plan
// execution time. Indexes implements it over the store's own posting
// schemas, at the snapshot of the store view it was taken from; executors
// only need the read path.
type SecondaryIndex interface {
	// Lookup returns the block keys posted under v in the named index and
	// the number of get invocations issued: LookupManyT for one value,
	// untraced.
	Lookup(name string, v relation.Value) ([]relation.Tuple, int, error)
	// LookupManyT resolves several values' postings in one batched cluster
	// round (the gets group by owning node), counting kv ops into the
	// trace's kv sink and decoded posting lists into its posting-read
	// counter (nil untraced). outs aligns with vs, nil for a value with no
	// posting; gets is one per fragment read.
	LookupManyT(t *obs.Trace, name string, vs []relation.Value) (outs [][]relation.Tuple, gets int, err error)
	// Range returns the postings of every indexed value within the bounds
	// (nil = unbounded side; loIncl/hiIncl select closed ends) as parallel
	// slices — vals[i] posted block key keys[i] — in encoded (value, key)
	// order, plus the number of posting lists visited by the bounded
	// ordered walk: RangeLimitT untraced and unbounded.
	Range(name string, lo, hi *relation.Value, loIncl, hiIncl bool) (vals []relation.Value, keys []relation.Tuple, scanned int, err error)
	// RangeLimitT is Range bounded to the first limit postings in (value,
	// key) order (negative = unbounded) under a per-statement trace (nil
	// untraced): the streaming merge stops the walk after O(limit) postings
	// per node, so a pushed-down LIMIT costs O(limit) scan steps instead of
	// O(range).
	RangeLimitT(t *obs.Trace, name string, lo, hi *relation.Value, loIncl, hiIncl bool, limit int) (vals []relation.Value, keys []relation.Tuple, scanned int, err error)
	// MaxPostings returns the longest posting list of the named index; the
	// boundedness check treats it like a block degree.
	MaxPostings(name string) int
}

// idxSpace is the top bit of an index's 4-byte physical id: posting blocks
// never share a prefix with a BaaV instance's blocks.
const idxSpace = uint32(1) << 31

// postingOpts encode posting fragments: one segment (a fragment holds at
// most index.M block keys), no statistics header, no multiplicities.
var postingOpts = Options{SegmentThreshold: index.M}

// posting is one secondary index on rel(attr): the KV schema
// R⟨(attr, fence), K⟩ its postings are stored under (see package index),
// and the directory of their fragments.
type posting struct {
	// kv names the index's version directory (a name no KV schema can
	// take) and its relation; kv.Val is K, the relation's primary key.
	kv      KVSchema
	name    string
	attr    string
	attrPos int
	keyPos  []int
	id      uint32 // with idxSpace set
	fence0  string // the first fragment's fence: K's width of NULLs, encoded

	// vals and stats are guarded by the store's indexState.mu and change
	// only under the relation's commit mutex.
	vals  []postingVal // distinct values in encoded order
	stats IndexStats
	lens  map[int]int // posting lists by length, for MaxPosting
}

// postingVal is one indexed value: its encoding and its fragments in fence
// order.
type postingVal struct {
	key   string
	val   relation.Value
	frags []postingFrag
}

// postingFrag is one posting fragment: the encoded block key its block key
// carries after the value (its fence) and the number of block keys it holds
// at the installed sequence. A drained fragment stays, with n zero, while a
// pinned reader may still read an older version of it; reclamation drops
// it with its last version.
type postingFrag struct {
	fence string
	n     int
}

// IndexStats summarize one index's shape for the planner's cost decisions.
type IndexStats struct {
	// Entries is the number of distinct indexed values (posting lists).
	Entries int
	// Postings is the total number of (value, block key) pairs.
	Postings int
	// MaxPosting is the exact length of the longest posting list: it
	// shrinks under deletes too, so the planner's boundedness check
	// recovers after a heavy-delete workload.
	MaxPosting int
}

// indexState is the catalog of a store's indexes, shared by its snapshot
// views.
type indexState struct {
	mu     sync.RWMutex
	byName map[string]*posting
	nextID uint32
}

// length is the number of block keys the value's fragments hold.
func (pv *postingVal) length() int {
	n := 0
	for _, f := range pv.frags {
		n += f.n
	}
	return n
}

// find returns the position in vals of the value encoded as key, or where
// it would be spliced in.
func (p *posting) find(key []byte) (int, bool) {
	at := sort.Search(len(p.vals), func(i int) bool { return p.vals[i].key >= string(key) })
	return at, at < len(p.vals) && p.vals[at].key == string(key)
}

// resize moves one posting list from length from to length to (zero: the
// list does not exist on that side). MaxPosting walks down only through
// lengths a growth walked up through, so it stays exact in amortized O(1).
func (p *posting) resize(from, to int) {
	s := &p.stats
	s.Postings += to - from
	switch {
	case from == 0 && to > 0:
		s.Entries++
	case from > 0 && to == 0:
		s.Entries--
	}
	if from > 0 {
		if p.lens[from]--; p.lens[from] <= 0 {
			delete(p.lens, from)
		}
	}
	if to > 0 {
		p.lens[to]++
	}
	s.MaxPosting = max(s.MaxPosting, to)
	for s.MaxPosting > 0 && p.lens[s.MaxPosting] == 0 {
		s.MaxPosting--
	}
}

// fragment returns the block prefix of the fragment that owns t's posting
// at the installed sequence: under t's value, the last live fragment fenced
// at or below t's block key, or the first fragment. The directory is stable
// while the relation's commit stages: only that commit and reclamation,
// which it excludes, change it.
func (p *posting) fragment(st *Store, t relation.Tuple) []byte {
	buf := binary.BigEndian.AppendUint32(nil, p.id)
	buf = relation.AppendValue(buf, t[p.attrPos])
	vend := len(buf)
	pk := relation.AppendTuple(buf, t.Project(p.keyPos))[vend:]
	fence := p.fence0
	st.ix.mu.RLock()
	if at, ok := p.find(buf[4:vend]); ok {
		frags := p.vals[at].frags
		for i := sort.Search(len(frags), func(i int) bool { return frags[i].fence > string(pk) }) - 1; i >= 0; i-- {
			if frags[i].n > 0 {
				fence = frags[i].fence
				break
			}
		}
	}
	st.ix.mu.RUnlock()
	return append(buf[:vend:vend], fence...)
}

// setFragment records that the fragment under prefix holds n block keys as
// of the commit installing now: a new fragment, and a new value, enter the
// directory.
func (p *posting) setFragment(prefix []byte, n int) {
	val, vn, err := relation.DecodeValue(prefix[4:])
	if err != nil {
		return // prefixes are built by fragment and splitFragments
	}
	key, fence := prefix[4:4+vn], string(prefix[4+vn:])
	at, ok := p.find(key)
	if !ok {
		p.vals = slices.Insert(p.vals, at, postingVal{key: string(key), val: val})
	}
	pv := &p.vals[at]
	from := pv.length()
	fi := sort.Search(len(pv.frags), func(i int) bool { return pv.frags[i].fence >= fence })
	if fi == len(pv.frags) || pv.frags[fi].fence != fence {
		pv.frags = slices.Insert(pv.frags, fi, postingFrag{fence: fence})
	}
	pv.frags[fi].n = n
	p.resize(from, pv.length())
}

// forget drops the drained fragment under prefix, whose last version
// reclamation just deleted, and its value once no fragment is left.
func (p *posting) forget(prefix []byte) {
	vn, err := relation.SkipValue(prefix[4:])
	if err != nil {
		return
	}
	at, ok := p.find(prefix[4 : 4+vn])
	if !ok {
		return
	}
	pv := &p.vals[at]
	pv.frags = slices.DeleteFunc(pv.frags, func(f postingFrag) bool { return f.n == 0 && f.fence == string(prefix[4+vn:]) })
	if len(pv.frags) == 0 {
		p.vals = slices.Delete(p.vals, at, at+1)
	}
}

// forgetFragment drops from its index's directory the posting fragment
// under prefix in the version directory kvName, whose last version
// reclamation just deleted; a block of a KV schema is no index's.
func (st *Store) forgetFragment(kvName string, prefix []byte) {
	if binary.BigEndian.Uint32(prefix)&idxSpace == 0 {
		return
	}
	st.ix.mu.Lock()
	defer st.ix.mu.Unlock()
	for _, p := range st.ix.byName {
		if p.kv.Name == kvName {
			p.forget(prefix)
		}
	}
}

// route is the key a block's pairs are placed by: the block prefix, except
// that every fragment of one posting list routes by the list's value, so a
// lookup reads all of them from one node.
func route(prefix []byte) []byte {
	if binary.BigEndian.Uint32(prefix)&idxSpace == 0 {
		return prefix
	}
	n, err := relation.SkipValue(prefix[4:])
	if err != nil {
		return prefix
	}
	return prefix[:4+n]
}

// pieces cuts a sorted run of n block keys into ⌈n/M⌉ fragments of even
// length, as [start, end) bounds: one fragment up to M keys, halves up to
// 2M.
func pieces(n int) [][2]int {
	k := (n + index.M - 1) / index.M
	out := make([][2]int, k)
	for j := range out {
		out[j] = [2]int{j * n / k, (j + 1) * n / k}
	}
	return out
}

// CreateIndex defines the index name on rel(attr) and backfills its
// postings from the relation's tuples through the loader, returning the
// number of block keys posted. The postings are written at the relation's
// installed sequence, under its commit mutex; the caller keeps DDL apart
// from the relation's readers (the server's statement gate does this).
func (st *Store) CreateIndex(name, rel, attr string, tuples []relation.Tuple) (int, error) {
	schema, ok := st.Rels[rel]
	switch {
	case name == "":
		return 0, fmt.Errorf("index: index needs a name")
	case !ok:
		return 0, fmt.Errorf("index: unknown relation %q", rel)
	case len(schema.Key) == 0:
		return 0, fmt.Errorf("index: relation %s has no primary key to post", rel)
	case !schema.Has(attr):
		return 0, fmt.Errorf("index: relation %s has no attribute %q", rel, attr)
	}
	keyPos, err := schema.Positions(schema.Key)
	if err != nil {
		return 0, err
	}
	r := st.mvcc.rel(rel)
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	st.ix.mu.Lock()
	defer st.ix.mu.Unlock()
	if _, dup := st.ix.byName[name]; dup {
		return 0, fmt.Errorf("index: index %q already exists", name)
	}
	for _, p := range st.ix.byName {
		if p.kv.Rel == rel && p.attr == attr {
			return 0, fmt.Errorf("index: %s(%s) is already indexed by %q", rel, attr, p.name)
		}
	}
	st.ix.nextID++
	p := &posting{
		kv:      KVSchema{Name: "\x00index " + name, Rel: rel, Key: []string{attr}, Val: append([]string{}, schema.Key...)},
		name:    name,
		attr:    attr,
		attrPos: schema.Index(attr),
		keyPos:  keyPos,
		id:      idxSpace | st.ix.nextID,
		fence0:  string(relation.EncodeTuple(make(relation.Tuple, len(keyPos)))),
		lens:    make(map[int]int),
	}
	n := st.backfill(p, tuples, r.seq.Load())
	st.ix.byName[name] = p
	return n, nil
}

// backfill writes p's postings over rows as version ver and fills its
// directory. The loader groups the rows by value; each value's block keys
// are sorted, deduplicated and cut into ⌈L/M⌉ fragments of even length.
func (st *Store) backfill(p *posting, rows []relation.Tuple, ver uint64) (n int) {
	ld := loader{seed: maphash.MakeSeed()}
	ld.group(p.id, rows, []int{p.attrPos})
	slices.SortFunc(ld.groups, func(a, b loadGroup) int { return bytes.Compare(ld.prefix(a), ld.prefix(b)) })
	for _, gr := range ld.groups {
		keys := ld.block(rows, gr.first, p.keyPos, false).Tuples
		slices.SortFunc(keys, relation.Tuple.Compare)
		keys = slices.CompactFunc(keys, relation.Tuple.Equal)
		vkey := ld.prefix(gr)
		pv := postingVal{key: string(vkey[4:]), val: rows[gr.first][p.attrPos]}
		for _, piece := range pieces(len(keys)) {
			part := keys[piece[0]:piece[1]]
			f := postingFrag{fence: p.fence0, n: len(part)}
			if piece[0] > 0 {
				f.fence = string(relation.EncodeTuple(part[0]))
			}
			prefix := append(vkey[:len(vkey):len(vkey)], f.fence...)
			st.loadBlock(&ld.enc, p.kv, postingOpts, prefix, &Block{Tuples: part}, ver)
			pv.frags = append(pv.frags, f)
		}
		p.vals = append(p.vals, pv)
		p.resize(0, len(keys))
		n += len(keys)
	}
	return n
}

// DropIndex removes the named index, every version of its postings and its
// version directory, returning the indexed relation. It takes the
// relation's commit mutex, so no commit stages postings for it meanwhile.
func (st *Store) DropIndex(name string) (string, error) {
	st.ix.mu.RLock()
	p := st.ix.byName[name]
	st.ix.mu.RUnlock()
	if p == nil {
		return "", fmt.Errorf("index: unknown index %q", name)
	}
	r := st.mvcc.rel(p.kv.Rel)
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	st.ix.mu.Lock()
	delete(st.ix.byName, name)
	st.ix.mu.Unlock()
	r.retired = slices.DeleteFunc(r.retired, func(rv retiredVer) bool { return rv.kvName == p.kv.Name })
	r.tombs = slices.DeleteFunc(r.tombs, func(tb tombRef) bool { return tb.kvName == p.kv.Name })
	st.mvcc.dropDir(p.kv.Name)
	var ops []kv.BatchOp
	st.Cluster.Scan(binary.BigEndian.AppendUint32(nil, p.id), func(k, _ []byte) bool {
		k = bytes.Clone(k)
		ops = append(ops, kv.BatchOp{Route: route(k[:len(k)-12]), Key: k, Delete: true})
		return true
	})
	st.Cluster.ApplyBatch(nil, ops)
	return p.kv.Rel, nil
}

// onRel returns the indexes on rel.
func (st *Store) onRel(rel string) []*posting {
	st.ix.mu.RLock()
	defer st.ix.mu.RUnlock()
	var out []*posting
	for _, p := range st.ix.byName {
		if p.kv.Rel == rel {
			out = append(out, p)
		}
	}
	return out
}

// Indexes is the store's index catalog, and the posting reads of the store
// view it was taken from: a snapshot view's reads resolve at its pinned
// sequence. It implements SecondaryIndex and the planner's catalog.
type Indexes struct{ st *Store }

// Indexes returns the view's index catalog and reads.
func (st *Store) Indexes() Indexes { return Indexes{st} }

// posting returns the named index.
func (x Indexes) posting(name string) (*posting, error) {
	x.st.ix.mu.RLock()
	defer x.st.ix.mu.RUnlock()
	p := x.st.ix.byName[name]
	if p == nil {
		return nil, fmt.Errorf("index: unknown index %q", name)
	}
	return p, nil
}

// Lookup returns the block keys posted under v, in key order: LookupManyT
// for one value, untraced.
func (x Indexes) Lookup(name string, v relation.Value) ([]relation.Tuple, int, error) {
	outs, gets, err := x.LookupManyT(nil, name, []relation.Value{v})
	if err != nil {
		return nil, gets, err
	}
	return outs[0], gets, nil
}

// LookupManyT resolves the postings of several values in one batched
// cluster round at the view's sequence: the directory names each value's
// fragments (the first, for a value it does not hold), the version
// directory resolves each one's version, and their gets go out as one
// GetManyRouted — one round trip per owning node. A fragment not visible at
// the sequence costs the get of a miss. Each value read counts one posting
// read into the trace.
func (x Indexes) LookupManyT(t *obs.Trace, name string, vs []relation.Value) (outs [][]relation.Tuple, gets int, err error) {
	if len(vs) == 0 {
		return nil, 0, nil
	}
	p, err := x.posting(name)
	if err != nil {
		return nil, 0, err
	}
	width := len(p.kv.Val)
	var b blockBatch
	ends := make([]int, len(vs)) // value i's fragments end at b.reads[ends[i]]
	var vkey []byte
	add := func(fence string) {
		pre := len(b.buf)
		b.buf = append(binary.BigEndian.AppendUint32(b.buf, p.id), vkey...)
		b.buf = append(b.buf, fence...)
		b.reads = append(b.reads, blockRead{kv: p.kv.Name, width: width, pre: pre, end: len(b.buf)})
	}
	x.st.ix.mu.RLock()
	for i, v := range vs {
		vkey = relation.AppendValue(vkey[:0], v)
		if at, ok := p.find(vkey); ok {
			for _, f := range p.vals[at].frags {
				add(f.fence)
			}
		} else {
			add(p.fence0)
		}
		ends[i] = len(b.reads)
	}
	x.st.ix.mu.RUnlock()
	blks, _, gets, err := x.st.fetch(t.KVCounters(), &b, x.st.snapSeqFor(p.kv.Rel), true, nil, nil)
	if err != nil {
		return nil, gets, fmt.Errorf("index: %s: %v", name, err)
	}
	if t != nil {
		perNode := make([]int64, x.st.Cluster.NodeCount())
		for i := range b.reads {
			perNode[x.st.Cluster.NodeFor(route(b.prefix(&b.reads[i])))] += int64(b.reads[i].gets)
		}
		t.AnnotateNodes(perNode)
	}
	outs = make([][]relation.Tuple, len(vs))
	start := 0
	for i := range vs {
		read := false
		for _, blk := range blks[start:ends[i]] {
			if blk != nil {
				read = true
				outs[i] = append(outs[i], blk.Tuples...)
			}
		}
		if read {
			t.CountPostings(1)
		}
		start = ends[i]
	}
	return outs, gets, nil
}

// Range returns the postings of every indexed value within the bounds:
// RangeLimitT untraced and unbounded.
func (x Indexes) Range(name string, lo, hi *relation.Value, loIncl, hiIncl bool) (vals []relation.Value, keys []relation.Tuple, scanned int, err error) {
	return x.RangeLimitT(nil, name, lo, hi, loIncl, hiIncl, -1)
}

// RangeLimitT returns the first limit postings, in (value, block key)
// order, of every indexed value within the bounds, at the view's sequence
// (see Range); a negative limit is unbounded, a zero limit returns nothing.
// Scan steps count into the trace's kv counters (nil untraced) and each
// posting list visited into its posting-read counter; scanned reports the
// posting lists visited.
//
// The fragments' block keys sort in (value, fence, version) order, so the
// read is one ordered walk over the index's instance, bounded by the
// encoded bounds: the ordered gather over the scatter pipeline
// (kv.RangeMergeT), one ordered stream per storage node merged by its
// smallest head. A fragment's versions arrive together, newest first; the
// first at or below the sequence wins, and a winning tombstone is a drained
// fragment. A bound LIMIT k costs O(k) postings per node: each node stops
// once its winning fragments hold limit keys, since no later key on it can
// displace one already in the global first limit.
func (x Indexes) RangeLimitT(t *obs.Trace, name string, lo, hi *relation.Value, loIncl, hiIncl bool, limit int) (vals []relation.Value, keys []relation.Tuple, scanned int, err error) {
	p, err := x.posting(name)
	if err != nil || limit == 0 {
		return nil, nil, 0, err
	}
	pfx := binary.BigEndian.AppendUint32(nil, p.id)
	var loKey, hiKey, hiFence []byte
	if lo != nil {
		loKey = relation.AppendValue(pfx[:4:4], *lo)
	}
	if hi != nil {
		// hi's fragments extend its encoding with a fence and a version.
		hiFence = append(relation.AppendValue(pfx[:4:4], *hi), 0xFF)
		hiKey = hiFence[:len(hiFence)-1]
	}
	// The fences are inclusive at the byte level, so an excluded endpoint
	// shows up as its fragments and is skipped. The value encoding is
	// prefix-free: only the endpoint's own keys extend it.
	excluded := func(k []byte) bool {
		return (!loIncl && loKey != nil && bytes.HasPrefix(k, loKey)) ||
			(!hiIncl && hiKey != nil && bytes.HasPrefix(k, hiKey))
	}
	seq := x.st.snapSeqFor(p.kv.Rel)
	width := len(p.kv.Val)
	nodes := x.st.Cluster.NodeCount()

	var w struct {
		at      versionWalk
		lastVal []byte // the value of the last posting list consumed
		val     relation.Value
		err     error
	}
	perNode := make([]int64, nodes)
	process := func(node int, k, v []byte) bool {
		if excluded(k) || !w.at.wins(k, seq) {
			return true
		}
		blk, err := decodePosting(v, width)
		if err == nil && blk != nil && (w.lastVal == nil || !bytes.HasPrefix(k[4:], w.lastVal)) {
			var n int
			w.val, n, err = relation.DecodeValue(k[4:])
			w.lastVal = append(w.lastVal[:0], k[4:4+n]...)
			scanned++
			perNode[node]++
		}
		if err != nil {
			w.err = fmt.Errorf("index: %s: corrupt posting: %v", name, err)
			return false
		}
		if blk == nil {
			return true // drained at this sequence
		}
		for _, key := range blk.Tuples {
			vals, keys = append(vals, w.val), append(keys, key)
			if len(keys) == limit {
				return false
			}
		}
		return true
	}
	var cut func(node int, k, v []byte) bool
	if limit > 0 {
		walks := make([]versionWalk, nodes)
		counts := make([]int, nodes)
		cut = func(node int, k, v []byte) bool {
			if excluded(k) || !walks[node].wins(k, seq) {
				return true
			}
			n, err := postingLen(v)
			counts[node] += n
			return err == nil && counts[node] < limit
		}
	}
	x.st.Cluster.RangeMergeT(t.KVCounters(), pfx, loKey, hiFence, cut, process)
	t.AnnotateNodes(perNode)
	if w.err != nil {
		return nil, nil, scanned, w.err
	}
	t.CountPostings(scanned)
	return vals, keys, scanned, nil
}

// versionWalk picks, from an ordered walk over a one-segment instance's
// physical keys, the version of each block that wins at a sequence: a
// block's versions arrive together, newest first.
type versionWalk struct {
	block []byte
	done  bool
}

// wins reports whether k is the winning version of its block at seq.
func (w *versionWalk) wins(k []byte, seq uint64) bool {
	if block := k[:len(k)-12]; !bytes.Equal(block, w.block) {
		w.block, w.done = append(w.block[:0], block...), false
	}
	if w.done || ^binary.BigEndian.Uint64(k[len(k)-8:]) > seq {
		return false
	}
	w.done = true
	return true
}

// decodePosting decodes a posting fragment's one segment; nil for a
// tombstone.
func decodePosting(v []byte, width int) (*Block, error) {
	segs := [][]byte{v}
	if nsegs, k := binary.Uvarint(v); k > 0 && nsegs == 0 {
		return nil, nil
	}
	if err := stripSegHeader(segs); err != nil {
		return nil, err
	}
	blk, _, _, err := decodeBlock(segs[0], width, nil, false)
	return blk, err
}

// postingLen reads the number of block keys a posting fragment's segment
// holds (zero for a tombstone) from its headers.
func postingLen(v []byte) (int, error) {
	nsegs, k := binary.Uvarint(v)
	if k <= 0 {
		return 0, errCorruptBlock
	}
	if nsegs == 0 {
		return 0, nil
	}
	_, n, _, err := payloadHeader(v[k:])
	return int(n), err
}

// IndexOn reports the index covering rel(attr): its name and the block-key
// attributes its postings hold. It implements core.IndexCatalog.
func (x Indexes) IndexOn(rel, attr string) (string, []string, bool) {
	x.st.ix.mu.RLock()
	defer x.st.ix.mu.RUnlock()
	for _, p := range x.st.ix.byName {
		if p.kv.Rel == rel && p.attr == attr {
			return p.name, append([]string{}, p.kv.Val...), true
		}
	}
	return "", nil, false
}

// Stats snapshots the named index's shape.
func (x Indexes) Stats(name string) (IndexStats, bool) {
	x.st.ix.mu.RLock()
	defer x.st.ix.mu.RUnlock()
	if p := x.st.ix.byName[name]; p != nil {
		return p.stats, true
	}
	return IndexStats{}, false
}

// AvgPostings estimates the posting-list length of one lookup against the
// named index — the planner's analogue of a block-degree statistic.
func (x Indexes) AvgPostings(name string) int {
	s, _ := x.Stats(name)
	if s.Entries == 0 {
		return 1
	}
	return max(s.Postings/s.Entries, 1)
}

// Shape returns the entry and posting counts of the named index — the
// planner's statistics for range-selectivity estimates. It implements
// core.IndexCatalog.
func (x Indexes) Shape(name string) (entries, postings int) {
	s, _ := x.Stats(name)
	return s.Entries, s.Postings
}

// MaxPostings returns the longest posting list of the named index.
func (x Indexes) MaxPostings(name string) int {
	s, _ := x.Stats(name)
	return s.MaxPosting
}

// ValueBounds returns the smallest and largest value the named index holds
// at the installed sequence, in encoded order, which matches the posting
// walk. It implements core.IndexCatalog; ok is false for unknown or empty
// indexes.
func (x Indexes) ValueBounds(name string) (lo, hi relation.Value, ok bool) {
	x.st.ix.mu.RLock()
	defer x.st.ix.mu.RUnlock()
	p := x.st.ix.byName[name]
	if p == nil {
		return relation.Value{}, relation.Value{}, false
	}
	first := slices.IndexFunc(p.vals, func(pv postingVal) bool { return pv.length() > 0 })
	if first < 0 {
		return relation.Value{}, relation.Value{}, false
	}
	last := len(p.vals) - 1
	for p.vals[last].length() == 0 {
		last--
	}
	return p.vals[first].val, p.vals[last].val, true
}

// Names lists the defined indexes, sorted.
func (x Indexes) Names() []string {
	x.st.ix.mu.RLock()
	defer x.st.ix.mu.RUnlock()
	out := make([]string, 0, len(x.st.ix.byName))
	for name := range x.st.ix.byName {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}
