package baav

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/relation"
)

// Secondary indexes are KV schemas of the store.
//
// A secondary index on rel(attr) maps every value of a non-key attribute to
// the set of block keys — the source relation's primary-key tuples K — of
// the tuples carrying that value. In the paper's terms it is the KV schema
// R⟨A, K⟩: the block under a value a is its posting list. Postings are
// blocks of the store like any other, so one commit stages a write's block
// and posting edits together, one version directory versions them, and one
// watermark reclaims them. A pinned reader's lookup or range read is exact
// at its sequence, and an index lookup keeps the paper's round-trip
// economics: one batched round of gets fetches the posting, then one get per
// posted block key fetches exactly the blocks the query needs.
//
// Physical layout. A posting list is cut into fragments of at most M block
// keys, each an ordinary block of the KV schema R⟨(A, fence), K⟩: its key is
// the value and the fragment's fence, its block the sorted keys it owns.
// The first fragment's fence is K's width of NULLs, which sorts below every
// key; each later one's is the first key it was cut at. Index ids set the
// top bit of the 4-byte id word, so posting blocks never share a prefix with
// a BaaV instance's, and like every block a fragment's segment key carries
// its segment and version:
//
//	[0x80000000|id] enc(v) enc(NULL…)  seg ^ver  ->  pk1 .. pk120
//	[0x80000000|id] enc(v) enc(pk121)  seg ^ver  ->  pk121 .. pk240
//	[0x80000000|id] enc(v) enc(pk241)  seg ^ver  ->  pk241 .. pk310
//
// Fragments are encoded in the compact block codec as one segment with no
// statistics header. Every fragment of a value is routed by the value's
// prefix, so a lookup reads them all from one node in one round. The store
// keeps a directory of each value's fences and lengths, so an indexed write
// reads and rewrites only the fragment that owns its block key — O(M)
// posting bytes whatever the list's length — and a commit that grows a
// fragment past M splits it into even pieces. A drained fragment is a
// tombstone until reclamation drops it. A range predicate reads by key too:
// the directory lists the fragments of the values in its window, in (value,
// fence) order, and one batched round of gets fetches them at the reader's
// sequence, exact at its pin. No posting read walks the index in key order.

// M is the most block keys one posting fragment holds: 0.5–0.8 KB of
// integer keys in the compact codec.
const M = 128

// SecondaryIndex resolves block-aware secondary-index reads at plan
// execution time. Indexes implements it over the store's own posting
// schemas, at the snapshot of the store view it was taken from. An equality
// lookup inside a plan is a ∝ over the index's KV schema (FetchBlocksT
// serves it); Lookup is that read for one value.
type SecondaryIndex interface {
	// Lookup returns the block keys posted under v in the named index and
	// the number of get invocations issued: FetchBlocksT of one value,
	// untraced.
	Lookup(name string, v relation.Value) ([]relation.Tuple, int, error)
	// Range returns the postings of every indexed value within the bounds
	// (nil = unbounded side; loIncl/hiIncl select closed ends) as parallel
	// slices — vals[i] posted block key keys[i] — in encoded (value, key)
	// order, plus the number of posting lists read: the fragments the
	// directory lists in the window, fetched by batched gets at the view's
	// sequence. It is RangeLimitT untraced and unbounded.
	Range(name string, lo, hi *relation.Value, loIncl, hiIncl bool) (vals []relation.Value, keys []relation.Tuple, scanned int, err error)
	// RangeLimitT is Range bounded to the first limit postings in (value,
	// key) order (negative = unbounded) under a per-statement trace (nil
	// untraced): it fetches fragments a window at a time until they hold
	// limit keys at the view's sequence, so a pushed-down LIMIT costs
	// O(limit) postings instead of O(range), exact at the pin.
	RangeLimitT(t *obs.Trace, name string, lo, hi *relation.Value, loIncl, hiIncl bool, limit int) (vals []relation.Value, keys []relation.Tuple, scanned int, err error)
}

// idxSpace is the top bit of an index's 4-byte physical id: posting blocks
// never share a prefix with a BaaV instance's blocks.
const idxSpace = uint32(1) << 31

// postingOpts encode posting fragments: one segment (a fragment holds at
// most M block keys), no statistics header, no multiplicities.
var postingOpts = Options{SegmentThreshold: M}

// posting is one secondary index on rel(attr): the KV schema
// R⟨(attr, fence), K⟩ its postings are stored under (see the layout above),
// and the directory of their fragments.
type posting struct {
	// kv is the index as the KV schema R⟨attr, K⟩ a plan's ∝ names: the
	// index's name (which no KV schema of the store takes; it also names
	// the version directory), its relation, the attribute, and K, the
	// relation's primary key.
	kv      KVSchema
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
	// MaxPosting is the exact length of the longest posting list — the
	// index's degree (Store.Degree): it shrinks under deletes too, so the
	// planner's boundedness check recovers after a heavy-delete workload.
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
	k := (n + M - 1) / M
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
	case st.Schema.ByName(name) != nil:
		return 0, fmt.Errorf("index: %q names a KV schema", name)
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
			return 0, fmt.Errorf("index: %s(%s) is already indexed by %q", rel, attr, p.kv.Name)
		}
	}
	st.ix.nextID++
	p := &posting{
		kv:      KVSchema{Name: name, Rel: rel, Key: []string{attr}, Val: append([]string{}, schema.Key...)},
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
	ld := newLoader()
	ld.group(p.id, rows, []int{p.attrPos})
	slices.SortFunc(ld.groups, func(a, b loadGroup) int { return bytes.Compare(ld.prefix(a), ld.prefix(b)) })
	var prefix []byte // a fragment's, scratch
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
			prefix = append(append(prefix[:0], vkey...), f.fence...)
			ld.write(st, p.kv, postingOpts, prefix, &Block{Tuples: part}, ver)
			pv.frags = append(pv.frags, f)
		}
		p.vals = append(p.vals, pv)
		p.resize(0, len(keys))
		n += len(keys)
	}
	ld.loaded(st, p.kv.Name, ver)
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
	var ops []kv.BatchOp
	st.Cluster.Scan(binary.BigEndian.AppendUint32(nil, p.id), func(k, _ []byte) bool {
		k = bytes.Clone(k)
		ops = append(ops, kv.BatchOp{Route: route(k[:len(k)-12]), Key: k, Delete: true})
		return true
	})
	// The keys go before the versions that list them, as in reclamation.
	st.Cluster.ApplyBatch(nil, ops)
	st.mvcc.dropDir(p.kv.Name)
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

// Lookup returns the block keys posted under v, in key order: FetchBlocksT
// of one value, untraced.
func (x Indexes) Lookup(name string, v relation.Value) ([]relation.Tuple, int, error) {
	if _, err := x.posting(name); err != nil {
		return nil, 0, err
	}
	blks, _, gets, err := x.st.FetchBlocksT(nil, name, []relation.Tuple{{v}}, nil, nil)
	if err != nil || blks[0] == nil {
		return nil, gets, err
	}
	return blks[0].Tuples, gets, nil
}

// addFrag appends to the batch the read of index p's fragment under the
// encoded value vkey and fence.
func addFrag[K string | []byte](b *blockBatch, p *posting, vkey K, fence string) {
	pre := len(b.buf)
	b.buf = binary.BigEndian.AppendUint32(b.buf, p.id)
	b.buf = append(append(b.buf, vkey...), fence...)
	b.reads = append(b.reads, blockRead{kv: &p.kv, pre: int32(pre), end: int32(len(b.buf))})
}

// Range returns the postings of every indexed value within the bounds:
// RangeLimitT untraced and unbounded.
func (x Indexes) Range(name string, lo, hi *relation.Value, loIncl, hiIncl bool) (vals []relation.Value, keys []relation.Tuple, scanned int, err error) {
	return x.RangeLimitT(nil, name, lo, hi, loIncl, hiIncl, -1)
}

// RangeLimitT returns the first limit postings, in (value, block key)
// order, of every indexed value within the bounds, at the view's sequence
// (see Range); a negative limit is unbounded, a zero limit returns nothing.
// Gets count into the trace's kv counters (nil untraced) and each posting
// list read into its posting-read counter; scanned reports the posting
// lists read.
//
// The read is a directory listing plus batched gets, the physical read of
// an equality lookup: the directory lists the fragments of the values in
// the window in (value, fence) order, with no kv operation, and their gets
// go out at the view's sequence as one round, routed by value. A listed
// fragment not visible at the sequence — drained, or written after it —
// costs no get. Under a limit the listing stops once the fragments'
// directory lengths reach what is still missing. Those lengths are the
// installed sequence's, which a pinned view's can exceed (drains after the
// pin) or fall short of (inserts after the pin), so while the view's
// fragments hold fewer keys than the limit the read lists and fetches the
// next window: a LIMIT k costs O(k) postings, and the answer is exact at
// the pin.
func (x Indexes) RangeLimitT(t *obs.Trace, name string, lo, hi *relation.Value, loIncl, hiIncl bool, limit int) (vals []relation.Value, keys []relation.Tuple, scanned int, err error) {
	p, err := x.posting(name)
	if err != nil || limit == 0 {
		return nil, nil, 0, err
	}
	l := fragList{st: x.st, p: p, loIncl: loIncl, hiIncl: hiIncl}
	if lo != nil {
		l.lo = relation.AppendValue(nil, *lo)
	}
	if hi != nil {
		l.hi = relation.AppendValue(nil, *hi)
	}
	seq := x.st.snapSeqFor(p.kv.Rel)
	var refs []fragRef
	var last string // the encoding of the last value read
	for limit < 0 || len(keys) < limit {
		if refs = l.next(refs, limit-len(keys)); len(refs) == 0 {
			break
		}
		var b blockBatch
		for _, r := range refs {
			addFrag(&b, p, r.vkey, r.fence)
		}
		blks, err := x.st.fetch(t.KVCounters(), &b, seq, false)
		if err != nil {
			return nil, nil, scanned, fmt.Errorf("index: %s: %v", name, err)
		}
	read:
		for i, blk := range blks {
			if blk == nil {
				continue // not visible at the sequence, or drained
			}
			if refs[i].vkey != last {
				last = refs[i].vkey
				scanned++
			}
			for _, key := range blk.Tuples {
				vals, keys = append(vals, refs[i].val), append(keys, key)
				if len(keys) == limit {
					break read
				}
			}
		}
	}
	t.CountPostings(scanned)
	return vals, keys, scanned, nil
}

// fragRef is a fragment a range read lists: its value, the value's
// encoding and the fragment's fence, shared with the directory.
type fragRef struct {
	val         relation.Value
	vkey, fence string
}

// fragList lists from the directory, a window at a time, the fragments of
// index p's values within encoded bounds (nil: an open side), in (value,
// fence) order. It resumes after the last fragment it listed by key, not by
// position, since commits splice the directory between windows.
type fragList struct {
	st             *Store
	p              *posting
	lo, hi         []byte
	loIncl, hiIncl bool
	after          []byte // the encoded value of the last fragment listed; nil before the first
	fence          string // and its fence
}

// next lists into refs (reused) the fragments after the last one listed
// until their directory lengths sum to need (negative: to the bounds' end).
// Drained fragments are listed too: a pinned view may see keys in them.
func (l *fragList) next(refs []fragRef, need int) []fragRef {
	p := l.p
	l.st.ix.mu.RLock()
	defer l.st.ix.mu.RUnlock()
	at, fi, ok := 0, 0, false
	switch {
	case l.after != nil:
		if at, ok = p.find(l.after); ok {
			frags := p.vals[at].frags
			fi = sort.Search(len(frags), func(i int) bool { return frags[i].fence > l.fence })
		}
	case l.lo != nil:
		if at, ok = p.find(l.lo); ok && !l.loIncl {
			at++
		}
	}
	refs = refs[:0]
	sum := 0
list:
	for ; at < len(p.vals); at, fi = at+1, 0 {
		pv := &p.vals[at]
		if l.hi != nil && (pv.key > string(l.hi) || !l.hiIncl && pv.key == string(l.hi)) {
			break
		}
		for _, f := range pv.frags[fi:] {
			if need >= 0 && sum >= need {
				break list
			}
			refs = append(refs, fragRef{val: pv.val, vkey: pv.key, fence: f.fence})
			sum += f.n
		}
	}
	if n := len(refs); n > 0 {
		l.after, l.fence = append(l.after[:0], refs[n-1].vkey...), refs[n-1].fence
	}
	return refs
}

// OnRelation returns the indexes on rel as KV schemas R⟨A, K⟩, named by
// the index and sorted by name; nil when rel has none. The schemas' slices
// are shared: callers do not modify them. It implements core.IndexCatalog.
func (x Indexes) OnRelation(rel string) []KVSchema {
	x.st.ix.mu.RLock()
	var out []KVSchema
	for _, p := range x.st.ix.byName {
		if p.kv.Rel == rel {
			out = append(out, p.kv)
		}
	}
	x.st.ix.mu.RUnlock()
	slices.SortFunc(out, func(a, b KVSchema) int { return strings.Compare(a.Name, b.Name) })
	return out
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

// Shape returns the entry and posting counts of the named index — the
// planner's statistics for its index-vs-scan decision. It implements
// core.IndexCatalog.
func (x Indexes) Shape(name string) (entries, postings int) {
	s, _ := x.Stats(name)
	return s.Entries, s.Postings
}

// KVSchema returns the named index as the KV schema R⟨A, K⟩ a plan's ∝
// names, or nil. It implements core.IndexCatalog.
func (x Indexes) KVSchema(name string) *KVSchema {
	x.st.ix.mu.RLock()
	defer x.st.ix.mu.RUnlock()
	if p := x.st.ix.byName[name]; p != nil {
		return &p.kv
	}
	return nil
}

// ValueBounds returns the smallest and largest value the named index holds
// at the installed sequence, in encoded order, which matches a range
// read's. It implements core.IndexCatalog; ok is false for unknown or empty
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
