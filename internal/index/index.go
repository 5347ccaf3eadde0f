// Package index implements block-aware secondary indexes for BaaV stores.
//
// A secondary index on rel(attr) maps every value of a non-key attribute to
// the set of block keys — the source relation's primary-key tuples, i.e. the
// keys of the relation's primary-key KV schema — of the tuples carrying that
// value. Postings are stored as ordinary key-value pairs in the same
// kv.Cluster as the blocks they point at, so hash sharding, per-node metrics
// and engine cost profiles apply to index traffic for free, and an index
// lookup preserves the paper's round-trip economics: one batched round of
// gets fetches the posting, then one get per posted block key fetches
// exactly the blocks the query needs, instead of scanning the whole
// instance.
//
// Physical layout. Index pairs live in a key space disjoint from BaaV
// blocks: BaaV instance ids are small positive integers, index prefixes set
// the top bit of the 4-byte id word. Id 0 of that space holds the catalog —
// one pair per index describing (name, relation, attribute, block-key
// attributes) — which makes indexes persistent in the store itself: a fresh
// Manager over the same cluster recovers them with Load.
//
//	catalog pair:    [0x80000000]    [enc(name)]              -> enc(rel, attr, id, key...)
//	posting pair:    [0x80000000|id] [enc(value)]             -> enc(pk1) ++ enc(pk2) ++ ...
//	later fragment:  [0x80000000|id] [enc(value)] [enc(pkF)]  -> enc(pkF) ++ ...
//
// Posting lists keep their block keys in encoded (memcmp) order, cut into
// fragments of at most M block keys. The first fragment sits at the value's
// posting key; each later one appends the encoded block key it starts at
// (its fence), so a value's fragments sort together, in key order, between
// the value and the next. All of them are routed by the value's posting
// key and live on one node. A list of at most M keys is one pair, exactly
// as if unfragmented:
//
//	enc(v)             -> pk1 .. pk120     fence ""     owns keys below pk121
//	enc(v) enc(pk121)  -> pk121 .. pk240   fence pk121  owns pk121 up to pk241
//	enc(v) enc(pk241)  -> pk241 .. pk310   fence pk241  owns pk241 and above
//
// An in-memory directory (Stats.vals) holds each value's fragment fences
// and lengths, so an indexed write reads and rewrites only the fragment
// its block key falls in — O(M) posting bytes whatever the list's length
// — and a lookup is one get per fragment, issued in one batched round:
// ⌈L/M⌉ for a list of L keys as CREATE INDEX writes it. Fragments split
// but never merge, so deletes can leave a list more fragments than that.
package index

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

// idxSpace is the top bit distinguishing index prefixes from BaaV instance
// ids in the shared 4-byte key prefix.
const idxSpace = uint32(1) << 31

// catalogID is the reserved index id of the catalog pairs.
const catalogID = uint32(0)

// M is the most block keys one posting fragment holds (≈ 1.2 KB of 9-byte
// integer keys). A commit that grows a fragment past M splits it into
// halves.
const M = 128

// Def describes one secondary index.
type Def struct {
	// Name identifies the index uniquely within the store.
	Name string
	// Rel and Attr name the indexed relation and attribute.
	Rel  string
	Attr string
	// Key lists the block-key attributes a posting holds — the indexed
	// relation's primary key, in declared order.
	Key []string

	id      uint32
	attrPos int
	keyPos  []int
}

// Stats summarize one index's shape for the planner's cost decisions.
type Stats struct {
	// Entries is the number of distinct indexed values (posting lists).
	Entries int
	// Postings is the total number of (value, block key) pairs.
	Postings int
	// MaxPosting is the exact length of the longest posting list currently
	// stored: it shrinks under deletes too, so the planner's boundedness
	// check recovers after a heavy-delete workload instead of staying
	// pessimistic on a stale ceiling.
	MaxPosting int

	// lens counts posting lists by length; maintenance moves one list
	// between adjacent lengths per call, so MaxPosting retightens in
	// amortized O(1) without ever rescanning the index.
	lens map[int]int

	// vals lists the distinct indexed values currently present, sorted in
	// encoded (memcmp) key order — the order the posting key space walks
	// in — each with its fragment directory. Maintenance splices one entry
	// per created or drained posting list, so the min/max the planner uses
	// to tighten range selectivity decay under deletes exactly like
	// MaxPosting does.
	vals []valEntry
}

// valEntry is one distinct indexed value: its encoded key, which defines
// the sort order of Stats.vals, and its posting fragments in fence order.
type valEntry struct {
	key   string
	val   relation.Value
	frags []frag
}

// frag is one posting fragment in the directory: the encoded block key its
// pair key carries after the value ("" for the first fragment, whose key is
// the posting key itself) and the number of block keys it stores. A
// fragment owns the block keys from its fence up to the next fragment's.
type frag struct {
	fence string
	n     int
}

// length is the number of block keys the value's fragments store.
func (e *valEntry) length() int {
	n := 0
	for _, f := range e.frags {
		n += f.n
	}
	return n
}

// locate returns the fragment whose range holds the encoded block key pk:
// the last one fenced at or below it, or -1 when pk sorts before every
// fragment (the first fragment drained while later ones remain).
func (e *valEntry) locate(pk string) int {
	return sort.Search(len(e.frags), func(i int) bool { return e.frags[i].fence > pk }) - 1
}

// find returns the position in vals of the value whose posting key is
// route, or where it would be spliced in.
func (st *Stats) find(route []byte) (int, bool) {
	k := route[4:]
	at := sort.Search(len(st.vals), func(i int) bool { return st.vals[i].key >= string(k) })
	return at, at < len(st.vals) && st.vals[at].key == string(k)
}

// ValueBounds returns the smallest and largest indexed value currently
// present (in encoded key order, which matches the posting walk). ok is
// false for an empty index.
func (st *Stats) ValueBounds() (lo, hi relation.Value, ok bool) {
	if len(st.vals) == 0 {
		return relation.Value{}, relation.Value{}, false
	}
	return st.vals[0].val, st.vals[len(st.vals)-1].val, true
}

// resize moves one posting list from length from to length to, in the
// posting count and the length histogram.
func (st *Stats) resize(from, to int) {
	st.Postings += to - from
	st.bump(from, to)
}

// bump moves one posting list from length `from` to length `to` (zero
// means the list does not exist on that side) and retightens MaxPosting.
// The downward walk only revisits lengths an earlier growth walked up
// through, so maintenance stays O(posting) amortized — draining a hot
// value never rescans the index.
func (st *Stats) bump(from, to int) {
	if st.lens == nil {
		st.lens = make(map[int]int)
	}
	if from > 0 {
		if st.lens[from]--; st.lens[from] <= 0 {
			delete(st.lens, from)
		}
	}
	if to > 0 {
		st.lens[to]++
	}
	if to > st.MaxPosting {
		st.MaxPosting = to
	}
	for st.MaxPosting > 0 && st.lens[st.MaxPosting] == 0 {
		st.MaxPosting--
	}
}

// Manager is the secondary-index subsystem of one opened instance: the
// catalog of index definitions plus the read paths and the staged
// maintenance path (BeginCommit, commit.go) over the cluster. All methods
// are safe for concurrent use; the caller is expected to keep DDL apart
// from data maintenance (the server's statement gate does this) and to run
// one commit per relation at a time (the group committer does this).
type Manager struct {
	cluster *kv.Cluster

	mu     sync.RWMutex
	defs   map[string]*Def
	byAttr map[string]string // rel + "\x00" + attr -> index name
	stats  map[string]*Stats
	nextID uint32

	// Deferred posting shrinks, per relation and fragment (fragID) — see
	// commit.go. Guarded by pendMu, never by mu.
	pendMu  sync.Mutex
	pending map[string]map[string]*pendingFrag // rel -> fragID -> shrinks
}

// NewManager builds an empty index manager over the cluster.
func NewManager(cluster *kv.Cluster) *Manager {
	return &Manager{
		cluster: cluster,
		defs:    make(map[string]*Def),
		byAttr:  make(map[string]string),
		stats:   make(map[string]*Stats),
		nextID:  1,
	}
}

func prefix(id uint32) []byte {
	out := make([]byte, 4)
	binary.BigEndian.PutUint32(out, idxSpace|id)
	return out
}

func postingKey(id uint32, v relation.Value) []byte {
	return relation.AppendValue(prefix(id), v)
}

// fragKey is the pair key of the fragment fenced at fence of the value
// whose posting key is route.
func fragKey(route []byte, fence string) []byte {
	return append(route[:len(route):len(route)], fence...)
}

func catalogKey(name string) []byte {
	return relation.AppendValue(prefix(catalogID), relation.String(name))
}

func attrKey(rel, attr string) string { return rel + "\x00" + attr }

// resolve computes the positional plumbing of a definition against the
// relation schema.
func resolve(d *Def, schema *relation.Schema) error {
	if len(schema.Key) == 0 {
		return fmt.Errorf("index: relation %s has no primary key to post", d.Rel)
	}
	d.attrPos = schema.Index(d.Attr)
	if d.attrPos < 0 {
		return fmt.Errorf("index: relation %s has no attribute %q", d.Rel, d.Attr)
	}
	d.Key = append([]string{}, schema.Key...)
	pos, err := schema.Positions(d.Key)
	if err != nil {
		return err
	}
	d.keyPos = pos
	return nil
}

// Create defines and backfills an index on rel(attr) over the given tuples,
// returning the number of tuples indexed. The definition is written to the
// in-store catalog.
func (m *Manager) Create(name, rel, attr string, schema *relation.Schema, tuples []relation.Tuple) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("index: index needs a name")
	}
	d := &Def{Name: name, Rel: rel, Attr: attr}
	if err := resolve(d, schema); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.defs[name]; dup {
		return 0, fmt.Errorf("index: index %q already exists", name)
	}
	if prev, dup := m.byAttr[attrKey(rel, attr)]; dup {
		return 0, fmt.Errorf("index: %s(%s) is already indexed by %q", rel, attr, prev)
	}
	d.id = m.nextID
	m.nextID++

	st := &Stats{}
	n := m.backfill(d, tuples, st)
	m.cluster.Put(catalogKey(name), encodeCatalog(d))
	m.defs[name] = d
	m.byAttr[attrKey(rel, attr)] = name
	m.stats[name] = st
	return n, nil
}

// backfill writes d's postings over tuples, counting them into st and its
// directory, and returns the number of (value, block key) pairs posted.
// Each distinct value is encoded once and each tuple's block key once, into
// one buffer; the keys are bucketed by value in tuple order, and the values
// walked in encoded order, each bucket sorted and deduplicated into
// ⌈L/M⌉ fragments of even length and one Put each.
func (m *Manager) backfill(d *Def, tuples []relation.Tuple, st *Stats) (n int) {
	type span struct{ off, end int32 } // buf[off:end]
	type value struct {
		enc        span
		row        int32 // the first tuple carrying it
		start, len int32 // its keys, keys[start:start+len]
	}
	var buf []byte
	ids := make(map[string]int32) // value encoding → index in vals
	var vals []value
	valOf := make([]int32, len(tuples))
	keyOf := make([]span, len(tuples))
	for i, t := range tuples {
		off := len(buf)
		buf = relation.AppendValue(buf, t[d.attrPos])
		v, ok := ids[string(buf[off:])]
		if ok {
			buf = buf[:off]
		} else {
			v = int32(len(vals))
			ids[string(buf[off:])] = v
			vals = append(vals, value{enc: span{int32(off), int32(len(buf))}, row: int32(i)})
		}
		vals[v].len++
		off = len(buf)
		for _, p := range d.keyPos {
			buf = relation.AppendValue(buf, t[p])
		}
		valOf[i], keyOf[i] = v, span{int32(off), int32(len(buf))}
	}
	start := int32(0)
	for v := range vals {
		vals[v].start, start = start, start+vals[v].len
	}
	keys := make([]span, len(tuples))
	filled := make([]int32, len(vals))
	for i, v := range valOf {
		keys[vals[v].start+filled[v]] = keyOf[i]
		filled[v]++
	}
	bytesOf := func(s span) []byte { return buf[s.off:s.end] }
	slices.SortFunc(vals, func(a, b value) int { return bytes.Compare(bytesOf(a.enc), bytesOf(b.enc)) })
	st.vals = make([]valEntry, 0, len(vals))
	for _, v := range vals {
		ks := keys[v.start : v.start+v.len]
		slices.SortFunc(ks, func(a, b span) int { return bytes.Compare(bytesOf(a), bytesOf(b)) })
		ks = slices.CompactFunc(ks, func(a, b span) bool { return bytes.Equal(bytesOf(a), bytesOf(b)) })
		route := append(prefix(d.id), bytesOf(v.enc)...)
		e := valEntry{key: string(bytesOf(v.enc)), val: tuples[v.row][d.attrPos]}
		for _, piece := range pieces(len(ks)) {
			part := ks[piece[0]:piece[1]]
			size := 0
			for _, k := range part {
				size += int(k.end - k.off)
			}
			posting := make([]byte, 0, size)
			for _, k := range part {
				posting = append(posting, bytesOf(k)...)
			}
			f := frag{n: len(part)}
			if piece[0] > 0 {
				f.fence = string(bytesOf(part[0]))
			}
			m.cluster.PutRouted(route, fragKey(route, f.fence), posting)
			e.frags = append(e.frags, f)
		}
		n += len(ks)
		st.Entries++
		st.resize(0, len(ks))
		st.vals = append(st.vals, e)
	}
	return n
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

// Drop removes the index and all of its postings from the store.
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.defs[name]
	if !ok {
		return fmt.Errorf("index: unknown index %q", name)
	}
	var doomed [][]byte
	m.cluster.Scan(prefix(d.id), func(k, _ []byte) bool {
		doomed = append(doomed, append([]byte{}, k...))
		return true
	})
	for _, k := range doomed {
		m.cluster.Delete(k)
	}
	m.cluster.Delete(catalogKey(name))
	delete(m.defs, name)
	delete(m.byAttr, attrKey(d.Rel, d.Attr))
	delete(m.stats, name)
	m.pendMu.Lock()
	if pend := m.pending[d.Rel]; pend != nil {
		for id, pf := range pend {
			if pf.idx == name {
				delete(pend, id)
			}
		}
		if len(pend) == 0 {
			delete(m.pending, d.Rel)
		}
	}
	m.pendMu.Unlock()
	return nil
}

// insertPosting splices an encoded block key into a sorted posting list,
// reporting whether it was added (false: already present): commit staging's
// counterpart of backfill's sort.
func insertPosting(lst [][]byte, pk []byte) ([][]byte, bool) {
	at := sort.Search(len(lst), func(i int) bool { return bytes.Compare(lst[i], pk) >= 0 })
	if at < len(lst) && bytes.Equal(lst[at], pk) {
		return lst, false
	}
	lst = append(lst, nil)
	copy(lst[at+1:], lst[at:])
	lst[at] = pk
	return lst, true
}

// removePosting splices an encoded block key out of a sorted posting list,
// reporting whether it was present.
func removePosting(lst [][]byte, pk []byte) ([][]byte, bool) {
	at := sort.Search(len(lst), func(i int) bool { return bytes.Compare(lst[i], pk) >= 0 })
	if at >= len(lst) || !bytes.Equal(lst[at], pk) {
		return lst, false
	}
	return append(lst[:at], lst[at+1:]...), true
}

// Lookup returns the block keys posted under value v in the named index, in
// encoded key order, along with the number of get invocations issued:
// LookupManyT for one value, untraced. A value with no posting returns no
// keys.
func (m *Manager) Lookup(name string, v relation.Value) ([]relation.Tuple, int, error) {
	outs, gets, err := m.LookupManyT(nil, name, []relation.Value{v})
	if err != nil {
		return nil, gets, err
	}
	return outs[0], gets, nil
}

// LookupManyT resolves the postings of several values of one index in a
// single batched cluster round: the directory names each value's fragments
// (one, the posting key itself, for a value it does not hold), and their
// gets are grouped by owning node and issued as one GetManyRouted — one
// emulated round trip and one lock acquisition per node — instead of one
// routed get per fragment. The gets count into the trace's kv counters (nil
// untraced) and each decoded posting list, however many fragments it
// spans, into its posting-read counter. outs aligns with vs (nil for a
// value with no posting); gets reports the point lookups issued, one per
// fragment.
func (m *Manager) LookupManyT(t *obs.Trace, name string, vs []relation.Value) (outs [][]relation.Tuple, gets int, err error) {
	if len(vs) == 0 {
		return nil, 0, nil
	}
	m.mu.RLock()
	d, ok := m.defs[name]
	if !ok {
		m.mu.RUnlock()
		return nil, 0, fmt.Errorf("index: unknown index %q", name)
	}
	st := m.stats[name]
	reqs := make([]kv.GetRequest, 0, len(vs))
	// Value i's fragments end at reqs[ends[i]]; ends stays nil while every
	// value has one.
	var ends []int
	for i, v := range vs {
		route := postingKey(d.id, v)
		if at, ok := st.find(route); ok {
			frags := st.vals[at].frags
			if len(frags) > 1 && ends == nil {
				ends = make([]int, len(vs))
				for j := range i {
					ends[j] = j + 1
				}
			}
			for _, f := range frags {
				reqs = append(reqs, kv.GetRequest{Route: route, Key: fragKey(route, f.fence)})
			}
		} else {
			reqs = append(reqs, kv.GetRequest{Route: route, Key: route})
		}
		if ends != nil {
			ends[i] = len(reqs)
		}
	}
	m.mu.RUnlock()
	res := m.cluster.GetManyRouted(t.KVCounters(), reqs)
	if t != nil {
		// Span annotation: how the batch's posting gets spread over the
		// storage nodes (the batch pays one round trip per non-empty slot).
		perNode := make([]int64, m.cluster.NodeCount())
		for _, r := range reqs {
			perNode[m.cluster.NodeFor(r.Route)]++
		}
		t.AnnotateNodes(perNode)
	}
	width := len(d.Key)
	outs = make([][]relation.Tuple, len(vs))
	start := 0
	for i := range vs {
		end := i + 1
		if ends != nil {
			end = ends[i]
		}
		read := false
		for j := start; j < end; j++ {
			if !res[j].OK {
				continue
			}
			read = true
			// The next stored fragment owns the keys from its fence up: a
			// split leaves copies of them here until reclamation.
			var next []byte
			for k := j + 1; k < end; k++ {
				if res[k].OK {
					next = reqs[k].Key[len(reqs[k].Route):]
					break
				}
			}
			b := res[j].Value
			for off := 0; off < len(b); {
				tup, n, err := relation.DecodeTuple(b[off:], width)
				if err != nil {
					return nil, len(reqs), fmt.Errorf("index: %s: corrupt posting: %v", name, err)
				}
				if next != nil && bytes.Compare(b[off:off+n], next) >= 0 {
					break
				}
				outs[i] = append(outs[i], tup)
				off += n
			}
		}
		if read {
			t.CountPostings(1)
		}
		start = end
	}
	return outs, len(reqs), nil
}

// Range returns the postings of every indexed value within the bounds, as
// parallel slices: vals[i] is the indexed value that posted block key
// keys[i]. A nil lo (hi) leaves that side unbounded; loIncl/hiIncl select
// closed or open ends. It is RangeLimitT untraced and unbounded.
func (m *Manager) Range(name string, lo, hi *relation.Value, loIncl, hiIncl bool) (vals []relation.Value, keys []relation.Tuple, scanned int, err error) {
	return m.RangeLimitT(nil, name, lo, hi, loIncl, hiIncl, -1)
}

// RangeLimitT returns the first limit postings, in (value, block key)
// order, of every indexed value within the bounds (see Range); a negative
// limit is unbounded, a zero limit returns nothing. Scan steps count into
// the trace's kv counters (nil untraced) and each decoded posting list into
// its posting-read counter; scanned reports the posting lists visited.
//
// Postings are stored in encoded (memcmp) value order, so the read is one
// ordered cluster walk bounded to the index prefix with encoded-value
// fences — the engines seek to lo and stop past hi's last fragment,
// visiting only the posting lists the range matches, never the whole
// posting space. The fences and the open-bound exclusion compare the value
// part of a fragment's key. The walk is the ordered gather over the scatter
// pipeline (kv.RangeMergeT): one ordered stream per storage node,
// recombined by popping the smallest stream head — each posting key lives
// on exactly one node and per-node streams ascend, so that IS the global
// walk, while every node's seek round trip and engine walk overlaps the
// others. Block-key dedup happens at the merge point in global (value,
// block key) order, so the kept posting of a block key listed under several
// in-range values is the same whatever the node count or shard layout. The
// value encoding is prefix-free, so per-key merge order equals the (value,
// block key) concatenated encoded order and no post-sort is needed.
//
// The merge is streaming and a bound LIMIT k costs O(k) scan steps per
// node, not O(range): each node stops after the fragment that brings it to
// limit entries — its walk is ordered, so no later fragment on it can
// displace an already-collected entry from the global first limit. A
// fragment with a shrink pending may still hold copies a split handed on;
// the node reads on to the next fragment, which owns them.
func (m *Manager) RangeLimitT(t *obs.Trace, name string, lo, hi *relation.Value, loIncl, hiIncl bool, limit int) (vals []relation.Value, keys []relation.Tuple, scanned int, err error) {
	m.mu.RLock()
	d, ok := m.defs[name]
	m.mu.RUnlock()
	if !ok {
		return nil, nil, 0, fmt.Errorf("index: unknown index %q", name)
	}
	if limit == 0 {
		return nil, nil, 0, nil
	}
	pfx := prefix(d.id)
	var loKey, hiKey, hiFence []byte
	if lo != nil {
		loKey = postingKey(d.id, *lo)
	}
	if hi != nil {
		// hi's later fragments extend its posting key with an encoded block
		// key, whose kind tag sorts below 0xFF.
		hiFence = append(postingKey(d.id, *hi), 0xFF)
		hiKey = hiFence[:len(hiFence)-1]
	}
	width := len(d.Key)

	// Open bounds: the fences are inclusive at the byte level, so an
	// excluded endpoint shows up as its fragments and is skipped. The value
	// encoding is prefix-free: only the endpoint's own keys extend it.
	excluded := func(k []byte) bool {
		return (!loIncl && loKey != nil && bytes.HasPrefix(k, loKey)) ||
			(!hiIncl && hiKey != nil && bytes.HasPrefix(k, hiKey))
	}

	type entry struct {
		val relation.Value
		key relation.Tuple
	}
	seen := make(map[string]bool)
	nodes := m.cluster.NodeCount()
	// Per-node posting-list counts are taken at the merge point (the global
	// walk the consumer actually processed), so they are as deterministic as
	// scanned itself.
	perNode := make([]int64, nodes)
	// The walk's state, in one variable the closures below share. held is
	// the fragment the walk has read but not yet consumed: the next pair
	// decides how far it reaches. A value's fragments arrive together, and
	// a later one owns the keys from its fence up, which a split leaves
	// behind in the older one until reclamation.
	var w struct {
		entries []entry
		scanned int
		err     error
		full    bool
		held    struct {
			k, v  []byte
			val   relation.Value
			vend  int // k[:vend] is the value's posting key
			node  int
			first bool // the value's first fragment in the walk
			ok    bool
		}
	}
	// consume takes the held fragment's keys below next (all of them for
	// nil) in global key order; entries come out already globally ordered.
	// Returns false to stop the walk — mid-fragment once the limit is
	// reached: later keys are larger in the global order, so none can
	// belong to the answer, and they are never cut, looked up or decoded.
	consume := func(next []byte) bool {
		h := &w.held
		if h.first {
			w.scanned++
			perNode[h.node]++
		}
		err := eachPosting(h.v, width, func(pk []byte) bool {
			if next != nil && bytes.Compare(pk, next) >= 0 {
				return false
			}
			if seen[string(pk)] {
				return true
			}
			seen[string(pk)] = true
			tup, _, err := relation.DecodeTuple(pk, width)
			if err != nil {
				w.err = fmt.Errorf("index: %s: corrupt posting: %v", name, err)
				return false
			}
			w.entries = append(w.entries, entry{val: h.val, key: tup})
			w.full = limit >= 0 && len(w.entries) >= limit
			return !w.full
		})
		if err != nil {
			w.err = fmt.Errorf("index: %s: %v", name, err)
		}
		return w.err == nil && !w.full
	}
	process := func(node int, k, v []byte) bool {
		if excluded(k) {
			return true
		}
		val, n, err := relation.DecodeValue(k[len(pfx):])
		if err != nil {
			w.err = fmt.Errorf("index: %s: corrupt posting key: %v", name, err)
			return false
		}
		h := &w.held
		vend := len(pfx) + n
		same := h.ok && bytes.Equal(k[:vend], h.k[:h.vend])
		if h.ok {
			var next []byte
			if same {
				next = k[vend:]
			}
			if !consume(next) {
				return false
			}
		}
		h.k, h.v, h.val, h.vend, h.node = k, v, val, vend, node
		h.first, h.ok = !same, true
		return true
	}

	// Producer-side LIMIT cut: a node stops after yielding limit entries
	// net of its own duplicates. Sound: an entry that survives the global
	// dedup survives its node's self-dedup too, so anything in the global
	// first limit sits within the first limit self-deduped entries of its
	// node — the cut keeps every candidate while holding each node's scan
	// cost at O(limit), not O(range), deterministically (not subject to
	// cancellation timing).
	var cut func(node int, k, v []byte) bool
	if limit > 0 {
		shrinking := m.shrinking(d)
		counts := make([]int, nodes)
		seenNode := make([]map[string]bool, nodes)
		for i := range seenNode {
			seenNode[i] = make(map[string]bool)
		}
		cut = func(node int, k, v []byte) bool {
			if excluded(k) {
				return true
			}
			// Walked as far as the node's limit and no further. A fragment
			// that does not cut cleanly stops the node here; the merge
			// surfaces the error when it gets to it. A fragment with a
			// shrink pending may hold a split's copies of keys the merge
			// takes from the next fragment, so the node reads on to it.
			err := eachPosting(v, width, func(pk []byte) bool {
				if !seenNode[node][string(pk)] {
					seenNode[node][string(pk)] = true
					counts[node]++
				}
				return counts[node] < limit
			})
			return err == nil && (counts[node] < limit || shrinking[string(k)])
		}
	}
	m.cluster.RangeMergeT(t.KVCounters(), pfx, loKey, hiFence, cut, process)
	if w.held.ok && w.err == nil && !w.full {
		consume(nil)
	}
	t.AnnotateNodes(perNode)
	if w.err != nil {
		return nil, nil, w.scanned, w.err
	}
	t.CountPostings(w.scanned)
	vals = make([]relation.Value, len(w.entries))
	keys = make([]relation.Tuple, len(w.entries))
	for i, e := range w.entries {
		vals[i] = e.val
		keys[i] = e.key
	}
	return vals, keys, w.scanned, nil
}

// shrinking returns the pair keys of d's fragments with a removal pending,
// nil when there are none.
func (m *Manager) shrinking(d *Def) map[string]bool {
	m.pendMu.Lock()
	defer m.pendMu.Unlock()
	var out map[string]bool
	for _, pf := range m.pending[d.Rel] {
		if pf.idx == d.Name && len(pf.pks) > 0 {
			if out == nil {
				out = make(map[string]bool)
			}
			out[string(fragKey(pf.route, pf.fence))] = true
		}
	}
	return out
}

// IndexOn reports the index covering rel(attr): its name and the block-key
// attributes its postings hold. It implements the planner's catalog
// interface (core.IndexCatalog).
func (m *Manager) IndexOn(rel, attr string) (string, []string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	name, ok := m.byAttr[attrKey(rel, attr)]
	if !ok {
		return "", nil, false
	}
	return name, append([]string{}, m.defs[name].Key...), true
}

// AvgPostings estimates the posting-list length of one lookup against the
// named index — the planner's analogue of a block-degree statistic.
func (m *Manager) AvgPostings(name string) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st, ok := m.stats[name]
	if !ok || st.Entries == 0 {
		return 1
	}
	n := st.Postings / st.Entries
	if n < 1 {
		n = 1
	}
	return n
}

// Shape returns the entry and posting counts of the named index — the
// planner's statistics for range-selectivity estimates (range fraction ×
// average posting). It implements core.IndexCatalog.
func (m *Manager) Shape(name string) (entries, postings int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if st, ok := m.stats[name]; ok {
		return st.Entries, st.Postings
	}
	return 0, 0
}

// ValueBounds returns the smallest and largest value currently indexed by
// the named index — the per-index min/max statistic the planner uses to
// tighten range-selectivity estimates for literal bounds. It implements
// core.IndexCatalog; ok is false for unknown or empty indexes.
func (m *Manager) ValueBounds(name string) (lo, hi relation.Value, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st, found := m.stats[name]
	if !found {
		return relation.Value{}, relation.Value{}, false
	}
	return st.ValueBounds()
}

// MaxPostings returns the longest posting list of the named index; the
// boundedness check compares it against the degree bound.
func (m *Manager) MaxPostings(name string) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if st, ok := m.stats[name]; ok {
		return st.MaxPosting
	}
	return 0
}

// StatsOf snapshots the named index's statistics. The snapshot detaches the
// internal histogram and value list, which later maintenance keeps mutating.
func (m *Manager) StatsOf(name string) (Stats, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st, ok := m.stats[name]
	if !ok {
		return Stats{}, false
	}
	out := *st
	out.lens = nil
	out.vals = append([]valEntry{}, st.vals...)
	for i := range out.vals {
		out.vals[i].frags = nil
	}
	return out, true
}

// DefOf returns a copy of the named index's definition.
func (m *Manager) DefOf(name string) (Def, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.defs[name]
	if !ok {
		return Def{}, false
	}
	out := *d
	out.Key = append([]string{}, d.Key...)
	out.keyPos = append([]int{}, d.keyPos...)
	return out, true
}

// Names lists the defined indexes, sorted.
func (m *Manager) Names() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.defs))
	for n := range m.defs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Load rebuilds the catalog from the store: definitions come from the
// catalog pairs, statistics from a scan of each index's postings. It lets a
// fresh Manager over an existing cluster recover the indexes a previous one
// created.
func (m *Manager) Load(rels map[string]*relation.Schema) error {
	type rec struct {
		d *Def
	}
	var recs []rec
	var scanErr error
	m.cluster.Scan(prefix(catalogID), func(_, v []byte) bool {
		d, err := decodeCatalog(v)
		if err != nil {
			scanErr = err
			return false
		}
		recs = append(recs, rec{d: d})
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range recs {
		d := r.d
		schema, ok := rels[d.Rel]
		if !ok {
			return fmt.Errorf("index: catalog references unknown relation %q", d.Rel)
		}
		id := d.id
		if err := resolve(d, schema); err != nil {
			return err
		}
		d.id = id
		st := &Stats{}
		width := len(d.Key)
		pfx := prefix(d.id)
		// A node walks a value's fragments together and in fence order.
		m.cluster.Scan(pfx, func(k, v []byte) bool {
			n := 0
			if err := eachPosting(v, width, func([]byte) bool { n++; return true }); err != nil {
				scanErr = err
				return false
			}
			val, vn, err := relation.DecodeValue(k[len(pfx):])
			if err != nil {
				scanErr = err
				return false
			}
			key, fence := string(k[len(pfx):len(pfx)+vn]), string(k[len(pfx)+vn:])
			if last := len(st.vals) - 1; last >= 0 && st.vals[last].key == key {
				st.vals[last].frags = append(st.vals[last].frags, frag{fence: fence, n: n})
			} else {
				st.vals = append(st.vals, valEntry{key: key, val: val, frags: []frag{{fence: fence, n: n}}})
			}
			return true
		})
		if scanErr != nil {
			return scanErr
		}
		slices.SortFunc(st.vals, func(a, b valEntry) int { return strings.Compare(a.key, b.key) })
		for _, e := range st.vals {
			st.Entries++
			st.resize(0, e.length())
		}
		m.defs[d.Name] = d
		m.byAttr[attrKey(d.Rel, d.Attr)] = d.Name
		m.stats[d.Name] = st
		if d.id >= m.nextID {
			m.nextID = d.id + 1
		}
	}
	return nil
}

// eachPosting cuts a posting payload into its encoded block keys one at a
// time, handing each to fn until fn returns false; what follows the last
// key fn took is not looked at.
func eachPosting(b []byte, width int, fn func(pk []byte) bool) error {
	for off := 0; off < len(b); {
		n, err := relation.SkipTuple(b[off:], width)
		if err != nil {
			return err
		}
		if !fn(b[off : off+n]) {
			return nil
		}
		off += n
	}
	return nil
}

// splitPostings cuts a posting payload into all of its encoded block keys.
func splitPostings(b []byte, width int) ([][]byte, error) {
	var out [][]byte
	err := eachPosting(b, width, func(pk []byte) bool {
		out = append(out, pk)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// joinPostings concatenates encoded block keys into one posting payload.
func joinPostings(lst [][]byte) []byte {
	n := 0
	for _, p := range lst {
		n += len(p)
	}
	out := make([]byte, 0, n)
	for _, p := range lst {
		out = append(out, p...)
	}
	return out
}

// encodeCatalog renders a definition as a catalog value: rel, attr, id,
// then the block-key attributes.
func encodeCatalog(d *Def) []byte {
	t := relation.Tuple{
		relation.String(d.Rel),
		relation.String(d.Attr),
		relation.Int(int64(d.id)),
	}
	for _, k := range d.Key {
		t = append(t, relation.String(k))
	}
	return relation.AppendTuple(relation.EncodeTuple(relation.Tuple{relation.String(d.Name)}), t)
}

// decodeCatalog parses a catalog value.
func decodeCatalog(b []byte) (*Def, error) {
	t, err := relation.DecodeAll(b)
	if err != nil {
		return nil, fmt.Errorf("index: corrupt catalog entry: %v", err)
	}
	if len(t) < 4 {
		return nil, fmt.Errorf("index: short catalog entry")
	}
	d := &Def{Name: t[0].Str, Rel: t[1].Str, Attr: t[2].Str, id: uint32(t[3].Int)}
	for _, v := range t[4:] {
		d.Key = append(d.Key, v.Str)
	}
	return d, nil
}
