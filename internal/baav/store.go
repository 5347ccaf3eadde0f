package baav

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/relation"
)

// Options configure a BaaV store.
type Options struct {
	// SegmentThreshold is the maximum number of stored tuples per physical
	// block segment (Section 8.2's size threshold, expressed in tuples).
	SegmentThreshold int
	// Compress stores distinct value tuples with multiplicity counters.
	Compress bool
	// Stats attaches min/max/sum statistics to every block.
	Stats bool
}

// DefaultOptions mirror the paper's implementation defaults.
func DefaultOptions() Options {
	return Options{SegmentThreshold: 4096, Compress: true, Stats: true}
}

// Store is a BaaV store ~D: the KV instances of a BaaV schema, physically
// held in a kv.Cluster. Keyed blocks are encoded as single KV values; blocks
// larger than the segment threshold split into segments that logically
// appear as one block.
type Store struct {
	Schema  *Schema
	Cluster *kv.Cluster
	Rels    map[string]*relation.Schema
	Opts    Options

	// Index serves secondary-index reads — Lookup, and the IndexRange
	// leaf's walk — at the view's snapshot: the view's Indexes. A plan's
	// equality lookup is a ∝ over the index (FetchBlocksT).
	Index SecondaryIndex
	ix    *indexState

	ids   map[string]uint32 // KV schema name -> physical id
	kvRel map[string]string // KV schema name -> source relation

	// statsMu guards the bookkeeping maps below. The kv cluster already
	// synchronizes the stored pairs; this lock covers the store-level
	// statistics so maintenance on one relation can run concurrently with
	// planners and executors reading degrees, block counts, and row counts
	// for any relation (the maps are shared even when the keys are not).
	// A pointer so snapshot views (shallow Store copies) share the lock.
	statsMu *sync.RWMutex
	degrees map[string]int // KV schema name -> max distinct block size seen
	blocks  map[string]int // KV schema name -> number of keyed blocks
	relRows map[string]int // relation name -> tuple count

	// mvcc is the shared version directory and per-relation commit state;
	// snap, when set, pins this view's reads to a snapshot (see AtSnapshot).
	mvcc *mvccState
	snap *Snapshot
}

// NewStore creates an empty BaaV store for the schema on the cluster.
func NewStore(schema *Schema, rels map[string]*relation.Schema, cluster *kv.Cluster, opts Options) *Store {
	if opts.SegmentThreshold <= 0 {
		opts.SegmentThreshold = DefaultOptions().SegmentThreshold
	}
	st := &Store{
		Schema:  schema,
		Cluster: cluster,
		Rels:    rels,
		Opts:    opts,
		ids:     make(map[string]uint32),
		kvRel:   make(map[string]string),
		statsMu: &sync.RWMutex{},
		degrees: make(map[string]int),
		blocks:  make(map[string]int),
		relRows: make(map[string]int),
		mvcc:    newMVCCState(),
		ix:      &indexState{byName: make(map[string]*posting)},
	}
	st.Index = Indexes{st}
	names := schema.Names()
	for i, n := range names {
		st.ids[n] = uint32(i + 1)
		st.kvRel[n] = schema.ByName(n).Rel
	}
	return st
}

// Map builds the BaaV store of db on the schema (the mapping of Section
// 4.1): for every KV schema, project the source relation onto X ∪ Y and
// group by X. The instances share nothing but the cluster's nodes, so they
// load concurrently: min(GOMAXPROCS, instances) loaders, one on the calling
// goroutine, take the instances largest first (rows × value width), each
// one whole. Map checks every KV schema against db before any loader starts
// and returns once every loader has finished.
func Map(db *relation.Database, schema *Schema, cluster *kv.Cluster, opts Options) (*Store, error) {
	st := NewStore(schema, RelSchemas(db), cluster, opts)
	jobs, err := st.loadJobs(db)
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(jobs, func(a, b loadJob) int { return cmp.Compare(b.size(), a.size()) })
	var next atomic.Int64
	run := func() {
		ld := newLoader()
		for j := next.Add(1) - 1; j < int64(len(jobs)); j = next.Add(1) - 1 {
			ld.load(st, &jobs[j])
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(jobs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	return st, nil
}

// loadJob is one KV instance to load: the schema, its relation's rows, and
// the positions of its key and value attributes in them.
type loadJob struct {
	kv             KVSchema
	rows           []relation.Tuple
	keyPos, valPos []int
}

// size is the job's rows × value width, by which Map orders the jobs.
func (j *loadJob) size() int { return len(j.rows) * len(j.valPos) }

// loadJobs checks every KV schema of the store against db and returns the
// instances to load, in schema order, recording each source relation's row
// count.
func (st *Store) loadJobs(db *relation.Database) ([]loadJob, error) {
	jobs := make([]loadJob, 0, len(st.Schema.KVs))
	for _, kvSchema := range st.Schema.KVs {
		rel := db.Relation(kvSchema.Rel)
		if rel == nil {
			return nil, fmt.Errorf("baav: relation %q missing from database", kvSchema.Rel)
		}
		st.relRows[kvSchema.Rel] = rel.Cardinality()
		keyPos, err := rel.Schema.Positions(kvSchema.Key)
		if err != nil {
			return nil, err
		}
		valPos, err := rel.Schema.Positions(kvSchema.Val)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, loadJob{kv: kvSchema, rows: rel.Tuples, keyPos: keyPos, valPos: valPos})
	}
	return jobs, nil
}

// loader builds KV instances, one at a time, in buffers it reuses from one
// block and one instance to the next, so that what a block allocates is the
// encoded bytes the store keeps. It groups the rows by block: a group is
// its block prefix, in a slab of prefixes a kv.Table indexes, and a chain
// of row numbers through next. It then sorts the groups by prefix and loads
// them in that order, each block a scratch Block over one value slab, and
// hands the segments to the cluster loadBatch at a time through
// Cluster.ApplyBatch, which pays each node one emulated round and one lock
// acquisition per batch. Map runs a loader per core; a loader itself is for
// one goroutine.
type loader struct {
	seed   maphash.Seed
	table  kv.Table
	keys   []byte      // the groups' block prefixes back to back
	groups []loadGroup // group id → its prefix and row chain
	next   []int32     // row → the next row of its group, -1 after the last
	blk    Block
	vals   []relation.Value // the values of blk's tuples
	counts []int64          // blk's multiplicities, kept whether or not blk carries them
	set    tupleSet         // finds blk's tuple equal to the next one
	enc    segEncoder
	ops    []kv.BatchOp // the segment puts not yet handed to the cluster
	opKeys []byte       // their keys back to back
	hashes []uint64     // the instance's one-segment blocks, for its load filter
}

// loadBatch is the most segment puts a loader hands the cluster at once.
const loadBatch = 256

// newLoader returns a loader.
func newLoader() loader {
	seed := maphash.MakeSeed()
	return loader{seed: seed, set: tupleSet{seed: seed}, ops: make([]kv.BatchOp, 0, loadBatch)}
}

// loadGroup is one block of the instance being loaded: its prefix,
// keys[off:off+n], and the first and last rows of its chain.
type loadGroup struct {
	off, n      int32
	first, last int32
}

func (ld *loader) prefix(gr loadGroup) []byte { return ld.keys[gr.off : gr.off+gr.n] }

// load writes the job's instance.
func (ld *loader) load(st *Store, job *loadJob) {
	name := job.kv.Name
	ld.group(st.ids[name], job.rows, job.keyPos)
	slices.SortFunc(ld.groups, func(a, b loadGroup) int { return bytes.Compare(ld.prefix(a), ld.prefix(b)) })
	degree := 0
	for _, gr := range ld.groups {
		blk := ld.block(job.rows, gr.first, job.valPos, st.Opts.Compress)
		ld.write(st, job.kv, st.Opts, ld.prefix(gr), blk, 0)
		degree = max(degree, blk.Distinct())
	}
	ld.loaded(st, name, 0)
	st.statsMu.Lock()
	st.blocks[name] += len(ld.groups)
	st.degrees[name] = max(st.degrees[name], degree)
	st.statsMu.Unlock()
}

// group chains rows into groups by their block prefix: schema id id, then
// the encoded key attributes at keyPos. Rows chain in relation order.
func (ld *loader) group(id uint32, rows []relation.Tuple, keyPos []int) {
	ld.table.Reset()
	ld.keys, ld.groups = ld.keys[:0], ld.groups[:0]
	ld.next = slices.Grow(ld.next[:0], len(rows))[:len(rows)]
	for r, t := range rows {
		off := len(ld.keys)
		ld.keys = binary.BigEndian.AppendUint32(ld.keys, id)
		for _, p := range keyPos {
			ld.keys = relation.AppendValue(ld.keys, t[p])
		}
		prefix := ld.keys[off:]
		tag := uint32(maphash.Bytes(ld.seed, prefix))
		slot, g := int(tag), int32(-1)
		for ; ; slot++ {
			if slot, g = ld.table.Probe(slot, tag); g < 0 || bytes.Equal(ld.prefix(ld.groups[g]), prefix) {
				break
			}
		}
		ld.next[r] = -1
		if g >= 0 {
			ld.keys = ld.keys[:off]
			ld.next[ld.groups[g].last] = int32(r)
			ld.groups[g].last = int32(r)
			continue
		}
		g = int32(len(ld.groups))
		ld.groups = append(ld.groups, loadGroup{off: int32(off), n: int32(len(prefix)), first: int32(r), last: int32(r)})
		ld.table.Add(slot, tag, g)
	}
}

// block fills the scratch block with the rows chained from first, projected
// onto valPos, as Block.Add would: with compress, a tuple equal to one
// already stored raises its multiplicity instead, and the block carries
// multiplicities once any tuple has two.
func (ld *loader) block(rows []relation.Tuple, first int32, valPos []int, compress bool) *Block {
	ld.blk.Tuples, ld.vals, ld.counts = ld.blk.Tuples[:0], ld.vals[:0], ld.counts[:0]
	ld.set.reset()
	counted := false
	for r := first; r >= 0; r = ld.next[r] {
		lo := len(ld.vals)
		for _, p := range valPos {
			ld.vals = append(ld.vals, rows[r][p])
		}
		t := relation.Tuple(ld.vals[lo:len(ld.vals):len(ld.vals)])
		if compress {
			if i := ld.set.index(&ld.blk, t); i >= 0 {
				ld.counts[i]++
				counted = true
				ld.vals = ld.vals[:lo]
				continue
			}
		}
		ld.blk.Tuples = append(ld.blk.Tuples, t)
		ld.counts = append(ld.counts, 1)
	}
	ld.blk.Counts = nil
	if counted {
		ld.blk.Counts = ld.counts
	}
	return &ld.blk
}

// blockPrefix is the physical key prefix of one logical block: schema id
// followed by the encoded key tuple.
func (st *Store) blockPrefix(id uint32, key relation.Tuple) []byte {
	out := make([]byte, 4, 4+16*len(key))
	binary.BigEndian.PutUint32(out, id)
	return relation.AppendTuple(out, key)
}

// Physical segment keys are version-suffixed; see verSegKey in mvcc.go.

// instancePrefix is the physical key prefix of a whole KV instance.
func (st *Store) instancePrefix(id uint32) []byte {
	out := make([]byte, 4)
	binary.BigEndian.PutUint32(out, id)
	return out
}

// GetBlock retrieves the keyed block under key in the named KV instance,
// reassembling segments: GetBlocksT for a batch of one key, untraced. It
// returns nil when no block exists. gets reports the number of get
// invocations issued.
func (st *Store) GetBlock(name string, key relation.Tuple) (blk *Block, stats *BlockStats, gets int, err error) {
	blks, statss, gets, err := st.GetBlocksT(nil, name, []relation.Tuple{key})
	if err != nil {
		return nil, nil, gets, err
	}
	return blks[0], statss[0], gets, nil
}

// GetBlocksT is FetchBlocksT taking every column and the blocks' stats
// headers; statss aligns with keys like blks (a posting list has none).
func (st *Store) GetBlocksT(kvt *obs.KV, name string, keys []relation.Tuple) (blks []*Block, statss []*BlockStats, gets int, err error) {
	if len(keys) > 0 {
		statss = make([]*BlockStats, len(keys))
	}
	blks, _, gets, err = st.FetchBlocksT(kvt, name, keys, nil, statss)
	if err != nil {
		return nil, nil, gets, err
	}
	return blks, statss, gets, nil
}

// FetchBlocksT retrieves several keyed blocks of one KV instance in a single
// batched cluster round and decodes them, counting into the kv trace sink
// (nil untraced). It is a KeyBatch read with no deduplication — every key
// reads its own block, as often as it is listed — whose blocks are decoded
// here, into one arena, on the calling goroutine. The ∝ reads through a
// KeyBatch instead, and its workers decode the blocks (KeyBatch.Decode).
//
// cols lists, ascending, the value positions the caller reads: the blocks'
// tuples hold those values only, in that order, and the rest of each tuple
// is stepped over undecoded. nil reads every column. statss, when non-nil,
// has a slot per key and receives the blocks' stats headers; a caller that
// passes nil takes no stats and none are built. blks and sizes align with
// keys: blks[i] is nil where no block is visible, sizes[i] the accounting
// size of the whole block as fetched — full width, multiplicities applied —
// so what a fetch is reported to cost does not depend on cols. gets is the
// number of get invocations issued (see KeyBatch.ReadT). The blocks share
// one arena (see blockArena): each is the caller's to modify, and an append
// to one cannot reach another.
//
// name may be a secondary index, the KV schema R⟨A, K⟩: a key is one value
// and its block the value's posting list, with no stats header.
func (st *Store) FetchBlocksT(kvt *obs.KV, name string, keys []relation.Tuple, cols []int, statss []*BlockStats) (blks []*Block, sizes []int64, gets int, err error) {
	if len(keys) == 0 {
		return nil, nil, 0, nil
	}
	kb, err := st.NewKeyBatch(name, len(keys))
	if err != nil {
		return nil, nil, 0, err
	}
	for _, key := range keys {
		if kb.post != nil && len(key) != 1 {
			return nil, nil, 0, fmt.Errorf("index: %s is keyed by one value, got %v", name, key)
		}
		kb.push(kb.appendPrefix(key, nil))
	}
	if gets, err = kb.ReadT(kvt); err != nil {
		return nil, nil, gets, err
	}
	blks, sizes, err = kb.b.decode(cols, statss)
	return blks, sizes, gets, err
}

// KeyBatch is one batched read of blocks of a KV schema — an instance, or a
// secondary index as R⟨A, K⟩ — the read of the interleaved ∝: Add each input
// row's key, read every block in one round (ReadT), then decode each block
// where its rows are written (Decode). A key is encoded once, as its block
// prefix, into the batch's buffer, and deduplicated on those bytes; the
// blocks stay raw segment windows into the kv store until decoded.
type KeyBatch struct {
	st   *Store
	kv   *KVSchema // the instance, or the index as R⟨A, K⟩
	post *posting  // the index; nil for an instance
	id   uint32    // the schema's physical id
	n    int       // the keys expected, for sizing
	// table finds an added key by its block prefix, under the low 32 bits
	// of its hash.
	table kv.Table
	// b holds the keys' block prefixes and, for an instance, a read per
	// key; ReadT replaces an index's value reads with its fragments'.
	b blockBatch
}

// NewKeyBatch starts a batched read of blocks of the KV schema name, sized
// for n keys.
func (st *Store) NewKeyBatch(name string, n int) (*KeyBatch, error) {
	kb := &KeyBatch{st: st, n: n}
	if s := st.Schema.ByName(name); s != nil {
		kb.kv, kb.id = s, st.ids[name]
	} else if p, err := st.Indexes().posting(name); err == nil {
		kb.kv, kb.post, kb.id = &p.kv, p, p.id
	} else {
		return nil, fmt.Errorf("baav: unknown KV schema %q", name)
	}
	kb.b.reads = make([]blockRead, 0, n)
	return kb, nil
}

// Add adds the key of row — its values at cols, the KV schema's key
// attributes — and returns the key's number in the batch: a new one, with
// fresh set, or the number an equal key got when it was added first. Keys
// are numbered in the order they are first added.
func (kb *KeyBatch) Add(row relation.Tuple, cols []int) (k int32, fresh bool) {
	b := &kb.b
	pre := kb.appendPrefix(row, cols)
	prefix := b.buf[pre:]
	if len(b.reads) == 0 {
		kb.table.Reserve(kb.n)
	}
	tag := uint32(maphash.Bytes(kb.st.mvcc.seed, prefix))
	slot := int(tag)
	for ; ; slot++ {
		if slot, k = kb.table.Probe(slot, tag); k < 0 {
			break
		}
		if bytes.Equal(b.prefix(&b.reads[k]), prefix) {
			b.buf = b.buf[:pre]
			return k, false
		}
	}
	k = kb.push(pre)
	kb.table.Add(slot, tag, k)
	return k, true
}

// appendPrefix encodes onto the buffer the block prefix of the key made of
// row's values at cols (nil: the whole row) and returns where it starts.
// The first key sizes the buffer for the batch, prefixes and segment keys,
// as if every key were as long.
func (kb *KeyBatch) appendPrefix(row relation.Tuple, cols []int) int {
	b := &kb.b
	if b.buf == nil {
		n := 4
		if cols == nil {
			n += relation.EncodedLen(row)
		}
		for _, c := range cols {
			n += relation.EncodedLen(row[c : c+1])
		}
		b.buf = make([]byte, 0, kb.n*(2*n+16))
	}
	pre := len(b.buf)
	b.buf = binary.BigEndian.AppendUint32(b.buf, kb.id)
	if cols == nil {
		b.buf = relation.AppendTuple(b.buf, row)
	} else {
		for _, c := range cols {
			b.buf = relation.AppendValue(b.buf, row[c])
		}
	}
	return pre
}

// push adds a read of the block whose prefix starts the buffer at pre and
// returns its key's number.
func (kb *KeyBatch) push(pre int) int32 {
	b := &kb.b
	b.reads = append(b.reads, blockRead{kv: kb.kv, pre: int32(pre), end: int32(len(b.buf))})
	return int32(len(b.reads) - 1)
}

// ReadT reads the batch's blocks in one cluster round, counting into the kv
// trace sink (nil untraced), and returns the number of get invocations
// issued. Every block's winning version at this view's snapshot sequence
// resolves in memory, then all their segments go out as one
// GetManyRouted — one emulated round trip and one lock acquisition per
// owning node however many blocks the round touches, and in the hash
// engine one overlapped lookup of each node's keys. A block that is absent
// or tombstoned at the snapshot still costs the one get (and round trip) of
// a physical miss: its probe rides the same batch. The absent probe's key
// cannot hit — a version at exactly the snapshot sequence would have been
// visible.
//
// Over an index, the directory first names each value's fragments (the
// first, for a value it does not hold), and every fragment of a value is
// routed by the value; a value's block is its visible fragments' keys, in
// key order, a fragment not visible costing the get of a miss.
//
// Nothing is decoded: the blocks stay windows into the store, each
// payload's stored-tuple count read from its header.
func (kb *KeyBatch) ReadT(kvt *obs.KV) (gets int, err error) {
	if len(kb.b.reads) == 0 {
		return 0, nil
	}
	if kb.post != nil {
		kb.fragments()
	}
	gets, err = kb.st.read(kvt, &kb.b, kb.st.snapSeqFor(kb.kv.Rel), true)
	if err != nil && kb.post != nil {
		err = fmt.Errorf("index: %s: %v", kb.kv.Name, err)
	}
	return gets, err
}

// fragments replaces each value's read with reads of the fragments the
// directory lists for it, and groups them by value in b.ends.
func (kb *KeyBatch) fragments() {
	b, p := &kb.b, kb.post
	vals := b.reads
	b.reads, b.ends = make([]blockRead, 0, len(vals)), make([]int32, len(vals))
	kb.st.ix.mu.RLock()
	for i, r := range vals {
		vkey := b.buf[r.pre+4 : r.end]
		if at, ok := p.find(vkey); ok {
			for _, f := range p.vals[at].frags {
				addFrag(b, p, vkey, f.fence)
			}
		} else {
			addFrag(b, p, vkey, p.fence0)
		}
		b.ends[i] = int32(len(b.reads))
	}
	kb.st.ix.mu.RUnlock()
}

// Hits returns how many of the batch's keys have a visible block; valid
// after ReadT.
func (kb *KeyBatch) Hits() int {
	n := 0
	for k := range kb.b.keys() {
		if kb.b.visible(k) {
			n++
		}
	}
	return n
}

// Tuples returns how many tuples key k's block stores — distinct ones, each
// counted once whatever its multiplicity — read from its payload headers
// alone: 0 when no block is visible. Valid after ReadT.
func (kb *KeyBatch) Tuples(k int32) int { return kb.b.tuples(int(k)) }

// BlockBuf is one worker's block of a KeyBatch, decoded into buffers the
// next decode reuses: they grow to the largest block it holds and then stop
// allocating. It remembers which block it holds, so a run of rows reading
// one block decodes it once.
type BlockBuf struct {
	kb   *KeyBatch
	k    int32
	hit  bool // key k has a visible block, out
	size int64
	out  Block
	a    blockArena
	segs [][]byte
}

// Decode returns key k's block — nil when none is visible — decoded into
// buf, keeping the value positions in cols (ascending; nil keeps all) with
// its multiplicities, and its accounting size (see FetchBlocksT). The block
// is valid until buf decodes another; a Decode of the block buf holds
// returns it as it is, so one buf takes one cols per batch. Valid after
// ReadT; several workers may Decode from one batch at once, each into its
// own buf.
func (kb *KeyBatch) Decode(k int32, cols []int, buf *BlockBuf) (*Block, int64, error) {
	if buf.kb != kb || buf.k != k {
		buf.kb, buf.hit = nil, false
		if buf.segs = kb.b.segs(buf.segs[:0], int(k)); len(buf.segs) > 0 {
			n, keep := kb.Tuples(k), len(kb.kv.Val)
			if cols != nil {
				keep = len(cols)
			}
			buf.a.reset(n, n*keep)
			_, size, err := buf.a.decode(&buf.out, buf.segs, len(kb.kv.Val), cols, false)
			if err != nil {
				return nil, 0, err
			}
			buf.hit, buf.size = true, size
		}
		buf.kb, buf.k = kb, k
	}
	if !buf.hit {
		return nil, 0, nil
	}
	return &buf.out, buf.size, nil
}

// blockBatch is one batched block read: every block's prefix, then every
// segment key, in one byte buffer, per block what the version directory
// resolved for it, and after the read its answers. The batch reads blocks
// for keys: each read is a key's, unless ends groups the reads — an index
// value's fragments — by key.
type blockBatch struct {
	buf   []byte
	reads []blockRead
	// ends, when set, marks where each key's reads end: key k's are
	// reads[ends[k-1]:ends[k]].
	ends []int32
	// res is the round's answers: read r's are res[r.req:][:r.gets].
	res []kv.GetResult
}

// blockRead is one block of a batch.
type blockRead struct {
	kv       *KVSchema // the block's KV schema
	pre, end int32     // the block prefix is buf[pre:end]
	// win is the version that wins at the batch's sequence; nsegs 0 when no
	// block is visible, and then ver is the version a reader probes: the
	// winning tombstone's, or the sequence itself for a block with no
	// version at or below it. loaded marks a win presumed because the
	// directory does not list the block: its load version, in one segment,
	// which a miss shows absent (see instVersions).
	win    verEntry
	loaded bool
	// counted marks a block whose segments carry multiplicities.
	counted bool
	// req is the block's first get in the round and gets how many it has:
	// a segment each, or the one probe of a block not visible.
	req, gets int32
	// tuples is how many tuples the block's segments store, read from
	// their payload headers: 0 for a block not visible.
	tuples int32
}

// prefix returns read r's block prefix, capped.
func (b *blockBatch) prefix(r *blockRead) []byte { return b.buf[r.pre:r.end:r.end] }

// keys returns the number of keys the batch reads blocks for.
func (b *blockBatch) keys() int {
	if b.ends != nil {
		return len(b.ends)
	}
	return len(b.reads)
}

// span returns key k's reads, reads[from:to].
func (b *blockBatch) span(k int) (from, to int) {
	if b.ends == nil {
		return k, k + 1
	}
	if k > 0 {
		from = int(b.ends[k-1])
	}
	return from, int(b.ends[k])
}

// visible reports whether key k has a block visible: a visible read.
func (b *blockBatch) visible(k int) bool {
	from, to := b.span(k)
	for _, r := range b.reads[from:to] {
		if r.win.nsegs > 0 {
			return true
		}
	}
	return false
}

// tuples returns how many tuples key k's block stores, from its reads'
// payload headers.
func (b *blockBatch) tuples(k int) int {
	n := 0
	from, to := b.span(k)
	for _, r := range b.reads[from:to] {
		n += int(r.tuples)
	}
	return n
}

// segs appends to dst the segment payloads of key k's visible reads, in
// order: its block's, or an index value's fragments'.
func (b *blockBatch) segs(dst [][]byte, k int) [][]byte {
	from, to := b.span(k)
	for _, r := range b.reads[from:to] {
		for _, g := range b.res[r.req : int(r.req)+r.win.nsegs] {
			dst = append(dst, g.Value)
		}
	}
	return dst
}

// read is the first half of a batched read: it resolves the batch's blocks
// at seq in the version directory and issues their segment gets — and,
// with probe, a get for every block not visible — in one cluster round.
// After it, a visible block r's segment payloads are
// res[r.req:r.req+r.win.nsegs], the first stepped past its segment-count
// header, r.tuples counts their stored tuples and r.counted says whether
// any carries multiplicities; a block not visible has nsegs 0. It returns
// the number of gets issued.
func (st *Store) read(kvt *obs.KV, b *blockBatch, seq uint64, probe bool) (gets int, err error) {
	st.mvcc.resolve(b, seq, probe)
	nreq, keyBytes := 0, 0
	for i := range b.reads {
		r := &b.reads[i]
		r.req, r.gets, r.tuples, r.counted = int32(nreq), int32(r.win.nsegs), 0, false
		if r.gets == 0 && probe {
			r.gets = 1
		}
		nreq += int(r.gets)
		keyBytes += int(r.gets) * int(r.end-r.pre+12)
	}
	b.buf = slices.Grow(b.buf, keyBytes)
	reqs := make([]kv.GetRequest, 0, nreq)
	for i := range b.reads {
		r := &b.reads[i]
		for seg := range r.gets {
			lo := len(b.buf)
			b.buf = appendSegKey(b.buf, b.buf[r.pre:r.end], uint32(seg), r.win.ver)
			reqs = append(reqs, kv.GetRequest{Route: route(b.prefix(r)), Key: b.buf[lo:len(b.buf):len(b.buf)]})
		}
	}
	b.res = st.Cluster.GetManyRouted(kvt, reqs)
	for i := range b.reads {
		r := &b.reads[i]
		// A block presumed as loaded whose one segment is not there does
		// not exist.
		if r.loaded && !b.res[r.req].OK {
			r.win.nsegs = 0
		}
		segs := b.res[r.req : int(r.req)+r.win.nsegs]
		for s, g := range segs {
			if !g.OK {
				return len(reqs), fmt.Errorf("baav: missing segment %d of block in %s", s, r.kv.Name)
			}
		}
		if len(segs) == 0 {
			continue
		}
		if segs[0].Value, err = segHeader(segs[0].Value, len(segs)); err != nil {
			return len(reqs), err
		}
		for _, g := range segs {
			n, counted, err := payloadTuples(g.Value, len(r.kv.Val))
			if err != nil {
				return len(reqs), err
			}
			r.tuples += int32(n)
			r.counted = r.counted || counted
		}
	}
	return len(reqs), nil
}

// decode is the second half of a batched read for callers that keep the
// blocks: it decodes every key's visible segments into one arena. cols,
// statss and the results are FetchBlocksT's, aligned with the batch's keys.
func (b *blockBatch) decode(cols []int, statss []*BlockStats) (blks []*Block, sizes []int64, err error) {
	nkeys := b.keys()
	blks, sizes = make([]*Block, nkeys), make([]int64, nkeys)
	// Size the arena from what read counted, then decode.
	var a blockArena
	for _, r := range b.reads {
		keep := len(r.kv.Val)
		if cols != nil {
			keep = len(cols)
		}
		a.ntuples += int(r.tuples)
		a.nvals += int(r.tuples) * keep
		a.counted = a.counted || r.counted
	}
	hits := 0
	for k := range nkeys {
		if b.visible(k) {
			hits++
		}
	}
	if hits == 0 {
		return blks, sizes, nil
	}
	a.alloc()
	var segs [][]byte
	blocks := make([]Block, hits)
	for k := range nkeys {
		if segs = b.segs(segs[:0], k); len(segs) == 0 {
			continue
		}
		blk := &blocks[0]
		blocks = blocks[1:]
		from, _ := b.span(k)
		stats, size, err := a.decode(blk, segs, len(b.reads[from].kv.Val), cols, statss != nil)
		if err != nil {
			return nil, nil, err
		}
		blks[k], sizes[k] = blk, size
		if statss != nil {
			statss[k] = stats
		}
	}
	return blks, sizes, nil
}

// fetch reads the batch's blocks at seq (see read) and decodes them into one
// arena, whole, aligned with its reads: the commit's pre-image reads and an
// index range's fragments.
func (st *Store) fetch(kvt *obs.KV, b *blockBatch, seq uint64, probe bool) ([]*Block, error) {
	if _, err := st.read(kvt, b, seq, probe); err != nil {
		return nil, err
	}
	blks, _, err := b.decode(nil, nil)
	return blks, err
}

// write writes blk, encoded under opts, as version ver of the block under
// prefix, bypassing the commit machinery: nothing reads an instance while
// Map loads it or a backfill writes it, and one loader writes all of it.
// The block is encoded through the loader's encoder, whose buffers the next
// block reuses; the one copy of its segments goes to the loader's pending
// puts, which reach the cluster a batch at a time, each routed by the part
// of its key that route picks out of prefix. A block of one segment is as
// loaded, which its hash records for the instance's load filter; only a
// longer one enters the directory, which copies its prefix.
func (ld *loader) write(st *Store, kvSchema KVSchema, opts Options, prefix []byte, blk *Block, ver uint64) {
	enc := &ld.enc
	enc.encode(blk, len(kvSchema.Val), opts)
	enc.segments(func(seg uint32, value []byte) {
		if len(ld.ops) == loadBatch {
			ld.flush(st)
		}
		off := len(ld.opKeys)
		ld.opKeys = appendSegKey(ld.opKeys, prefix, seg, ver)
		key := ld.opKeys[off:len(ld.opKeys):len(ld.opKeys)]
		ld.ops = append(ld.ops, kv.BatchOp{Route: key[:len(route(prefix))], Key: key, Value: value})
	})
	if len(enc.ends) == 1 {
		ld.hashes = append(ld.hashes, maphash.Bytes(st.mvcc.seed, prefix))
		return
	}
	m := st.mvcc
	m.mu.Lock()
	m.add(kvSchema.Name, prefix, verEntry{ver: ver, nsegs: len(enc.ends)}, true)
	m.mu.Unlock()
}

// loaded hands the cluster the instance's pending puts and records the
// instance as loaded at version ver: its load version and filter, and its
// one-segment blocks live.
func (ld *loader) loaded(st *Store, kvName string, ver uint64) {
	ld.flush(st)
	m := st.mvcc
	m.mu.Lock()
	in := m.inst(kvName)
	in.load, in.loaded = ver, newLoadFilter(ld.hashes)
	in.live += int64(len(ld.hashes))
	m.mu.Unlock()
	m.live.Add(int64(len(ld.hashes)))
	ld.hashes = ld.hashes[:0]
}

// flush hands the cluster the pending puts. A key that opKeys outgrew
// still reads from the slab it was written to; the engines copy keys.
func (ld *loader) flush(st *Store) {
	st.Cluster.ApplyBatch(nil, ld.ops)
	ld.ops, ld.opKeys = ld.ops[:0], ld.opKeys[:0]
}

// UpdateBlock replaces the block under key in the named KV instance with
// what fn makes of it, as a single-block commit on the owning relation: fn
// receives the block at the installed sequence (nil when absent), which it
// may modify, and returns the new block (nil or empty deletes it). The
// read costs a get whether or not the block exists; the new version is
// written and installed, and unreachable versions are reclaimed.
func (st *Store) UpdateBlock(name string, key relation.Tuple, fn func(*Block) *Block) error {
	kvSchema := st.Schema.ByName(name)
	if kvSchema == nil {
		return fmt.Errorf("baav: unknown KV schema %q", name)
	}
	c, err := st.BeginCommit(kvSchema.Rel)
	if err != nil {
		return err
	}
	defer c.Close()
	edits, err := c.stage(nil, []blockRef{{kv: *kvSchema, prefix: st.blockPrefix(st.ids[name], key)}}, true)
	if err != nil {
		return err
	}
	e := edits[0]
	e.blk, e.dirty = fn(e.blk), true
	st.Cluster.ApplyBatch(nil, c.Ops())
	c.Install()
	c.Reclaim(nil)
	return nil
}

// ScanInstance visits every keyed block of the named KV instance until fn
// returns false: whole nodes in node order, key order within each node.
// Segment reassembly is transparent. Every column is decoded and the stats
// header built.
func (st *Store) ScanInstance(name string, fn func(key relation.Tuple, blk *Block, stats *BlockStats) bool) error {
	return st.scanBlocks(name, st.Cluster.Scan, nil, true, func(key relation.Tuple, blk *Block, stats *BlockStats, _ int64) bool {
		return fn(key, blk, stats)
	})
}

// ScanInstanceNodeT visits the keyed blocks of the instance held by one
// storage node, counting into the kv trace sink (nil untraced). Blocks are
// colocated by key (segments route on the block prefix), so per-node scans
// see whole blocks; parallel scan drivers split work across nodes with it.
// cols and size are FetchBlocksT's: the tuples hold the value positions in
// cols only (nil: all), size is the whole block's accounting size. No stats
// header is built.
func (st *Store) ScanInstanceNodeT(kvt *obs.KV, node int, name string, cols []int, fn func(key relation.Tuple, blk *Block, size int64) bool) error {
	return st.scanBlocks(name, func(prefix []byte, visit func(k, v []byte) bool) {
		st.Cluster.ScanNodeT(kvt, node, prefix, visit)
	}, cols, false, func(key relation.Tuple, blk *Block, _ *BlockStats, size int64) bool {
		return fn(key, blk, size)
	})
}

// scanBlocks decodes each winning block version of a raw kv scan.
func (st *Store) scanBlocks(name string, scan func(prefix []byte, visit func(k, v []byte) bool), cols []int, wantStats bool,
	fn func(key relation.Tuple, blk *Block, stats *BlockStats, size int64) bool) error {
	return st.scanWinners(name, scan, func(keyWidth, width int, enc []byte, segs [][]byte) (bool, error) {
		key, _, err := relation.DecodeTuple(enc, keyWidth)
		if err != nil {
			return false, err
		}
		blk, stats, size, err := assembleSegs(segs, width, cols, wantStats)
		if err != nil {
			return false, err
		}
		return fn(key, blk, stats, size), nil
	})
}

// HeaderBlock is one block as ScanStatsT walks it. The walk reuses it, and
// every slice in it, for the next block: the attribute slices grow once to
// the instance's width.
type HeaderBlock struct {
	// Key is the block key's order-preserving encoding: the key attributes'
	// values, none of them decoded.
	Key []byte
	// Stats is the block's statistics, merged over its segments: each
	// segment's header, or a one-tuple segment's tuple (see the block
	// layout); nil when a segment carries none.
	Stats *BlockStats

	segs         [][]byte
	width        int
	stats, other BlockStats
}

// Decode decodes the block's tuples, every column: for a reader the header
// cannot answer.
func (h *HeaderBlock) Decode() (*Block, error) {
	blk, _, _, err := decodeSegs(h.segs, h.width, nil, false)
	return blk, err
}

// ScanStatsT visits the statistics header of every block of the instance,
// decoding neither its key nor its tuples, and counting into the kv trace
// sink. Like the block scans it resolves each block's winning version at
// this view's snapshot sequence and visits a segmented block once, its
// segments' headers merged. It walks the nodes one after another on the
// caller's goroutine (kv.Cluster.ScanT), so fn runs under a node's read
// lock and must not issue store operations.
func (st *Store) ScanStatsT(kvt *obs.KV, name string, fn func(h *HeaderBlock) bool) error {
	scan := func(prefix []byte, visit func(k, v []byte) bool) { st.Cluster.ScanT(kvt, prefix, visit) }
	var h HeaderBlock
	return st.scanWinners(name, scan, func(_, width int, enc []byte, segs [][]byte) (bool, error) {
		if err := stripSegHeader(segs); err != nil {
			return false, err
		}
		h.Key, h.Stats, h.segs, h.width = enc, &h.stats, segs, width
		for i, payload := range segs {
			into := &h.stats
			if i > 0 {
				into = &h.other
			}
			ok, err := readStats(payload, width, into)
			if err != nil {
				return false, err
			}
			if !ok {
				h.Stats = nil
			} else if i > 0 {
				h.stats.Merge(into)
			}
		}
		return fn(&h), nil
	})
}

// scanWinners drives a raw kv scan over the instance's prefix and hands
// visit, block by block, the encoded block key and the segment payloads of
// the version that wins at this view's snapshot sequence (segs[0] still
// carries the segment-count header; the key and the slice are reused
// between calls), along with the instance's key and value widths.
// versionWalk picks the winner; segments of any other version, and versions
// newer than the snapshot (including in-flight uninstalled commits), are
// skipped. A winning tombstone yields nothing — the block is deleted at this
// snapshot. visit returning false stops the scan at the block boundary.
func (st *Store) scanWinners(name string, scan func(prefix []byte, visit func(k, v []byte) bool),
	visit func(keyWidth, width int, key []byte, segs [][]byte) (bool, error)) error {
	kvSchema := st.Schema.ByName(name)
	if kvSchema == nil {
		return fmt.Errorf("baav: unknown KV schema %q", name)
	}
	width := len(kvSchema.Val)
	keyWidth := len(kvSchema.Key)
	seqLimit := st.snapSeqFor(kvSchema.Rel)

	var w versionWalk
	var segs [][]byte
	var scanErr error

	flush := func() bool {
		if len(segs) == 0 {
			return true
		}
		ok, err := visit(keyWidth, width, w.block[4:], segs)
		segs = segs[:0]
		scanErr = err
		return ok && err == nil
	}

	scan(st.instancePrefix(st.ids[name]), func(k, v []byte) bool {
		n, err := relation.SkipTuple(k[4:], keyWidth)
		if err != nil {
			scanErr = err
			return false
		}
		if len(k) < 4+n+12 {
			scanErr = errCorruptBlock
			return false
		}
		// A new block completes the one in segs; visit reads its key from
		// the walk, so flush before the walk moves.
		if k = k[:4+n+12]; !w.in(k) && !flush() {
			return false
		}
		if !w.wins(k, seqLimit) {
			return true
		}
		if binary.BigEndian.Uint32(k[4+n:]) != 0 {
			if len(segs) > 0 {
				segs = append(segs, v) // a later segment of the winner
			}
			return true
		}
		nsegs, hk := binary.Uvarint(v)
		if hk <= 0 {
			scanErr = errCorruptBlock
			return false
		}
		if nsegs == 0 {
			return true // tombstone: deleted at this snapshot
		}
		segs = append(segs, v)
		return true
	})
	if scanErr == nil {
		flush()
	}
	return scanErr
}

// versionWalk picks, from an ordered walk over an instance's physical
// keys, the version of each block that wins at a sequence. A block's keys
// arrive together in (segment, newest-version-first) order, so the first
// segment-0 key at or below the sequence is the winning version, and its
// later segments are the keys of the same version.
type versionWalk struct {
	block []byte
	ver   uint64
	found bool
}

// in reports whether k, a block prefix followed by its segment and
// inverted version, is a key of the block the walk is in.
func (w *versionWalk) in(k []byte) bool { return bytes.Equal(k[:len(k)-12], w.block) }

// wins moves the walk to k and reports whether k is a segment of its
// block's winning version at seq.
func (w *versionWalk) wins(k []byte, seq uint64) bool {
	if !w.in(k) {
		w.block, w.found = append(w.block[:0], k[:len(k)-12]...), false
	}
	ver := ^binary.BigEndian.Uint64(k[len(k)-8:])
	if binary.BigEndian.Uint32(k[len(k)-12:]) != 0 {
		return w.found && ver == w.ver
	}
	if w.found || ver > seq {
		return false // older than the winner, or not yet visible
	}
	w.found, w.ver = true, ver
	return true
}

// InstanceBlocks returns the number of keyed blocks in the named KV
// instance — the planner's cost statistic for scan-vs-probe decisions.
func (st *Store) InstanceBlocks(name string) int {
	st.statsMu.RLock()
	defer st.statsMu.RUnlock()
	return st.blocks[name]
}

// InstanceBytes returns the physical payload size of one KV instance
// (keys + encoded block segments), by scanning its prefix.
func (st *Store) InstanceBytes(name string) (int64, error) {
	id, ok := st.ids[name]
	if !ok {
		return 0, fmt.Errorf("baav: unknown KV schema %q", name)
	}
	var total int64
	st.Cluster.Scan(st.instancePrefix(id), func(k, v []byte) bool {
		total += int64(len(k) + len(v))
		return true
	})
	return total, nil
}

// RelationRows returns the tuple count of a base relation as loaded and
// maintained — the planner's cardinality statistic.
func (st *Store) RelationRows(rel string) int {
	st.statsMu.RLock()
	defer st.statsMu.RUnlock()
	return st.relRows[rel]
}

// HasBlockStats reports whether blocks carry statistics headers, enabling
// the planner's aggregate pushdown (Section 8.2's statistics feature).
func (st *Store) HasBlockStats() bool { return st.Opts.Stats }

// Degree returns the largest distinct block size observed for the named KV
// instance (deg(~D) of Section 4.1) — for a secondary index, its longest
// posting list — and the BaaV instances' maximum when name is empty.
func (st *Store) Degree(name string) int {
	if name != "" && st.Schema.ByName(name) == nil {
		s, _ := st.Indexes().Stats(name)
		return s.MaxPosting
	}
	st.statsMu.RLock()
	defer st.statsMu.RUnlock()
	if name != "" {
		return st.degrees[name]
	}
	max := 0
	for _, d := range st.degrees {
		if d > max {
			max = d
		}
	}
	return max
}

// KVSchema returns the KV schema named name: one of the BaaV schema's, or a
// secondary index as R⟨A, K⟩; nil when there is none.
func (st *Store) KVSchema(name string) *KVSchema {
	if s := st.Schema.ByName(name); s != nil {
		return s
	}
	return st.Indexes().KVSchema(name)
}

// ComputeDegree scans the instance and returns the exact maximum block size.
func (st *Store) ComputeDegree(name string) (int, error) {
	max := 0
	err := st.ScanInstance(name, func(_ relation.Tuple, blk *Block, _ *BlockStats) bool {
		if d := blk.Distinct(); d > max {
			max = d
		}
		return true
	})
	if err == nil {
		st.statsMu.Lock()
		st.degrees[name] = max
		st.statsMu.Unlock()
	}
	return max, err
}

// Relational reconstructs the relational version of one KV instance: the
// flattening of Section 4.1. Attribute order is key attributes then value
// attributes.
func (st *Store) Relational(name string) (*relation.Relation, error) {
	kvSchema := st.Schema.ByName(name)
	if kvSchema == nil {
		return nil, fmt.Errorf("baav: unknown KV schema %q", name)
	}
	relSchema := st.Rels[kvSchema.Rel]
	attrs := make([]relation.Attr, 0, len(kvSchema.Key)+len(kvSchema.Val))
	for _, a := range kvSchema.Attrs() {
		attrs = append(attrs, relation.Attr{Name: a, Kind: relSchema.Attrs[relSchema.Index(a)].Kind})
	}
	out := relation.NewRelation(relation.MustSchema(name, attrs, nil))
	err := st.ScanInstance(name, func(key relation.Tuple, blk *Block, _ *BlockStats) bool {
		for _, v := range blk.Expand() {
			out.MustInsert(key.Concat(v))
		}
		return true
	})
	return out, err
}
