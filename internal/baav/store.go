package baav

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

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

	// Index serves secondary-index lookups for IndexLookup and IndexRange
	// plan leaves: the view's Indexes, reading at its snapshot.
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
// group by X. One loader builds every instance.
func Map(db *relation.Database, schema *Schema, cluster *kv.Cluster, opts Options) (*Store, error) {
	st := NewStore(schema, RelSchemas(db), cluster, opts)
	ld := loader{seed: maphash.MakeSeed()}
	for _, kvSchema := range schema.KVs {
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
		ld.load(st, kvSchema, rel.Tuples, keyPos, valPos)
	}
	return st, nil
}

// loader builds the KV instances of Map, one at a time, in buffers it
// reuses from one block and one instance to the next, so that what a block
// allocates is the encoded bytes the store keeps. It groups the rows by
// block: a group is its block prefix, in a slab of prefixes a kv.Table
// indexes, and a chain of row numbers through next. It then sorts the
// groups by prefix and loads them in that order, each block a scratch Block
// over one value slab.
type loader struct {
	seed   maphash.Seed
	table  kv.Table
	keys   []byte      // the groups' block prefixes back to back
	groups []loadGroup // group id → its prefix and row chain
	next   []int32     // row → the next row of its group, -1 after the last
	blk    Block
	vals   []relation.Value // the values of blk's tuples
	counts []int64          // blk's multiplicities, kept whether or not blk carries them
	enc    segEncoder
}

// loadGroup is one block of the instance being loaded: its prefix,
// keys[off:off+n], and the first and last rows of its chain.
type loadGroup struct {
	off, n      int32
	first, last int32
}

func (ld *loader) prefix(gr loadGroup) []byte { return ld.keys[gr.off : gr.off+gr.n] }

// load writes kvSchema's instance of rows: each row's key attributes at
// keyPos, its value attributes at valPos.
func (ld *loader) load(st *Store, kvSchema KVSchema, rows []relation.Tuple, keyPos, valPos []int) {
	ld.group(st.ids[kvSchema.Name], rows, keyPos)
	slices.SortFunc(ld.groups, func(a, b loadGroup) int { return bytes.Compare(ld.prefix(a), ld.prefix(b)) })
	degree := 0
	for _, gr := range ld.groups {
		blk := ld.block(rows, gr.first, valPos, st.Opts.Compress)
		st.loadBlock(&ld.enc, kvSchema, st.Opts, ld.prefix(gr), blk, 0)
		degree = max(degree, blk.Distinct())
	}
	st.statsMu.Lock()
	st.blocks[kvSchema.Name] += len(ld.groups)
	st.degrees[kvSchema.Name] = max(st.degrees[kvSchema.Name], degree)
	st.statsMu.Unlock()
}

// group chains rows into groups by their block prefix: schema id id, then
// the encoded key attributes at keyPos. Rows chain in relation order.
func (ld *loader) group(id uint32, rows []relation.Tuple, keyPos []int) {
	ld.table = kv.Table{}
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
	counted := false
	for r := first; r >= 0; r = ld.next[r] {
		lo := len(ld.vals)
		for _, p := range valPos {
			ld.vals = append(ld.vals, rows[r][p])
		}
		t := relation.Tuple(ld.vals[lo:len(ld.vals):len(ld.vals)])
		if compress {
			if i := ld.blk.index(t); i >= 0 {
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
// headers; statss aligns with keys like blks.
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
// batched cluster round, counting into the kv trace sink (nil untraced).
// The read resolves against this view's snapshot sequence: every block's
// winning version resolves in memory, then all their segments go out as one
// GetManyRouted — one emulated round trip and one lock acquisition per
// owning node however many blocks the round touches. A block that is absent
// or tombstoned at the snapshot still costs the one get (and round trip) of
// a physical miss: its probe rides the same batch. The absent probe's key
// cannot hit — a version at exactly the snapshot sequence would have been
// visible.
//
// cols lists, ascending, the value positions the caller reads: the blocks'
// tuples hold those values only, in that order, and the rest of each tuple
// is stepped over undecoded. nil reads every column. statss, when non-nil,
// has a slot per key and receives the blocks' stats headers; a caller that
// passes nil takes no stats and none are built. blks and sizes align with
// keys: blks[i] is nil where no block is visible, sizes[i] the accounting
// size of the whole block as fetched — full width, multiplicities applied —
// so what a fetch is reported to cost does not depend on cols. gets is the
// number of get invocations issued. The blocks share one arena (see
// blockArena): each is the caller's to modify, and an append to one cannot
// reach another.
func (st *Store) FetchBlocksT(kvt *obs.KV, name string, keys []relation.Tuple, cols []int, statss []*BlockStats) (blks []*Block, sizes []int64, gets int, err error) {
	if len(keys) == 0 {
		return nil, nil, 0, nil
	}
	kvSchema := st.Schema.ByName(name)
	if kvSchema == nil {
		return nil, nil, 0, fmt.Errorf("baav: unknown KV schema %q", name)
	}
	id := st.ids[name]
	// The prefixes, then (see fetch) one segment key per block — a prefix
	// and 12 bytes — in one buffer sized for both.
	size := 0
	for _, key := range keys {
		size += 2*(4+relation.EncodedLen(key)) + 12
	}
	b := blockBatch{buf: make([]byte, 0, size), reads: make([]blockRead, len(keys))}
	for i, key := range keys {
		b.reads[i] = b.add(name, len(kvSchema.Val), id, key)
	}
	return st.fetch(kvt, &b, st.snapSeqFor(kvSchema.Rel), true, cols, statss)
}

// blockBatch is one batched block read: every block's prefix, then every
// segment key, in one byte buffer, and per block what the version
// directory resolved for it.
type blockBatch struct {
	buf   []byte
	reads []blockRead
}

// blockRead is one block of a batch.
type blockRead struct {
	kv       string // KV schema name
	width    int    // its value width
	pre, end int    // the block prefix is buf[pre:end]
	// win is the version that wins at the batch's sequence; nsegs 0 when no
	// block is visible, and then ver is the version a reader probes: the
	// winning tombstone's, or the sequence itself for a block with no
	// version at or below it.
	win verEntry
	// req is the block's first get in the round and gets how many it has:
	// a segment each, or the one probe of a block not visible.
	req, gets int
}

// add encodes the prefix of key's block in instance kv (schema id id, value
// width width) onto the buffer and returns its read.
func (b *blockBatch) add(kv string, width int, id uint32, key relation.Tuple) blockRead {
	pre := len(b.buf)
	b.buf = binary.BigEndian.AppendUint32(b.buf, id)
	b.buf = relation.AppendTuple(b.buf, key)
	return blockRead{kv: kv, width: width, pre: pre, end: len(b.buf)}
}

// prefix returns read r's block prefix, capped.
func (b *blockBatch) prefix(r *blockRead) []byte { return b.buf[r.pre:r.end:r.end] }

// fetch resolves the batch's blocks at seq in the version directory, issues
// their segment gets — and, with probe, a get for every block not visible —
// in one cluster round, and decodes what it read into one arena. cols,
// statss and the results are FetchBlocksT's, aligned with b.reads.
func (st *Store) fetch(kvt *obs.KV, b *blockBatch, seq uint64, probe bool, cols []int, statss []*BlockStats) (blks []*Block, sizes []int64, gets int, err error) {
	st.mvcc.resolve(b, seq)
	nreq, keyBytes, hits := 0, 0, 0
	for i := range b.reads {
		r := &b.reads[i]
		r.req, r.gets = nreq, r.win.nsegs
		if r.gets > 0 {
			hits++
		} else if probe {
			r.gets = 1
		}
		nreq += r.gets
		keyBytes += r.gets * (r.end - r.pre + 12)
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
	res := st.Cluster.GetManyRouted(kvt, reqs)
	gets = len(reqs)
	blks = make([]*Block, len(b.reads))
	sizes = make([]int64, len(b.reads))
	if hits == 0 {
		return blks, sizes, gets, nil
	}
	// Check every block's segments and size the arena, then decode.
	segs := make([][]byte, len(res))
	var a blockArena
	for i := range b.reads {
		r := &b.reads[i]
		if r.win.nsegs == 0 {
			continue
		}
		mine := segs[r.req : r.req+r.win.nsegs]
		for s, g := range res[r.req : r.req+r.win.nsegs] {
			if !g.OK {
				return nil, nil, gets, fmt.Errorf("baav: missing segment %d of block in %s", s, r.kv)
			}
			mine[s] = g.Value
		}
		if err := stripSegHeader(mine); err != nil {
			return nil, nil, gets, err
		}
		if err := a.count(mine, r.width, cols); err != nil {
			return nil, nil, gets, err
		}
	}
	a.alloc()
	blocks := make([]Block, hits)
	for i := range b.reads {
		r := &b.reads[i]
		if r.win.nsegs == 0 {
			continue
		}
		blk := &blocks[0]
		blocks = blocks[1:]
		stats, size, err := a.decode(blk, segs[r.req:r.req+r.win.nsegs], r.width, cols, statss != nil)
		if err != nil {
			return nil, nil, gets, err
		}
		blks[i], sizes[i] = blk, size
		if statss != nil {
			statss[i] = stats
		}
	}
	return blks, sizes, gets, nil
}

// loadBlock writes blk, encoded under opts, as version ver of the block
// under prefix, bypassing the commit machinery: Map's load is
// single-threaded and nothing can be reading yet, and an index backfill
// writes a new instance no plan reads yet. The block is encoded through
// enc, whose buffers the next block reuses; the one copy of its segments
// goes to the cluster, and the directory copies the prefix.
func (st *Store) loadBlock(enc *segEncoder, kvSchema KVSchema, opts Options, prefix []byte, blk *Block, ver uint64) {
	enc.encode(blk, len(kvSchema.Val), opts)
	enc.segments(func(seg uint32, value []byte) {
		enc.key = appendSegKey(enc.key[:0], prefix, seg, ver)
		st.Cluster.PutRouted(route(prefix), enc.key, value)
	})
	st.mvcc.addVersion(kvSchema.Name, prefix, verEntry{ver: ver, nsegs: len(enc.ends)})
}

// PutBlock stores a block under key in the named KV instance, replacing
// any existing block, as a single-block commit on the owning relation: a
// new version is written and installed, and unreachable versions are
// reclaimed.
func (st *Store) PutBlock(name string, key relation.Tuple, blk *Block) error {
	kvSchema := st.Schema.ByName(name)
	if kvSchema == nil {
		return fmt.Errorf("baav: unknown KV schema %q", name)
	}
	c, err := st.BeginCommit(kvSchema.Rel)
	if err != nil {
		return err
	}
	defer c.Close()
	c.stagePut(*kvSchema, key, blk)
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
// segments' headers merged.
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
// between calls), along with the instance's key and value widths. The
// physical key order within one block is (segment, newest-version-first),
// so the first segment-0 key at or below the snapshot sequence is the
// block's winning version; segments of any other version, and versions
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

	var curPrefix []byte // block whose versions are being resolved
	var winnerVer uint64
	haveWinner := false
	var segs [][]byte
	var scanErr error

	flush := func() bool {
		if len(segs) == 0 {
			return true
		}
		ok, err := visit(keyWidth, width, curPrefix[4:], segs)
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
		prefixLen := 4 + n
		seg := binary.BigEndian.Uint32(k[prefixLen:])
		ver := ^binary.BigEndian.Uint64(k[prefixLen+4:])
		if !bytes.Equal(curPrefix, k[:prefixLen]) {
			if !flush() {
				return false
			}
			curPrefix = append(curPrefix[:0], k[:prefixLen]...)
			haveWinner = false
		}
		if seg == 0 {
			if haveWinner || ver > seqLimit {
				return true // older than the winner, or not yet visible
			}
			haveWinner = true
			winnerVer = ver
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
		}
		if haveWinner && ver == winnerVer && len(segs) > 0 {
			segs = append(segs, v)
		}
		return true
	})
	if scanErr == nil {
		flush()
	}
	return scanErr
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
// instance (deg(~D) of Section 4.1), and the store-wide maximum when name
// is empty.
func (st *Store) Degree(name string) int {
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
