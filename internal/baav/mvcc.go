package baav

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/relation"
)

// MVCC blocks. Every block write is copy-on-write under a version-suffixed
// kv key: segment keys grow an 8-byte big-endian ^version suffix so the
// newest version of a segment sorts first within the block's key range. A
// relation's versions are governed by a monotonically increasing commit
// sequence; a commit writes all of its block versions under seq+1 and then
// installs them by bumping the sequence, so readers that pinned the
// sequence at statement start resolve every block read against a
// consistent snapshot without taking any relation lock. A block version
// with zero segments is a tombstone (payload: uvarint 0) marking the block
// deleted as of that sequence. Retired versions are reclaimed once the
// watermark — the oldest pinned snapshot sequence, or the current sequence
// when nothing is pinned — passes the sequence that retired them.

// verEntry is one materialized version of a block: its commit sequence and
// segment count (0 = tombstone). The version directory keeps point reads
// exact — a get resolves the winning version in memory and issues only real
// segment gets, never a scan.
type verEntry struct {
	ver   uint64
	nsegs int
}

// physSegs is the number of physical kv pairs a version occupies: a
// tombstone is one seg-0 pair carrying only the zero header.
func (e verEntry) physSegs() int {
	if e.nsegs < 1 {
		return 1
	}
	return e.nsegs
}

// retiredVer is a superseded block version awaiting reclamation: it may
// still be read by snapshots pinned below retireSeq.
type retiredVer struct {
	kvName    string
	prefix    string
	ver       uint64
	segs      int // physical segment pairs to delete
	retireSeq uint64
}

// tombRef is an installed tombstone that has not been superseded; once the
// watermark passes it and it is the block's sole remaining version, the
// tombstone itself (key and directory entry) is dropped.
type tombRef struct {
	kvName string
	prefix string
	ver    uint64
}

// dirAdd is a version a commit enters in the directory when it installs.
// loaded marks a block's as-loaded version, entered when a commit first
// supersedes it: it was materialized, and counted live, by the load.
type dirAdd struct {
	kvName string
	prefix []byte
	e      verEntry
	loaded bool
}

// relMVCC is the per-relation MVCC state.
type relMVCC struct {
	// commitMu serializes commits on the relation: exactly one commit
	// stages, applies, and installs at a time. Readers never take it.
	commitMu sync.Mutex

	// seq is the installed commit sequence: every version <= seq is fully
	// written and visible.
	seq atomic.Uint64

	pinMu sync.Mutex
	pins  map[uint64]int // pinned snapshot sequence -> pin count

	// retired and tombs are guarded by commitMu (only commits touch them).
	retired []retiredVer
	tombs   []tombRef
}

// watermark is the oldest sequence any active snapshot may read: versions
// retired at or below it are unreachable and safe to reclaim.
func (r *relMVCC) watermark() uint64 {
	r.pinMu.Lock()
	defer r.pinMu.Unlock()
	w := r.seq.Load()
	for s := range r.pins {
		if s < w {
			w = s
		}
	}
	return w
}

// instVersions is the version state of one KV instance. The instance's load
// writes its blocks as version load, and the version directory lists only
// what a commit wrote and the blocks loaded in more than one segment. So a
// block the directory does not list has exactly one version, load, stored
// in one segment — or it does not exist, and the get of its one segment
// misses. A commit that first supersedes such a block enters its load
// version as the older one; reclamation deletes a block's last versions
// before it drops the entry that lists them (see reclaimRel), or a reader
// would presume the deleted block as loaded.
type instVersions struct {
	load uint64
	// loaded holds the hashes of the blocks the load wrote in one segment.
	// A commit reads no pre-image, and an index range read no fragment, for
	// a block it rules out; the other readers do not consult it, and probe
	// every block the directory does not list.
	loaded loadFilter
	dir    *verDir // nil until a version enters it
	live   int64   // versions materialized: as loaded, plus those entered since
}

// mvccState is the store-wide MVCC bookkeeping, shared by every snapshot
// view of one Store. mu guards the instances' versions: one read lock per
// fetch batch, the exclusive lock for every change.
type mvccState struct {
	mu    sync.RWMutex
	insts map[string]*instVersions // kv name -> its versions
	rels  map[string]*relMVCC
	seed  maphash.Seed // hashes block prefixes into the load filters

	live      atomic.Int64 // block versions currently materialized
	reclaimed atomic.Int64 // block versions reclaimed over the store's lifetime
	sweptBg   atomic.Int64 // versions reclaimed by the background sweep alone

	// beforeReclaimDeletes, when set, runs where reclamation has dropped
	// its superseded versions from the directory and deleted nothing yet:
	// tests read the store there.
	beforeReclaimDeletes func()
}

func newMVCCState() *mvccState {
	return &mvccState{
		insts: make(map[string]*instVersions),
		rels:  make(map[string]*relMVCC),
		seed:  maphash.MakeSeed(),
	}
}

// rel returns the relation's MVCC state, creating it on first use.
func (m *mvccState) rel(name string) *relMVCC {
	m.mu.RLock()
	r := m.rels[name]
	m.mu.RUnlock()
	if r != nil {
		return r
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if r = m.rels[name]; r == nil {
		r = &relMVCC{pins: make(map[uint64]int)}
		m.rels[name] = r
	}
	return r
}

// inst returns the instance's versions, creating them on first use. The
// caller holds mu exclusively.
func (m *mvccState) inst(kvName string) *instVersions {
	in := m.insts[kvName]
	if in == nil {
		in = &instVersions{}
		m.insts[kvName] = in
	}
	return in
}

// listed returns the directory's newest version of a block visible at seq;
// ok is false when no version the directory lists is.
func (m *mvccState) listed(kvName string, prefix []byte, seq uint64) (verEntry, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if in := m.insts[kvName]; in != nil && in.dir != nil {
		e, _, ok := in.dir.winner(prefix, seq)
		return e, ok
	}
	return verEntry{}, false
}

// head returns a block's newest listed version and its number of listed
// versions.
func (m *mvccState) head(kvName string, prefix []byte) (verEntry, int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if in := m.insts[kvName]; in != nil && in.dir != nil {
		return in.dir.head(prefix)
	}
	return verEntry{}, 0
}

// resolve sets, under one read lock, every read's win to the version of its
// block that wins at seq (see blockRead.win): the directory's, or for a
// block it does not list the instance's load version, presumed. While an
// instance's directory lists nothing, as after its load, its table is not
// probed. Without probe — a commit reading its pre-images, an index range
// reading the fragments its directory lists — a block the load filter rules
// out resolves absent at once.
func (m *mvccState) resolve(b *blockBatch, seq uint64, probe bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var in *instVersions
	for i := range b.reads {
		r := &b.reads[i]
		if i == 0 || r.kv.Name != b.reads[i-1].kv.Name {
			in = m.insts[r.kv.Name]
		}
		prefix := b.buf[r.pre:r.end]
		r.win, r.loaded = verEntry{ver: seq}, false
		if in != nil && in.dir != nil && in.dir.entries() > 0 {
			if e, listed, visible := in.dir.winner(prefix, seq); visible {
				r.win = e
				continue
			} else if listed {
				continue
			}
		}
		load := uint64(0)
		if in != nil {
			load = in.load
		}
		if load > seq || !probe && (in == nil || !in.loaded.has(maphash.Bytes(m.seed, prefix))) {
			continue
		}
		r.win, r.loaded = verEntry{ver: load, nsegs: 1}, true
	}
}

// enter enters commit-written versions, each necessarily its block's
// newest, under one lock.
func (m *mvccState) enter(adds []dirAdd) {
	if len(adds) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range adds {
		m.add(a.kvName, a.prefix, a.e, !a.loaded)
	}
}

// add lists version e of a block, counting it live when it is new. The
// caller holds mu exclusively.
func (m *mvccState) add(kvName string, prefix []byte, e verEntry, counted bool) {
	in := m.inst(kvName)
	if in.dir == nil {
		in.dir = newVerDir()
	}
	in.dir.add(prefix, e)
	if counted {
		in.live++
		m.live.Add(1)
	}
}

// dropDir removes a KV instance's versions, as loaded and listed.
func (m *mvccState) dropDir(kvName string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if in := m.insts[kvName]; in != nil {
		m.live.Add(-in.live)
		delete(m.insts, kvName)
	}
}

// dropVersion removes one listed version of a block.
func (m *mvccState) dropVersion(kvName string, prefix []byte, ver uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	in := m.insts[kvName]
	if in == nil || in.dir == nil || !in.dir.drop(prefix, ver) {
		return
	}
	in.live--
	m.live.Add(-1)
	m.reclaimed.Add(1)
}

// DirectoryStats is the size of a store's version directories.
type DirectoryStats struct {
	// Entries is the number of blocks the directories list.
	Entries int
	// LiveBytes and DeadBytes are the memory they hold (see verDir.bytes).
	LiveBytes, DeadBytes int64
}

// Directory returns the size of the store's version directories.
func (st *Store) Directory() DirectoryStats {
	m := st.mvcc
	m.mu.RLock()
	defer m.mu.RUnlock()
	var s DirectoryStats
	for _, in := range m.insts {
		if in.dir == nil {
			continue
		}
		live, dead := in.dir.bytes()
		s.Entries += in.dir.entries()
		s.LiveBytes += live
		s.DeadBytes += dead
	}
	return s
}

// verSegKey is the physical key of one segment of one block version:
// blockPrefix | seg (4 bytes BE) | ^ver (8 bytes BE). Complementing the
// version makes newer versions sort before older ones.
func verSegKey(prefix []byte, seg uint32, ver uint64) []byte {
	return appendSegKey(make([]byte, 0, len(prefix)+12), prefix, seg, ver)
}

// appendSegKey appends verSegKey(prefix, seg, ver) to dst.
func appendSegKey(dst, prefix []byte, seg uint32, ver uint64) []byte {
	dst = append(dst, prefix...)
	dst = binary.BigEndian.AppendUint32(dst, seg)
	return binary.BigEndian.AppendUint64(dst, ^ver)
}

// Snapshot pins, per relation, the commit sequence a statement's reads
// resolve against. Pin before planning, release after the last read; a
// held pin blocks reclamation of every version it can reach.
type Snapshot struct {
	st       *Store
	Seqs     map[string]uint64
	released bool
}

// PinSnapshot pins the current commit sequence of each named relation
// (duplicates and unknown names are ignored) and returns the snapshot.
func (st *Store) PinSnapshot(rels []string) *Snapshot {
	s := &Snapshot{st: st, Seqs: make(map[string]uint64, len(rels))}
	for _, rel := range rels {
		if _, ok := s.Seqs[rel]; ok {
			continue
		}
		if _, ok := st.Rels[rel]; !ok {
			continue
		}
		r := st.mvcc.rel(rel)
		r.pinMu.Lock()
		seq := r.seq.Load() // loaded under pinMu so a concurrent reclaim either sees the pin or the pin sees the new sequence
		r.pins[seq]++
		r.pinMu.Unlock()
		s.Seqs[rel] = seq
	}
	return s
}

// Release unpins the snapshot. Idempotent; nil-safe.
func (s *Snapshot) Release() {
	if s == nil || s.released {
		return
	}
	s.released = true
	for rel, seq := range s.Seqs {
		r := s.st.mvcc.rel(rel)
		r.pinMu.Lock()
		if r.pins[seq] > 1 {
			r.pins[seq]--
		} else {
			delete(r.pins, seq)
		}
		r.pinMu.Unlock()
	}
}

// Seq returns the pinned sequence for rel, if the snapshot covers it.
func (s *Snapshot) Seq(rel string) (uint64, bool) {
	if s == nil {
		return 0, false
	}
	seq, ok := s.Seqs[rel]
	return seq, ok
}

// AtSnapshot returns a read view of the store whose block and stats reads
// resolve against the snapshot's pinned sequences. The view shares all
// mutable state with the parent (it is a shallow copy); relations the
// snapshot does not cover read latest.
func (st *Store) AtSnapshot(s *Snapshot) *Store {
	if s == nil {
		return st
	}
	cp := *st
	cp.snap = s
	cp.Index = Indexes{&cp}
	return &cp
}

// snapSeqFor resolves the sequence this store view reads relation rel at:
// the pinned sequence when the view is a snapshot, the installed sequence
// otherwise.
func (st *Store) snapSeqFor(rel string) uint64 {
	if st.snap != nil {
		if s, ok := st.snap.Seqs[rel]; ok {
			return s
		}
	}
	return st.mvcc.rel(rel).seq.Load()
}

// CommitSeq returns the relation's installed commit sequence.
func (st *Store) CommitSeq(rel string) uint64 { return st.mvcc.rel(rel).seq.Load() }

// Watermark returns the oldest sequence an active snapshot of rel may
// read.
func (st *Store) Watermark(rel string) uint64 { return st.mvcc.rel(rel).watermark() }

// VersionsLive returns the number of materialized block versions.
func (st *Store) VersionsLive() int64 { return st.mvcc.live.Load() }

// VersionsReclaimed returns the number of block versions reclaimed over
// the store's lifetime.
func (st *Store) VersionsReclaimed() int64 { return st.mvcc.reclaimed.Load() }

// stagedEdit is one block's pending state inside a commit: the pre-image
// (nil when the block is absent at the commit's base sequence) plus edits.
// post is the index whose posting fragment the block is, nil for a block of
// a KV schema. loaded is the version the pre-image was read at when the
// block is as loaded — no directory entry lists it — and nsegs 0 otherwise.
type stagedEdit struct {
	kvSchema KVSchema
	post     *posting
	prefix   []byte
	blk      *Block
	loaded   verEntry
	dirty    bool
}

// fragSet is a posting fragment's length as of the commit, which Install
// enters in its index's directory.
type fragSet struct {
	post   *posting
	prefix []byte
	n      int
}

// Commit is an open commit on one relation: it holds the relation's commit
// mutex from BeginCommit until Close. Usage:
//
//	c, _ := st.BeginCommit(rel)
//	defer c.Close()
//	c.Prefetch(kvt, tuples)              // optional: batch-read pre-images
//	c.StageInsert(kvt, t) / c.StageDelete(kvt, t)   // all fallible work
//	st.Cluster.ApplyBatch(kvt, c.Ops())  // write new versions
//	c.Install()                          // bump the sequence: versions become visible
//	w := c.Reclaim(kvt)                  // drop versions below the watermark
//
// A tuple's edits reach its block in every KV schema of the relation and
// its posting in every index on it: the postings are blocks too, versioned,
// installed and reclaimed with the rest. Abandoning a commit before Install
// (Close after a staging error) leaves the store untouched: staged edits
// live only in memory and nothing was installed, so there is nothing to
// compensate.
type Commit struct {
	st    *Store
	rel   string
	r     *relMVCC
	seq   uint64     // sequence this commit installs
	posts []*posting // the indexes on rel

	staged    map[string]map[string]*stagedEdit // kv name -> prefix -> edit
	rowsDelta int

	// computed by Ops, consumed by Install
	opsBuilt   bool
	dirAdds    []dirAdd
	retires    []retiredVer
	newTombs   []tombRef
	fragSets   []fragSet
	blockDelta map[string]int
	degreeMax  map[string]int
	enc        segEncoder

	closed bool
}

// BeginCommit opens a commit on rel, locking out other commits on the
// relation and index DDL on it.
func (st *Store) BeginCommit(rel string) (*Commit, error) {
	if _, ok := st.Rels[rel]; !ok {
		return nil, fmt.Errorf("baav: unknown relation %q", rel)
	}
	r := st.mvcc.rel(rel)
	r.commitMu.Lock()
	return &Commit{
		st:         st,
		rel:        rel,
		r:          r,
		seq:        r.seq.Load() + 1,
		posts:      st.onRel(rel),
		staged:     make(map[string]map[string]*stagedEdit),
		blockDelta: make(map[string]int),
		degreeMax:  make(map[string]int),
	}, nil
}

// blockRef is one block a commit edits: its instance, the index it posts
// for (nil for a KV schema's block) and its prefix.
type blockRef struct {
	kv     KVSchema
	post   *posting
	prefix []byte
}

// refs appends to dst the blocks tuple t lands in: its block in every KV
// schema of the relation, and in every index on it the posting fragment
// that owns its block key.
func (c *Commit) refs(dst []blockRef, t relation.Tuple) ([]blockRef, error) {
	schema := c.st.Rels[c.rel]
	if len(t) != len(schema.Attrs) {
		return nil, fmt.Errorf("baav: tuple arity %d != %s arity %d", len(t), c.rel, len(schema.Attrs))
	}
	for _, kvSchema := range c.st.Schema.ForRelation(c.rel) {
		keyPos, err := schema.Positions(kvSchema.Key)
		if err != nil {
			return nil, err
		}
		dst = append(dst, blockRef{kv: kvSchema, prefix: c.st.blockPrefix(c.st.ids[kvSchema.Name], t.Project(keyPos))})
	}
	for _, p := range c.posts {
		dst = append(dst, blockRef{kv: p.kv, post: p, prefix: p.fragment(c.st, t)})
	}
	return dst, nil
}

// stage returns the staged edits of refs, reading the pre-images of those
// not staged yet in one batched round — one multi-get per storage node —
// at the commit's base sequence. Without probe it issues nothing for a
// block the directory shows absent or tombstoned there, or one it does not
// list and the instance's load did not write; a block it does not list
// costs the one get of its as-loaded version, which shows whether it
// exists. With probe every block costs a get, as a reader's would.
func (c *Commit) stage(kvt *obs.KV, refs []blockRef, probe bool) ([]*stagedEdit, error) {
	var b blockBatch
	var fresh []*stagedEdit
	edits := make([]*stagedEdit, len(refs))
	for i, ref := range refs {
		byPrefix := c.stagedIn(ref.kv.Name)
		e := byPrefix[string(ref.prefix)]
		if e == nil {
			e = &stagedEdit{kvSchema: ref.kv, post: ref.post, prefix: ref.prefix}
			byPrefix[string(ref.prefix)] = e
			pre := len(b.buf)
			b.buf = append(b.buf, ref.prefix...)
			b.reads = append(b.reads, blockRead{kv: &e.kvSchema, pre: int32(pre), end: int32(len(b.buf))})
			fresh = append(fresh, e)
		}
		edits[i] = e
	}
	if len(fresh) == 0 {
		return edits, nil
	}
	blks, err := c.st.fetch(kvt, &b, c.seq-1, probe)
	if err != nil {
		return nil, err
	}
	for i, e := range fresh {
		e.blk = blks[i]
		if b.reads[i].loaded && blks[i] != nil {
			e.loaded = b.reads[i].win
		}
	}
	return edits, nil
}

// Prefetch stages the pre-image of every block the batch's tuples will
// touch — their blocks and posting fragments — in one batched round (see
// stage), instead of a round per tuple.
func (c *Commit) Prefetch(kvt *obs.KV, tuples []relation.Tuple) error {
	var refs []blockRef
	for _, t := range tuples {
		var err error
		if refs, err = c.refs(refs, t); err != nil {
			return err
		}
	}
	_, err := c.stage(kvt, refs, false)
	return err
}

// StageInsert stages one inserted tuple: a read-modify-write of its block
// in every KV schema projecting the relation, O(deg(~D)) per tuple and
// independent of |D| (Section 8.2), and of its posting fragment in every
// index, O(M). Fallible (reads, decoding) — an error leaves the commit
// abandonable with nothing written.
func (c *Commit) StageInsert(kvt *obs.KV, t relation.Tuple) error {
	edits, err := c.stageTuple(kvt, t)
	if err != nil {
		return err
	}
	for _, e := range edits {
		if e.blk == nil {
			e.blk = &Block{}
		}
		row, err := c.row(e, t)
		if err != nil {
			return err
		}
		if e.post == nil {
			e.blk.Add(row, c.st.Opts.Compress)
			e.dirty = true
			continue
		}
		at, found := slices.BinarySearchFunc(e.blk.Tuples, row, relation.Tuple.Compare)
		if !found {
			e.blk.Tuples = slices.Insert(e.blk.Tuples, at, row)
			e.dirty = true
		}
	}
	c.rowsDelta++
	return nil
}

// StageDelete stages one deleted tuple; found reports whether any KV
// schema's block actually held it.
func (c *Commit) StageDelete(kvt *obs.KV, t relation.Tuple) (found bool, err error) {
	edits, err := c.stageTuple(kvt, t)
	if err != nil {
		return false, err
	}
	for _, e := range edits {
		row, err := c.row(e, t)
		if err != nil {
			return found, err
		}
		if e.blk == nil || !e.blk.Remove(row) {
			continue
		}
		e.dirty = true
		found = found || e.post == nil
	}
	if found {
		c.rowsDelta--
	}
	return found, nil
}

// stageTuple returns the staged edits of the blocks t lands in.
func (c *Commit) stageTuple(kvt *obs.KV, t relation.Tuple) ([]*stagedEdit, error) {
	refs, err := c.refs(nil, t)
	if err != nil {
		return nil, err
	}
	return c.stage(kvt, refs, false)
}

// row is what t stores in e's block: its value attributes, or for a posting
// fragment its block key.
func (c *Commit) row(e *stagedEdit, t relation.Tuple) (relation.Tuple, error) {
	if e.post != nil {
		return t.Project(e.post.keyPos), nil
	}
	valPos, err := c.st.Rels[c.rel].Positions(e.kvSchema.Val)
	if err != nil {
		return nil, err
	}
	return t.Project(valPos), nil
}

// stagedIn returns the commit's staged edits of one KV instance by block
// prefix, creating the map on first use.
func (c *Commit) stagedIn(kvName string) map[string]*stagedEdit {
	byPrefix := c.staged[kvName]
	if byPrefix == nil {
		byPrefix = make(map[string]*stagedEdit)
		c.staged[kvName] = byPrefix
	}
	return byPrefix
}

// Ops materializes the commit's dirty edits as versioned batch mutations
// and computes the directory/bookkeeping deltas Install will apply. Pure:
// no kv traffic, no visible state change. A posting fragment grown past M
// keys splits first (see splitFragments).
func (c *Commit) Ops() []kv.BatchOp {
	c.splitFragments()
	var ops []kv.BatchOp
	kvNames := make([]string, 0, len(c.staged))
	for name := range c.staged {
		kvNames = append(kvNames, name)
	}
	sort.Strings(kvNames)
	for _, name := range kvNames {
		byPrefix := c.staged[name]
		prefixes := make([]string, 0, len(byPrefix))
		for p := range byPrefix {
			prefixes = append(prefixes, p)
		}
		sort.Strings(prefixes)
		for _, ps := range prefixes {
			e := byPrefix[ps]
			if !e.dirty {
				continue
			}
			// The old version is the as-loaded one the pre-image was read
			// at, which the directory lists from now on, or the directory's.
			// A fragment a split creates falls where no live fragment is,
			// so it has no as-loaded version.
			oldWinner, hadOld := e.loaded, e.loaded.nsegs > 0
			if hadOld {
				c.dirAdds = append(c.dirAdds, dirAdd{name, e.prefix, e.loaded, true})
			} else {
				oldWinner, hadOld = c.st.mvcc.listed(name, e.prefix, c.seq-1)
			}
			oldExists := hadOld && oldWinner.nsegs > 0
			newExists := e.blk != nil && len(e.blk.Tuples) > 0
			if !oldExists && !newExists {
				continue // deleting an absent block: nothing to write
			}
			if e.post != nil {
				c.fragSets = append(c.fragSets, fragSet{e.post, e.prefix, len(e.blk.Tuples)})
			}
			switch {
			case newExists && e.post != nil:
				ops, _ = c.encodeVersionOps(ops, e.kvSchema, postingOpts, e.prefix, e.blk)
				c.dirAdds = append(c.dirAdds, dirAdd{name, e.prefix, verEntry{ver: c.seq, nsegs: 1}, false})
			case newExists:
				var nsegs int
				ops, nsegs = c.encodeVersionOps(ops, e.kvSchema, c.st.Opts, e.prefix, e.blk)
				c.dirAdds = append(c.dirAdds, dirAdd{name, e.prefix, verEntry{ver: c.seq, nsegs: nsegs}, false})
				if d := e.blk.Distinct(); d > c.degreeMax[name] {
					c.degreeMax[name] = d
				}
				if !oldExists {
					c.blockDelta[name]++
				}
			default:
				// Tombstone: one seg-0 pair whose header says zero segments.
				ops = append(ops, kv.BatchOp{
					Route: route(e.prefix),
					Key:   verSegKey(e.prefix, 0, c.seq),
					Value: binary.AppendUvarint(nil, 0),
				})
				c.dirAdds = append(c.dirAdds, dirAdd{name, e.prefix, verEntry{ver: c.seq, nsegs: 0}, false})
				c.newTombs = append(c.newTombs, tombRef{kvName: name, prefix: ps, ver: c.seq})
				if e.post == nil {
					c.blockDelta[name]--
				}
			}
			if hadOld {
				c.retires = append(c.retires, retiredVer{
					kvName: name, prefix: ps, ver: oldWinner.ver,
					segs: oldWinner.physSegs(), retireSeq: c.seq,
				})
			}
		}
	}
	c.opsBuilt = true
	return ops
}

// splitFragments cuts every staged posting fragment grown past M keys into
// ⌈n/M⌉ pieces of even length: the first stays under the fragment's fence
// and each later one becomes the fragment fenced at its first key. The new
// fences fall between the fragment's and the next live one's, where no live
// fragment is staged; a drained one there is overwritten.
func (c *Commit) splitFragments() {
	var grown []*stagedEdit
	for _, p := range c.posts {
		for _, e := range c.staged[p.kv.Name] {
			if e.dirty && len(e.blk.Tuples) > M {
				grown = append(grown, e)
			}
		}
	}
	for _, e := range grown {
		vend := len(route(e.prefix))
		keys := e.blk.Tuples
		ps := pieces(len(keys))
		for _, piece := range ps[1:] {
			prefix := relation.AppendTuple(e.prefix[:vend:vend], keys[piece[0]])
			c.stagedIn(e.kvSchema.Name)[string(prefix)] = &stagedEdit{
				kvSchema: e.kvSchema, post: e.post, prefix: prefix,
				blk: &Block{Tuples: keys[piece[0]:piece[1]:piece[1]]}, dirty: true,
			}
		}
		e.blk = &Block{Tuples: keys[:ps[0][1]:ps[0][1]]}
	}
}

// Install makes the commit's versions visible: directory entries first,
// then the sequence bump — a reader that sees the new sequence always
// finds the new versions. Call only after the batch ops have been applied
// to the cluster.
func (c *Commit) Install() {
	if !c.opsBuilt {
		c.Ops()
	}
	c.st.mvcc.enter(c.dirAdds)
	c.st.statsMu.Lock()
	for name, d := range c.blockDelta {
		c.st.blocks[name] += d
	}
	for name, d := range c.degreeMax {
		if d > c.st.degrees[name] {
			c.st.degrees[name] = d
		}
	}
	if c.rowsDelta > 0 || c.st.relRows[c.rel] >= -c.rowsDelta {
		c.st.relRows[c.rel] += c.rowsDelta
	} else {
		c.st.relRows[c.rel] = 0
	}
	c.st.statsMu.Unlock()
	if len(c.fragSets) > 0 {
		c.st.ix.mu.Lock()
		for _, f := range c.fragSets {
			f.post.setFragment(f.prefix, f.n)
		}
		c.st.ix.mu.Unlock()
	}
	c.r.retired = append(c.r.retired, c.retires...)
	c.r.tombs = append(c.r.tombs, c.newTombs...)
	c.r.seq.Store(c.seq)
}

// Reclaim drops every retired version at or below the watermark (deleting
// its kv pairs in one batch) and opportunistically removes tombstones that
// are a block's sole remaining version below the watermark. Returns the
// watermark it reclaimed against. Must be called before Close, after
// Install.
func (c *Commit) Reclaim(kvt *obs.KV) uint64 {
	w, _ := c.st.reclaimRel(kvt, c.r)
	return w
}

// reclaimRel is the reclamation core shared by commits and the background
// sweep: drop retired versions and sole-remaining tombstones at or below
// the relation's watermark, deleting their kv pairs in one batch. A retired
// version leaves the directory at once — a newer version of its block stays
// listed — but a tombstone that is its block's last listed version leaves
// only after the batch: a reader resolving a block no entry lists presumes
// it as loaded, and would read its as-loaded version back while the delete
// is pending. The caller must hold r.commitMu (only commits and the sweep
// touch retired and tombs). Returns the watermark and the number of
// versions dropped.
func (st *Store) reclaimRel(kvt *obs.KV, r *relMVCC) (w uint64, swept int) {
	w = r.watermark()
	var ops []kv.BatchOp
	keep := r.retired[:0]
	for _, rv := range r.retired {
		if rv.retireSeq > w {
			keep = append(keep, rv)
			continue
		}
		prefix := []byte(rv.prefix)
		for seg := 0; seg < rv.segs; seg++ {
			ops = append(ops, kv.BatchOp{Route: route(prefix), Key: verSegKey(prefix, uint32(seg), rv.ver), Delete: true})
		}
		st.mvcc.dropVersion(rv.kvName, prefix, rv.ver)
		swept++
	}
	r.retired = keep
	var gone []tombRef
	keepT := r.tombs[:0]
	for _, tb := range r.tombs {
		newest, n := st.mvcc.head(tb.kvName, []byte(tb.prefix))
		if n == 0 || newest.ver > tb.ver {
			continue // superseded or gone: the normal retire path owns its key
		}
		if n == 1 && tb.ver <= w {
			// Sole remaining version and unreachable: the block is fully
			// deleted — its tombstone key goes in the same batch as its
			// older versions.
			prefix := []byte(tb.prefix)
			ops = append(ops, kv.BatchOp{Route: route(prefix), Key: verSegKey(prefix, 0, tb.ver), Delete: true})
			gone = append(gone, tb)
			continue
		}
		keepT = append(keepT, tb)
	}
	r.tombs = keepT
	if f := st.mvcc.beforeReclaimDeletes; f != nil {
		f()
	}
	st.Cluster.ApplyBatch(kvt, ops)
	// The block is gone from the store: now its entry, and a drained
	// posting fragment from its index's directory.
	for _, tb := range gone {
		prefix := []byte(tb.prefix)
		st.mvcc.dropVersion(tb.kvName, prefix, tb.ver)
		st.forgetFragment(tb.kvName, prefix)
		swept++
	}
	return w, swept
}

// SweepRelation reclaims what the relation's watermark allows without
// waiting for its next commit: a relation that stops receiving commits
// would otherwise hold its last superseded versions (and tombstones)
// forever, since reclamation normally rides the commit path. The sweep
// takes the commit mutex opportunistically — TryLock, so it never delays
// a live commit — and leaves the sequence alone. Returns the number of
// versions dropped and whether the sweep ran at all (false: a commit held
// the relation; the next tick retries).
func (st *Store) SweepRelation(rel string) (swept int, ok bool) {
	if _, known := st.Rels[rel]; !known {
		return 0, false
	}
	r := st.mvcc.rel(rel)
	if !r.commitMu.TryLock() {
		return 0, false
	}
	defer r.commitMu.Unlock()
	_, swept = st.reclaimRel(nil, r)
	st.mvcc.sweptBg.Add(int64(swept))
	return swept, true
}

// VersionsSwept returns the number of block versions reclaimed by the
// background sweep (a subset of VersionsReclaimed).
func (st *Store) VersionsSwept() int64 { return st.mvcc.sweptBg.Load() }

// Close ends the commit, releasing the relation's commit mutex.
func (c *Commit) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.r.commitMu.Unlock()
}

// segEncoder encodes blocks into their segment payloads — at most the
// segment threshold of stored tuples each, with its statistics when the
// store keeps them (a header, or for one tuple the flag that says its
// stats are its own), segment 0 led by the segment-count header — back to
// back into one buffer it reuses from one block to the next, with the
// scratch segment and statistics that go into it. Each of Map's loaders
// loads its blocks through one and a commit encodes its new versions
// through one.
type segEncoder struct {
	buf   []byte // the last block's segments
	ends  []int  // where each of its segments ends in buf
	part  Block
	stats BlockStats
}

// encode encodes blk, whose tuples are width values wide, into buf under
// the store's options.
func (e *segEncoder) encode(blk *Block, width int, opts Options) {
	n, thr := len(blk.Tuples), opts.SegmentThreshold
	e.buf = binary.AppendUvarint(e.buf[:0], uint64((n+thr-1)/thr))
	e.ends = e.ends[:0]
	for lo := 0; lo < n; lo += thr {
		hi := min(lo+thr, n)
		e.part.Tuples, e.part.Counts = blk.Tuples[lo:hi], nil
		if blk.Counts != nil {
			e.part.Counts = blk.Counts[lo:hi]
		}
		var stats *BlockStats
		if opts.Stats {
			e.part.statsInto(&e.stats, width)
			stats = &e.stats
		}
		e.buf = appendBlock(e.buf, &e.part, stats, width)
		e.ends = append(e.ends, len(e.buf))
	}
}

// segments hands fn every segment of the block last encoded, in order, as
// capped windows of one copy of buf: the copy is the only allocation, and
// it is what the store keeps.
func (e *segEncoder) segments(fn func(seg uint32, value []byte)) {
	vals := bytes.Clone(e.buf)
	start := 0
	for seg, end := range e.ends {
		fn(uint32(seg), vals[start:end:end])
		start = end
	}
}

// encodeVersionOps appends to ops the puts of blk, encoded under opts, as
// version c.seq of the block under prefix, one per segment, and returns
// them with the segment count.
func (c *Commit) encodeVersionOps(ops []kv.BatchOp, kvSchema KVSchema, opts Options, prefix []byte, blk *Block) ([]kv.BatchOp, int) {
	c.enc.encode(blk, len(kvSchema.Val), opts)
	c.enc.segments(func(seg uint32, value []byte) {
		ops = append(ops, kv.BatchOp{Route: route(prefix), Key: verSegKey(prefix, seg, c.seq), Value: value})
	})
	return ops, len(c.enc.ends)
}

// assembleSegs decodes a block from its ordered segment payloads (seg 0
// carries the uvarint segment-count header, which it steps over in place)
// with decodeBlock's cols, wantStats and size.
func assembleSegs(segs [][]byte, width int, cols []int, wantStats bool) (*Block, *BlockStats, int64, error) {
	if err := stripSegHeader(segs); err != nil {
		return nil, nil, 0, err
	}
	return decodeSegs(segs, width, cols, wantStats)
}

// stripSegHeader checks the segment-count header of a block's segment 0
// against the segments read and steps segs[0] past it.
func stripSegHeader(segs [][]byte) (err error) {
	segs[0], err = segHeader(segs[0], len(segs))
	return err
}

// segHeader checks the segment-count header that leads seg0, a block's
// segment 0, against the nsegs segments read, and returns seg0 past it.
func segHeader(seg0 []byte, nsegs int) ([]byte, error) {
	n, k := binary.Uvarint(seg0)
	if k <= 0 {
		return nil, errCorruptBlock
	}
	if int(n) != nsegs {
		return nil, fmt.Errorf("baav: block header says %d segments, read %d", n, nsegs)
	}
	return seg0[k:], nil
}
