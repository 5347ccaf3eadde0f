package baav

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"zidian/internal/index"
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

// verEntry is one materialized version of a block in the in-memory version
// directory: its commit sequence and segment count (0 = tombstone). The
// directory keeps point reads exact — a get resolves the winning version
// in memory and issues only real segment gets, never a scan.
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
type dirAdd struct {
	kvName string
	prefix []byte
	e      verEntry
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

// mvccState is the store-wide MVCC bookkeeping, shared by every snapshot
// view of one Store. mu guards the version directories: one read lock per
// fetch batch, the exclusive lock for every change.
type mvccState struct {
	mu   sync.RWMutex
	dirs map[string]*verDir // kv name -> its version directory
	rels map[string]*relMVCC

	live      atomic.Int64 // block versions currently materialized
	reclaimed atomic.Int64 // block versions reclaimed over the store's lifetime
	sweptBg   atomic.Int64 // versions reclaimed by the background sweep alone
}

func newMVCCState() *mvccState {
	return &mvccState{
		dirs: make(map[string]*verDir),
		rels: make(map[string]*relMVCC),
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

// winner returns the newest version of a block visible at seq.
func (m *mvccState) winner(kvName string, prefix []byte, seq uint64) (verEntry, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if d := m.dirs[kvName]; d != nil {
		return d.winner(prefix, seq)
	}
	return verEntry{}, false
}

// head returns a block's newest version and its number of versions.
func (m *mvccState) head(kvName string, prefix []byte) (verEntry, int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if d := m.dirs[kvName]; d != nil {
		return d.head(prefix)
	}
	return verEntry{}, 0
}

// resolve sets, under one read lock, every read's win to the version of its
// block that wins at seq (see blockRead.win).
func (m *mvccState) resolve(b *blockBatch, seq uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var d *verDir
	kvName := ""
	for i := range b.reads {
		r := &b.reads[i]
		if d == nil || r.kv != kvName {
			d, kvName = m.dirs[r.kv], r.kv
		}
		win, ok := verEntry{}, false
		if d != nil {
			win, ok = d.winner(b.buf[r.pre:r.end], seq)
		}
		if !ok {
			win = verEntry{ver: seq}
		}
		r.win = win
	}
}

// addVersion enters a new version (necessarily the newest) of a block.
func (m *mvccState) addVersion(kvName string, prefix []byte, e verEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[kvName]
	if d == nil {
		d = newVerDir()
		m.dirs[kvName] = d
	}
	d.add(prefix, e)
	m.live.Add(1)
}

// dropDir removes a KV instance's whole version directory.
func (m *mvccState) dropDir(kvName string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d := m.dirs[kvName]; d != nil {
		m.live.Add(-int64(d.count()))
		delete(m.dirs, kvName)
	}
}

// dropVersion removes one version of a block.
func (m *mvccState) dropVersion(kvName string, prefix []byte, ver uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d := m.dirs[kvName]; d == nil || !d.drop(prefix, ver) {
		return
	}
	m.live.Add(-1)
	m.reclaimed.Add(1)
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
// a KV schema.
type stagedEdit struct {
	kvSchema KVSchema
	post     *posting
	prefix   []byte
	blk      *Block
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
// at the commit's base sequence. Unlike a reader it issues nothing for a
// block absent or tombstoned there: the directory already says there is no
// pre-image.
func (c *Commit) stage(kvt *obs.KV, refs []blockRef) ([]*stagedEdit, error) {
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
			b.reads = append(b.reads, blockRead{kv: ref.kv.Name, width: len(ref.kv.Val), pre: pre, end: len(b.buf)})
			fresh = append(fresh, e)
		}
		edits[i] = e
	}
	if len(fresh) == 0 {
		return edits, nil
	}
	blks, _, _, err := c.st.fetch(kvt, &b, c.seq-1, false, nil, nil)
	if err != nil {
		return nil, err
	}
	for i, e := range fresh {
		e.blk = blks[i]
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
	_, err := c.stage(kvt, refs)
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
	return c.stage(kvt, refs)
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

// stagePut stages a whole-block replacement (PutBlock's path).
func (c *Commit) stagePut(kvSchema KVSchema, key relation.Tuple, blk *Block) {
	prefix := c.st.blockPrefix(c.st.ids[kvSchema.Name], key)
	c.stagedIn(kvSchema.Name)[string(prefix)] = &stagedEdit{kvSchema: kvSchema, prefix: prefix, blk: blk, dirty: true}
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
			oldWinner, hadOld := c.st.mvcc.winner(name, e.prefix, c.seq-1)
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
				c.dirAdds = append(c.dirAdds, dirAdd{name, e.prefix, verEntry{ver: c.seq, nsegs: 1}})
			case newExists:
				var nsegs int
				ops, nsegs = c.encodeVersionOps(ops, e.kvSchema, c.st.Opts, e.prefix, e.blk)
				c.dirAdds = append(c.dirAdds, dirAdd{name, e.prefix, verEntry{ver: c.seq, nsegs: nsegs}})
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
				c.dirAdds = append(c.dirAdds, dirAdd{name, e.prefix, verEntry{ver: c.seq, nsegs: 0}})
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
			if e.dirty && len(e.blk.Tuples) > index.M {
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
	for _, a := range c.dirAdds {
		c.st.mvcc.addVersion(a.kvName, a.prefix, a.e)
	}
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
// the relation's watermark, deleting their kv pairs in one batch. The
// caller must hold r.commitMu (only commits and the sweep touch retired
// and tombs). Returns the watermark and the number of versions dropped.
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
	keepT := r.tombs[:0]
	for _, tb := range r.tombs {
		prefix := []byte(tb.prefix)
		newest, n := st.mvcc.head(tb.kvName, prefix)
		if n == 0 || newest.ver > tb.ver {
			continue // superseded or gone: the normal retire path owns its key
		}
		if n == 1 && tb.ver <= w {
			// Sole remaining version and unreachable: the block is fully
			// deleted — drop the tombstone key itself, and a drained posting
			// fragment from its index's directory. Older versions were
			// already deleted above (same batch, earlier ops), so a reader
			// can never resurrect a pre-delete version.
			ops = append(ops, kv.BatchOp{Route: route(prefix), Key: verSegKey(prefix, 0, tb.ver), Delete: true})
			st.mvcc.dropVersion(tb.kvName, prefix, tb.ver)
			st.forgetFragment(tb.kvName, prefix)
			swept++
			continue
		}
		keepT = append(keepT, tb)
	}
	r.tombs = keepT
	st.Cluster.ApplyBatch(kvt, ops)
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
// scratch segment and statistics that go into it. Map loads every block
// through one and a commit encodes its new versions through one.
type segEncoder struct {
	buf   []byte // the last block's segments
	ends  []int  // where each of its segments ends in buf
	key   []byte // a segment key, for a caller that writes one at a time
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
func stripSegHeader(segs [][]byte) error {
	nsegs, k := binary.Uvarint(segs[0])
	if k <= 0 {
		return errCorruptBlock
	}
	if int(nsegs) != len(segs) {
		return fmt.Errorf("baav: block header says %d segments, read %d", nsegs, len(segs))
	}
	segs[0] = segs[0][k:]
	return nil
}
