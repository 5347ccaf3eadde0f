package baav

import (
	"encoding/binary"
	"fmt"
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
	// written and visible. stamp is bumped to seq+1 when a commit begins
	// writing, so stamp==seq means the relation is quiescent (no commit in
	// flight) — the optimistic limit-pushdown walk keys off this.
	seq   atomic.Uint64
	stamp atomic.Uint64

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

// CommitStamp returns the relation's commit stamp: equal to CommitSeq when
// the relation is quiescent, CommitSeq+1 while a commit is writing.
func (st *Store) CommitStamp(rel string) uint64 { return st.mvcc.rel(rel).stamp.Load() }

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
type stagedEdit struct {
	kvSchema KVSchema
	key      relation.Tuple
	prefix   []byte
	blk      *Block
	dirty    bool
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
// Abandoning a commit before Install (Close after a staging error) leaves
// the store untouched: staged edits live only in memory and nothing was
// installed, so there is nothing to compensate.
type Commit struct {
	st  *Store
	rel string
	r   *relMVCC
	seq uint64 // sequence this commit installs

	staged    map[string]map[string]*stagedEdit // kv name -> prefix -> edit
	rowsDelta int

	// computed by Ops, consumed by Install
	opsBuilt   bool
	dirAdds    []dirAdd
	retires    []retiredVer
	newTombs   []tombRef
	blockDelta map[string]int
	degreeMax  map[string]int

	installed bool
	closed    bool
}

// BeginCommit opens a commit on rel, locking out other commits on the
// relation and bumping the commit stamp (readers see stamp != seq while
// the commit is in flight).
func (st *Store) BeginCommit(rel string) (*Commit, error) {
	if _, ok := st.Rels[rel]; !ok {
		return nil, fmt.Errorf("baav: unknown relation %q", rel)
	}
	r := st.mvcc.rel(rel)
	r.commitMu.Lock()
	seq := r.seq.Load() + 1
	r.stamp.Store(seq)
	return &Commit{
		st:         st,
		rel:        rel,
		r:          r,
		seq:        seq,
		staged:     make(map[string]map[string]*stagedEdit),
		blockDelta: make(map[string]int),
		degreeMax:  make(map[string]int),
	}, nil
}

// Seq returns the sequence this commit will install.
func (c *Commit) Seq() uint64 { return c.seq }

// edit returns the staged state for one block, loading its pre-image from
// the store (at the commit's base sequence) on first touch.
func (c *Commit) edit(kvt *obs.KV, kvSchema KVSchema, key relation.Tuple) (*stagedEdit, error) {
	byPrefix := c.stagedIn(kvSchema.Name)
	prefix := c.st.blockPrefix(c.st.ids[kvSchema.Name], key)
	if e, ok := byPrefix[string(prefix)]; ok {
		return e, nil
	}
	blks, _, _, err := c.st.FetchBlocksT(kvt, kvSchema.Name, []relation.Tuple{key}, nil, nil)
	if err != nil {
		return nil, err
	}
	e := &stagedEdit{kvSchema: kvSchema, key: key, prefix: prefix, blk: blks[0]}
	byPrefix[string(prefix)] = e
	return e, nil
}

// Prefetch batch-reads the pre-image blocks every tuple in the batch will
// touch — one multi-get round trip per storage node instead of one get
// per block — and seeds the staged-edit cache with them. Unlike a reader it
// issues nothing for a block that is absent or tombstoned at the commit's
// base sequence: the directory already says there is no pre-image.
func (c *Commit) Prefetch(kvt *obs.KV, tuples []relation.Tuple) error {
	schema := c.st.Rels[c.rel]
	var b blockBatch
	var wants []*stagedEdit
	for _, kvSchema := range c.st.Schema.ForRelation(c.rel) {
		keyPos, err := schema.Positions(kvSchema.Key)
		if err != nil {
			return err
		}
		byPrefix := c.stagedIn(kvSchema.Name)
		for _, t := range tuples {
			if len(t) != len(schema.Attrs) {
				return fmt.Errorf("baav: tuple arity %d != %s arity %d", len(t), c.rel, len(schema.Attrs))
			}
			key := t.Project(keyPos)
			r := b.add(kvSchema.Name, len(kvSchema.Val), c.st.ids[kvSchema.Name], key)
			prefix := b.prefix(&r)
			if _, ok := byPrefix[string(prefix)]; ok {
				b.buf = b.buf[:r.pre] // staged already, by an earlier round or tuple
				continue
			}
			e := &stagedEdit{kvSchema: kvSchema, key: key, prefix: prefix}
			byPrefix[string(prefix)] = e
			b.reads = append(b.reads, r)
			wants = append(wants, e)
		}
	}
	if len(wants) == 0 {
		return nil
	}
	blks, _, _, err := c.st.fetch(kvt, &b, c.seq-1, false, nil, nil)
	if err != nil {
		return err
	}
	for i, e := range wants {
		e.blk = blks[i]
	}
	return nil
}

// StageInsert stages one inserted tuple into every KV schema projecting
// the relation: a read-modify-write of the affected block per schema,
// O(deg(~D)) per tuple and independent of |D| (Section 8.2). Fallible
// (reads, decoding) — an error leaves the commit abandonable with nothing
// written.
func (c *Commit) StageInsert(kvt *obs.KV, t relation.Tuple) error {
	schema := c.st.Rels[c.rel]
	if len(t) != len(schema.Attrs) {
		return fmt.Errorf("baav: tuple arity %d != %s arity %d", len(t), c.rel, len(schema.Attrs))
	}
	for _, kvSchema := range c.st.Schema.ForRelation(c.rel) {
		keyPos, err := schema.Positions(kvSchema.Key)
		if err != nil {
			return err
		}
		valPos, err := schema.Positions(kvSchema.Val)
		if err != nil {
			return err
		}
		e, err := c.edit(kvt, kvSchema, t.Project(keyPos))
		if err != nil {
			return err
		}
		if e.blk == nil {
			e.blk = &Block{}
		}
		e.blk.Add(t.Project(valPos), c.st.Opts.Compress)
		e.dirty = true
	}
	c.rowsDelta++
	return nil
}

// StageDelete stages one deleted tuple; found reports whether any
// projection actually held it.
func (c *Commit) StageDelete(kvt *obs.KV, t relation.Tuple) (found bool, err error) {
	schema := c.st.Rels[c.rel]
	if len(t) != len(schema.Attrs) {
		return false, fmt.Errorf("baav: tuple arity %d != %s arity %d", len(t), c.rel, len(schema.Attrs))
	}
	for _, kvSchema := range c.st.Schema.ForRelation(c.rel) {
		keyPos, err := schema.Positions(kvSchema.Key)
		if err != nil {
			return found, err
		}
		valPos, err := schema.Positions(kvSchema.Val)
		if err != nil {
			return found, err
		}
		e, err := c.edit(kvt, kvSchema, t.Project(keyPos))
		if err != nil {
			return found, err
		}
		if e.blk == nil || !e.blk.Remove(t.Project(valPos)) {
			continue
		}
		e.dirty = true
		found = true
	}
	if found {
		c.rowsDelta--
	}
	return found, nil
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
	c.stagedIn(kvSchema.Name)[string(prefix)] = &stagedEdit{kvSchema: kvSchema, key: key, prefix: prefix, blk: blk, dirty: true}
}

// Ops materializes the commit's dirty edits as versioned batch mutations
// and computes the directory/bookkeeping deltas Install will apply. Pure:
// no kv traffic, no visible state change.
func (c *Commit) Ops() []kv.BatchOp {
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
			if newExists {
				segOps, nsegs := c.st.encodeVersionOps(e.kvSchema, e.prefix, e.blk, c.seq)
				ops = append(ops, segOps...)
				c.dirAdds = append(c.dirAdds, dirAdd{name, e.prefix, verEntry{ver: c.seq, nsegs: nsegs}})
				if d := e.blk.Distinct(); d > c.degreeMax[name] {
					c.degreeMax[name] = d
				}
				if !oldExists {
					c.blockDelta[name]++
				}
			} else {
				// Tombstone: one seg-0 pair whose header says zero segments.
				ops = append(ops, kv.BatchOp{
					Route: e.prefix,
					Key:   verSegKey(e.prefix, 0, c.seq),
					Value: binary.AppendUvarint(nil, 0),
				})
				c.dirAdds = append(c.dirAdds, dirAdd{name, e.prefix, verEntry{ver: c.seq, nsegs: 0}})
				c.newTombs = append(c.newTombs, tombRef{kvName: name, prefix: ps, ver: c.seq})
				c.blockDelta[name]--
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
	c.r.retired = append(c.r.retired, c.retires...)
	c.r.tombs = append(c.r.tombs, c.newTombs...)
	c.r.seq.Store(c.seq)
	c.installed = true
}

// Reclaim drops every retired version at or below the watermark (deleting
// its kv pairs in one batch) and opportunistically removes tombstones that
// are a block's sole remaining version below the watermark. Returns the
// watermark so index maintenance can reclaim against the same bound. Must
// be called before Close, after Install.
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
			ops = append(ops, kv.BatchOp{Route: prefix, Key: verSegKey(prefix, uint32(seg), rv.ver), Delete: true})
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
			// deleted — drop the tombstone key itself. Older versions were
			// already deleted above (same batch, earlier ops), so a reader
			// can never resurrect a pre-delete version.
			ops = append(ops, kv.BatchOp{Route: prefix, Key: verSegKey(prefix, 0, tb.ver), Delete: true})
			st.mvcc.dropVersion(tb.kvName, prefix, tb.ver)
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
// a live commit — and bumps neither the sequence nor the stamp, leaving
// quiescence checks untouched. then, when non-nil, runs with the mutex
// still held and the watermark the sweep reclaimed against — the hook for
// retrying the relation's pending posting shrinks, which commits also only
// touch under this mutex. Returns the number of versions dropped and
// whether the sweep ran at all (false: a commit held the relation; the
// next tick retries).
func (st *Store) SweepRelation(rel string, then func(watermark uint64)) (swept int, ok bool) {
	if _, known := st.Rels[rel]; !known {
		return 0, false
	}
	r := st.mvcc.rel(rel)
	if !r.commitMu.TryLock() {
		return 0, false
	}
	defer r.commitMu.Unlock()
	var w uint64
	w, swept = st.reclaimRel(nil, r)
	st.mvcc.sweptBg.Add(int64(swept))
	if then != nil {
		then(w)
	}
	return swept, true
}

// VersionsSwept returns the number of block versions reclaimed by the
// background sweep (a subset of VersionsReclaimed).
func (st *Store) VersionsSwept() int64 { return st.mvcc.sweptBg.Load() }

// Close ends the commit, releasing the relation's commit mutex. If the
// commit was not installed the stamp is rolled back so the relation reads
// quiescent again.
func (c *Commit) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if !c.installed {
		c.r.stamp.Store(c.r.seq.Load())
	}
	c.r.commitMu.Unlock()
}

// encodeVersionOps encodes a block at one version into put ops, splitting
// into segments at the configured threshold. Returns the ops and the
// segment count.
func (st *Store) encodeVersionOps(kvSchema KVSchema, prefix []byte, blk *Block, ver uint64) ([]kv.BatchOp, int) {
	width := len(kvSchema.Val)
	thr := st.Opts.SegmentThreshold
	nsegs := (len(blk.Tuples) + thr - 1) / thr
	ops := make([]kv.BatchOp, 0, nsegs)
	for seg := 0; seg < nsegs; seg++ {
		lo, hi := seg*thr, (seg+1)*thr
		if hi > len(blk.Tuples) {
			hi = len(blk.Tuples)
		}
		part := &Block{Tuples: blk.Tuples[lo:hi]}
		if blk.Counts != nil {
			part.Counts = blk.Counts[lo:hi]
		}
		var stats *BlockStats
		if st.Opts.Stats {
			stats = part.ComputeStats(width)
		}
		payload := EncodeBlock(part, stats, width)
		if seg == 0 {
			head := binary.AppendUvarint(nil, uint64(nsegs))
			payload = append(head, payload...)
		}
		ops = append(ops, kv.BatchOp{Route: prefix, Key: verSegKey(prefix, uint32(seg), ver), Value: payload})
	}
	return ops, nsegs
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
