package index

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/relation"
)

// Snapshot-consistent posting maintenance. Postings are not versioned;
// instead they obey a superset invariant: a posting list always contains
// at least the block keys any active snapshot could need. Inserts add
// block keys in the commit's write batch — before the commit sequence
// installs — so a reader that sees the new sequence sees the new posting
// (a reader pinned below it sees a harmless extra key: the block fetch at
// its snapshot simply lacks the row, and residual predicate re-checks
// discard false positives). Deletes never shrink the payload inline; the
// removal is registered as pending at the commit's sequence and applied
// physically — with the stats update — only once the relation's watermark
// passes that sequence (ReclaimRemovals), so a pinned snapshot can always
// still reach every block its posting walk promises. Re-inserting a
// (value, block key) pair cancels its pending removal.
//
// Fragments keep the invariant. A write touches only the fragment that
// owns its block key, found in the directory: an insert reads and rewrites
// it, a delete stages its removal without reading it, since a live row's
// key is always posted. A fragment grown past M splits: the commit writes
// the upper halves as new fragments — which the directory learns before
// the batch applies — and the old fragment keeps its copies of their keys
// as ordinary deferred removals, so a reader whose directory predates the
// split still finds every key in it. Readers take each fragment's keys only
// below the next stored fragment's fence, so the copies are never read
// twice. A fragment leaves the directory only when reclamation deletes it.

// pendingFrag is the deferred shrinks of one posting fragment.
type pendingFrag struct {
	idx   string
	route []byte            // the value's posting key
	fence string            // the fragment's fence
	pks   map[string]uint64 // block key → the sequence that removed it
}

// fragID identifies a fragment of an index in the pending map.
func fragID(idx string, route []byte, fence string) string {
	return idx + "\x00" + string(route) + fence
}

// stagedFrag is one posting fragment's pending state inside a commit.
type stagedFrag struct {
	d      *Def
	v      relation.Value
	route  []byte   // the value's posting key
	fence  string   // the fragment's fence
	lst    [][]byte // physical content, read at the first insert
	read   bool
	adds   [][]byte // block keys this commit adds (not in lst)
	remove [][]byte // block keys this commit logically removes
	readds [][]byte // block keys re-added that are still in lst (cancel pending)

	// Set by Ops when the fragment splits: the fences of the new fragments
	// holding its upper keys, ascending, and the fence that bounded it
	// (none when it was the value's last fragment).
	split []string
	hi    string
	hasHi bool
}

// owner returns the fence of the fragment that owns pk after Ops.
func (sf *stagedFrag) owner(pk []byte) string {
	at := sort.SearchStrings(sf.split, string(pk)+"\x00") - 1
	if at < 0 {
		return sf.fence
	}
	return sf.split[at]
}

// moved reports whether pk lies in the range a split handed on.
func (sf *stagedFrag) moved(pk []byte) bool {
	return len(sf.split) > 0 && string(pk) >= sf.split[0] && (!sf.hasHi || string(pk) < sf.hi)
}

// Commit stages posting maintenance for one relation's group-committed
// write batch. Stage every tuple, apply Ops() in the caller's batch
// (before the commit sequence installs), then Apply(seq) to register
// deferred removals. Ops publishes the directory and stats changes, so a
// commit that calls it must apply its batch; abandoning before Ops leaves
// the index untouched.
type Commit struct {
	m      *Manager
	rel    string
	staged map[string]*stagedFrag // string(fragment key) -> state
}

// BeginCommit opens a staged maintenance round for rel's indexes.
func (m *Manager) BeginCommit(rel string) *Commit {
	return &Commit{m: m, rel: rel, staged: make(map[string]*stagedFrag)}
}

// frag returns the staged state of the fragment that owns block key pk
// under value v. The directory is stable while the relation's commit
// stages: only this commit and reclamation, which the commit excludes,
// change it.
func (c *Commit) frag(d *Def, v relation.Value, pk []byte) *stagedFrag {
	route := postingKey(d.id, v)
	fence := ""
	c.m.mu.RLock()
	if st := c.m.stats[d.Name]; st != nil {
		if at, ok := st.find(route); ok {
			if i := st.vals[at].locate(string(pk)); i >= 0 {
				fence = st.vals[at].frags[i].fence
			}
		}
	}
	c.m.mu.RUnlock()
	key := string(route) + fence
	sf := c.staged[key]
	if sf == nil {
		sf = &stagedFrag{d: d, v: v, route: route, fence: fence}
		c.staged[key] = sf
	}
	return sf
}

// defsOn snapshots the definitions covering rel.
func (m *Manager) defsOn(rel string) []*Def {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []*Def
	for _, d := range m.defs {
		if d.Rel == rel {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func contains(lst [][]byte, pk []byte) bool {
	at := sort.Search(len(lst), func(i int) bool { return bytes.Compare(lst[i], pk) >= 0 })
	return at < len(lst) && bytes.Equal(lst[at], pk)
}

// StageInsert stages posting maintenance for one inserted tuple: the
// owning fragment is read on its first insert.
func (c *Commit) StageInsert(kvt *obs.KV, t relation.Tuple) error {
	for _, d := range c.m.defsOn(c.rel) {
		if d.attrPos >= len(t) {
			return fmt.Errorf("index: tuple arity %d too small for %s(%s)", len(t), c.rel, d.Attr)
		}
		pk := relation.EncodeTuple(t.Project(d.keyPos))
		sf := c.frag(d, t[d.attrPos], pk)
		if !sf.read {
			if data, ok := c.m.cluster.GetRoutedT(kvt, sf.route, fragKey(sf.route, sf.fence)); ok {
				lst, err := splitPostings(data, len(d.Key))
				if err != nil {
					return fmt.Errorf("index: %s: %v", d.Name, err)
				}
				sf.lst = lst
			}
			sf.read = true
		}
		if next, canceled := removePosting(sf.remove, pk); canceled {
			sf.remove = next // delete+insert in one batch: net no-op
			continue
		}
		if contains(sf.lst, pk) {
			// Physically present already (possibly pending removal from an
			// earlier commit): keep it and cancel that removal at Apply.
			sf.readds, _ = insertPosting(sf.readds, pk)
			continue
		}
		sf.adds, _ = insertPosting(sf.adds, pk)
	}
	return nil
}

// StageDelete stages posting maintenance for one deleted tuple. It reads
// nothing: the tuple is live, so its block key is posted in the fragment
// that owns it.
func (c *Commit) StageDelete(kvt *obs.KV, t relation.Tuple) error {
	for _, d := range c.m.defsOn(c.rel) {
		if d.attrPos >= len(t) {
			return fmt.Errorf("index: tuple arity %d too small for %s(%s)", len(t), c.rel, d.Attr)
		}
		pk := relation.EncodeTuple(t.Project(d.keyPos))
		sf := c.frag(d, t[d.attrPos], pk)
		if next, was := removePosting(sf.adds, pk); was {
			sf.adds = next // insert+delete in one batch: net no-op
			continue
		}
		sf.remove, _ = insertPosting(sf.remove, pk)
		// A re-add earlier in the batch loses to the later delete.
		sf.readds, _ = removePosting(sf.readds, pk)
	}
	return nil
}

// Ops materializes the grown fragments as batch puts and publishes them to
// the directory and the stats: readers issue gets for a new fragment
// before it is written, which find nothing until the batch applies. A
// fragment that would own more than M keys splits into halves; its upper
// ones become new fragments, and the old one is rewritten only if a key
// lands in its own half. Shrinks are deferred, so a fragment with only
// removals emits nothing.
func (c *Commit) Ops() []kv.BatchOp {
	keys := make([]string, 0, len(c.staged))
	for k := range c.staged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	var ops []kv.BatchOp
	for _, k := range keys {
		sf := c.staged[k]
		st := c.m.stats[sf.d.Name]
		if len(sf.adds) == 0 || st == nil {
			continue // nothing grew, or the index was dropped mid-flight (DDL is gated; defensive)
		}
		at, ok := st.find(sf.route)
		if !ok {
			st.vals = slices.Insert(st.vals, at, valEntry{key: string(sf.route[4:]), val: sf.v})
			st.Entries++
		}
		e := &st.vals[at]
		oldLen := e.length()
		fi := sort.Search(len(e.frags), func(i int) bool { return e.frags[i].fence >= sf.fence })
		if fi == len(e.frags) || e.frags[fi].fence != sf.fence {
			e.frags = slices.Insert(e.frags, fi, frag{fence: sf.fence})
		}
		if fi+1 < len(e.frags) {
			sf.hi, sf.hasHi = e.frags[fi+1].fence, true
		}

		merged := append([][]byte{}, sf.lst...)
		for _, pk := range sf.adds {
			merged, _ = insertPosting(merged, pk)
		}
		owned := merged
		if sf.hasHi {
			owned = merged[:sort.Search(len(merged), func(i int) bool { return string(merged[i]) >= sf.hi })]
		}
		if len(owned) <= M {
			ops = append(ops, kv.BatchOp{Route: sf.route, Key: fragKey(sf.route, sf.fence), Value: joinPostings(merged)})
			e.frags[fi].n = len(merged)
		} else {
			ps := pieces(len(owned))
			for j, p := range ps[1:] {
				part := owned[p[0]:p[1]]
				f := frag{fence: string(part[0]), n: len(part)}
				sf.split = append(sf.split, f.fence)
				ops = append(ops, kv.BatchOp{Route: sf.route, Key: fragKey(sf.route, f.fence), Value: joinPostings(part)})
				e.frags = slices.Insert(e.frags, fi+j+1, f)
			}
			kept := append([][]byte{}, sf.lst...)
			for _, pk := range sf.adds {
				if string(pk) < sf.split[0] {
					kept, _ = insertPosting(kept, pk)
				}
			}
			if len(kept) > len(sf.lst) {
				ops = append(ops, kv.BatchOp{Route: sf.route, Key: fragKey(sf.route, sf.fence), Value: joinPostings(kept)})
			}
			e.frags[fi].n = len(kept)
		}
		st.resize(oldLen, e.length())
	}
	return ops
}

// Apply registers the commit's deferred removals at seq and cancels those
// of re-added pairs. A split fragment's copies of the keys it handed on
// are removed at seq, or at the earlier sequence of a key already pending,
// whose pending removal the key's new fragment inherits. Call after the
// batch ops applied, as part of install.
func (c *Commit) Apply(seq uint64) {
	c.m.pendMu.Lock()
	defer c.m.pendMu.Unlock()
	if c.m.pending == nil {
		c.m.pending = make(map[string]map[string]*pendingFrag)
	}
	pend := c.m.pending[c.rel]
	if pend == nil {
		pend = make(map[string]*pendingFrag)
		c.m.pending[c.rel] = pend
	}
	at := func(sf *stagedFrag, fence string) *pendingFrag {
		id := fragID(sf.d.Name, sf.route, fence)
		pf := pend[id]
		if pf == nil {
			pf = &pendingFrag{idx: sf.d.Name, route: sf.route, fence: fence, pks: make(map[string]uint64)}
			pend[id] = pf
		}
		return pf
	}
	for _, sf := range c.staged {
		if pf := pend[fragID(sf.d.Name, sf.route, sf.fence)]; pf != nil {
			for _, pk := range sf.readds {
				delete(pf.pks, string(pk))
			}
		}
		if len(sf.split) > 0 {
			src := at(sf, sf.fence)
			for _, pk := range sf.lst {
				if !sf.moved(pk) {
					continue
				}
				if s, ok := src.pks[string(pk)]; ok {
					at(sf, sf.owner(pk)).pks[string(pk)] = s
				} else {
					src.pks[string(pk)] = seq
				}
			}
		}
		for _, pk := range sf.remove {
			at(sf, sf.owner(pk)).pks[string(pk)] = seq
		}
	}
	for id, pf := range pend {
		if len(pf.pks) == 0 {
			delete(pend, id)
		}
	}
	if len(pend) == 0 {
		delete(c.m.pending, c.rel)
	}
}

// PendingRemovals reports the number of deferred posting shrinks queued
// for rel — the limit-pushdown quiescence check keys off it.
func (m *Manager) PendingRemovals(rel string) int {
	m.pendMu.Lock()
	defer m.pendMu.Unlock()
	n := 0
	for _, pf := range m.pending[rel] {
		n += len(pf.pks)
	}
	return n
}

// ReclaimRemovals physically applies every pending removal for rel whose
// sequence the watermark has passed: each fragment holding one shrinks (or
// vanishes, and leaves the directory) and the stats update, exactly as an
// immediate delete would have done. Failed removals (corrupt postings) stay
// pending and surface the error. The fragment reads and write-backs hold
// no manager lock, so index readers never wait on their round trips; the
// caller excludes the relation's commits, the only other writers of these
// fragments.
func (m *Manager) ReclaimRemovals(kvt *obs.KV, rel string, watermark uint64) error {
	type due struct {
		id  string
		pf  *pendingFrag
		pks []string
	}
	m.pendMu.Lock()
	var dues []due
	for id, pf := range m.pending[rel] {
		var pks []string
		for pk, seq := range pf.pks {
			if seq <= watermark {
				pks = append(pks, pk)
			}
		}
		if len(pks) > 0 {
			dues = append(dues, due{id: id, pf: pf, pks: pks})
		}
	}
	m.pendMu.Unlock()
	if len(dues) == 0 {
		return nil
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i].id < dues[j].id })

	// Batch the fragment reads (one round per storage node) and the
	// write-backs (one more): reclamation runs inside the group committer's
	// critical path, so per-fragment round trips would put unbatched storage
	// waits right back into every write's latency.
	m.mu.RLock()
	live := dues[:0]
	var done []due // resolved: their pending entries go at the end
	widths := make([]int, 0, len(dues))
	for _, du := range dues {
		if d, ok := m.defs[du.pf.idx]; ok {
			live = append(live, du)
			widths = append(widths, len(d.Key))
		} else {
			done = append(done, du) // index dropped: nothing to shrink
		}
	}
	m.mu.RUnlock()
	reqs := make([]kv.GetRequest, len(live))
	for i, du := range live {
		reqs[i] = kv.GetRequest{Route: du.pf.route, Key: fragKey(du.pf.route, du.pf.fence)}
	}
	res := m.cluster.GetManyRouted(kvt, reqs)
	var ops []kv.BatchOp
	var firstErr error
	lens := make([]int, len(live)) // each fragment's length after the shrink; -1 untouched
	for i, du := range live {
		lens[i] = -1
		var lst [][]byte
		if res[i].OK {
			var err error
			if lst, err = splitPostings(res[i].Value, widths[i]); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("index: %s: %v", du.pf.idx, err)
				}
				continue
			}
		}
		done = append(done, du)
		removed := 0
		for _, pk := range du.pks {
			var was bool
			if lst, was = removePosting(lst, []byte(pk)); was {
				removed++
			}
		}
		if removed == 0 {
			continue
		}
		lens[i] = len(lst)
		if len(lst) == 0 {
			ops = append(ops, kv.BatchOp{Route: reqs[i].Route, Key: reqs[i].Key, Delete: true})
		} else {
			ops = append(ops, kv.BatchOp{Route: reqs[i].Route, Key: reqs[i].Key, Value: joinPostings(lst)})
		}
	}
	m.cluster.ApplyBatch(kvt, ops)

	m.mu.Lock()
	for i, du := range live {
		if st := m.stats[du.pf.idx]; st != nil && lens[i] >= 0 {
			st.shrink(du.pf.route, du.pf.fence, lens[i])
		}
	}
	m.mu.Unlock()

	m.pendMu.Lock()
	defer m.pendMu.Unlock()
	pend := m.pending[rel]
	for _, du := range done {
		for _, pk := range du.pks {
			delete(du.pf.pks, pk)
		}
		if len(du.pf.pks) == 0 {
			delete(pend, du.id)
		}
	}
	if len(pend) == 0 {
		delete(m.pending, rel)
	}
	return firstErr
}

// shrink records that the fragment fenced at fence of the value whose
// posting key is route now stores n block keys; a drained fragment leaves
// the directory, and a drained list its value.
func (st *Stats) shrink(route []byte, fence string, n int) {
	at, ok := st.find(route)
	if !ok {
		return
	}
	e := &st.vals[at]
	fi := sort.Search(len(e.frags), func(i int) bool { return e.frags[i].fence >= fence })
	if fi == len(e.frags) || e.frags[fi].fence != fence {
		return
	}
	oldLen := e.length()
	if n == 0 {
		e.frags = slices.Delete(e.frags, fi, fi+1)
	} else {
		e.frags[fi].n = n
	}
	st.resize(oldLen, e.length())
	if len(e.frags) == 0 {
		st.Entries--
		st.vals = slices.Delete(st.vals, at, at+1)
	}
}
