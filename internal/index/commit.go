package index

import (
	"bytes"
	"fmt"
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

// pendingRemoval is one deferred posting shrink.
type pendingRemoval struct {
	idx string
	v   relation.Value
	key []byte // posting key
	pk  []byte // encoded block key to remove
	seq uint64 // commit sequence that logically removed it
}

// pendKey identifies a pending removal for cancellation on re-add.
func pendKey(idx string, key, pk []byte) string {
	return idx + "\x00" + string(key) + "\x00" + string(pk)
}

// stagedPosting is one posting list's pending state inside a commit.
type stagedPosting struct {
	d      *Def
	v      relation.Value
	key    []byte
	lst    [][]byte // physical content at stage time
	adds   [][]byte // block keys this commit adds (not in lst)
	remove [][]byte // block keys this commit logically removes (in lst)
	readds [][]byte // block keys re-added that are still in lst (cancel pending)
}

// Commit stages posting maintenance for one relation's group-committed
// write batch. Stage every tuple, apply Ops() in the caller's batch
// (before the commit sequence installs), then Apply(seq) to publish stats
// and register deferred removals. Abandoning before Apply leaves the
// index untouched except for superset payloads that were never installed
// — harmless by the invariant above (callers install after applying the
// batch, so in practice abandonment happens before any write).
type Commit struct {
	m      *Manager
	rel    string
	staged map[string]*stagedPosting // string(posting key) -> state
}

// BeginCommit opens a staged maintenance round for rel's indexes.
func (m *Manager) BeginCommit(rel string) *Commit {
	return &Commit{m: m, rel: rel, staged: make(map[string]*stagedPosting)}
}

// posting returns the staged state for one posting list, reading its
// current payload on first touch.
func (c *Commit) posting(kvt *obs.KV, d *Def, v relation.Value) (*stagedPosting, error) {
	key := postingKey(d.id, v)
	if sp, ok := c.staged[string(key)]; ok {
		return sp, nil
	}
	var lst [][]byte
	if data, ok := c.m.cluster.GetRoutedT(kvt, key, key); ok {
		var err error
		if lst, err = splitPostings(data, len(d.Key)); err != nil {
			return nil, fmt.Errorf("index: %s: %v", d.Name, err)
		}
	}
	sp := &stagedPosting{d: d, v: v, key: key, lst: lst}
	c.staged[string(key)] = sp
	return sp, nil
}

// defsOn snapshots the definitions covering rel.
func (m *Manager) defsOn(rel string) ([]*Def, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []*Def
	for _, d := range m.defs {
		if d.Rel == rel {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func contains(lst [][]byte, pk []byte) bool {
	at := sort.Search(len(lst), func(i int) bool { return bytes.Compare(lst[i], pk) >= 0 })
	return at < len(lst) && bytes.Equal(lst[at], pk)
}

// StageInsert stages posting maintenance for one inserted tuple.
func (c *Commit) StageInsert(kvt *obs.KV, t relation.Tuple) error {
	defs, err := c.m.defsOn(c.rel)
	if err != nil {
		return err
	}
	for _, d := range defs {
		if d.attrPos >= len(t) {
			return fmt.Errorf("index: tuple arity %d too small for %s(%s)", len(t), c.rel, d.Attr)
		}
		sp, err := c.posting(kvt, d, t[d.attrPos])
		if err != nil {
			return err
		}
		pk := relation.EncodeTuple(t.Project(d.keyPos))
		if next, canceled := removePosting(sp.remove, pk); canceled {
			sp.remove = next // delete+insert in one batch: net no-op
			continue
		}
		if contains(sp.lst, pk) {
			// Physically present already (possibly pending removal from an
			// earlier commit): keep it and cancel that removal at Apply.
			sp.readds, _ = insertPosting(sp.readds, pk)
			continue
		}
		if !contains(sp.adds, pk) {
			sp.adds, _ = insertPosting(sp.adds, pk)
		}
	}
	return nil
}

// StageDelete stages posting maintenance for one deleted tuple.
func (c *Commit) StageDelete(kvt *obs.KV, t relation.Tuple) error {
	defs, err := c.m.defsOn(c.rel)
	if err != nil {
		return err
	}
	for _, d := range defs {
		if d.attrPos >= len(t) {
			return fmt.Errorf("index: tuple arity %d too small for %s(%s)", len(t), c.rel, d.Attr)
		}
		sp, err := c.posting(kvt, d, t[d.attrPos])
		if err != nil {
			return err
		}
		pk := relation.EncodeTuple(t.Project(d.keyPos))
		if next, was := removePosting(sp.adds, pk); was {
			sp.adds = next // insert+delete in one batch: net no-op
			continue
		}
		if contains(sp.lst, pk) && !contains(sp.remove, pk) {
			sp.remove, _ = insertPosting(sp.remove, pk)
			// A re-add earlier in the batch loses to the later delete.
			sp.readds, _ = removePosting(sp.readds, pk)
		}
	}
	return nil
}

// Ops materializes the grown posting payloads as batch puts. Shrinks are
// deferred, so a posting with only removals emits nothing.
func (c *Commit) Ops() []kv.BatchOp {
	keys := make([]string, 0, len(c.staged))
	for k := range c.staged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var ops []kv.BatchOp
	for _, k := range keys {
		sp := c.staged[k]
		if len(sp.adds) == 0 {
			continue
		}
		merged := append([][]byte{}, sp.lst...)
		for _, pk := range sp.adds {
			merged, _ = insertPosting(merged, pk)
		}
		ops = append(ops, kv.BatchOp{Route: sp.key, Key: sp.key, Value: joinPostings(merged)})
	}
	return ops
}

// Apply publishes the commit: stats for the added postings, pending
// registrations (at seq) for the removed ones, and cancellations for
// re-added pairs. Call after the batch ops applied, as part of install.
func (c *Commit) Apply(seq uint64) {
	c.m.mu.Lock()
	for _, sp := range c.staged {
		if len(sp.adds) == 0 {
			continue
		}
		st := c.m.stats[sp.d.Name]
		if st == nil {
			continue // index dropped mid-flight (DDL is gated; defensive)
		}
		oldLen := len(sp.lst)
		st.Postings += len(sp.adds)
		if oldLen == 0 {
			st.Entries++
			st.addValue(sp.v)
		}
		st.bump(oldLen, oldLen+len(sp.adds))
	}
	c.m.mu.Unlock()

	c.m.pendMu.Lock()
	defer c.m.pendMu.Unlock()
	pend := c.m.pending[c.rel]
	for _, sp := range c.staged {
		for _, pk := range append(sp.adds, sp.readds...) {
			delete(pend, pendKey(sp.d.Name, sp.key, pk))
		}
		if len(sp.remove) == 0 {
			continue
		}
		if pend == nil {
			pend = make(map[string]pendingRemoval)
			if c.m.pending == nil {
				c.m.pending = make(map[string]map[string]pendingRemoval)
			}
			c.m.pending[c.rel] = pend
		}
		for _, pk := range sp.remove {
			pend[pendKey(sp.d.Name, sp.key, pk)] = pendingRemoval{
				idx: sp.d.Name, v: sp.v, key: sp.key, pk: pk, seq: seq,
			}
		}
	}
}

// PendingRemovals reports the number of deferred posting shrinks queued
// for rel — the limit-pushdown quiescence check keys off it.
func (m *Manager) PendingRemovals(rel string) int {
	m.pendMu.Lock()
	defer m.pendMu.Unlock()
	return len(m.pending[rel])
}

// ReclaimRemovals physically applies every pending removal for rel whose
// sequence the watermark has passed: posting payloads shrink (or vanish)
// and the stats update, exactly as an immediate delete would have done.
// Failed removals (corrupt postings) stay pending and surface the error.
func (m *Manager) ReclaimRemovals(kvt *obs.KV, rel string, watermark uint64) error {
	m.pendMu.Lock()
	pend := m.pending[rel]
	type group struct {
		idx string
		v   relation.Value
		key []byte
		pks [][]byte
		ids []string // pend-map keys, removed on success
	}
	groups := make(map[string]*group)
	for id, pr := range pend {
		if pr.seq > watermark {
			continue
		}
		gk := pr.idx + "\x00" + string(pr.key)
		g := groups[gk]
		if g == nil {
			g = &group{idx: pr.idx, v: pr.v, key: pr.key}
			groups[gk] = g
		}
		g.pks = append(g.pks, pr.pk)
		g.ids = append(g.ids, id)
	}
	m.pendMu.Unlock()
	if len(groups) == 0 {
		return nil
	}
	order := make([]string, 0, len(groups))
	for gk := range groups {
		order = append(order, gk)
	}
	sort.Strings(order)

	m.mu.Lock()
	defer m.mu.Unlock()
	// Batch the posting reads (one round per storage node) and the
	// write-backs (one more): reclamation runs inside the group committer's
	// critical path, so per-group round trips would put unbatched storage
	// waits right back into every write's latency.
	live := make([]*group, 0, len(order))
	reqs := make([]kv.GetRequest, 0, len(order))
	for _, gk := range order {
		g := groups[gk]
		if _, ok := m.defs[g.idx]; !ok {
			m.clearPending(rel, g.ids) // index dropped: nothing to shrink
			continue
		}
		live = append(live, g)
		reqs = append(reqs, kv.GetRequest{Route: g.key, Key: g.key})
	}
	res := m.cluster.GetManyRouted(kvt, reqs)
	var ops []kv.BatchOp
	var firstErr error
	for i, g := range live {
		d := m.defs[g.idx]
		var lst [][]byte
		if res[i].OK {
			var err error
			if lst, err = splitPostings(res[i].Value, len(d.Key)); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("index: %s: %v", g.idx, err)
				}
				continue
			}
		}
		oldLen := len(lst)
		removed := 0
		for _, pk := range g.pks {
			var was bool
			if lst, was = removePosting(lst, pk); was {
				removed++
			}
		}
		if removed > 0 {
			st := m.stats[g.idx]
			if len(lst) == 0 {
				ops = append(ops, kv.BatchOp{Route: g.key, Key: g.key, Delete: true})
				st.Entries--
				st.removeValue(g.v)
			} else {
				ops = append(ops, kv.BatchOp{Route: g.key, Key: g.key, Value: joinPostings(lst)})
			}
			st.Postings -= removed
			st.bump(oldLen, len(lst))
		}
		m.clearPending(rel, g.ids)
	}
	m.cluster.ApplyBatch(kvt, ops)
	return firstErr
}

// clearPending drops resolved pending-removal entries.
func (m *Manager) clearPending(rel string, ids []string) {
	m.pendMu.Lock()
	defer m.pendMu.Unlock()
	pend := m.pending[rel]
	for _, id := range ids {
		delete(pend, id)
	}
	if len(pend) == 0 {
		delete(m.pending, rel)
	}
}
