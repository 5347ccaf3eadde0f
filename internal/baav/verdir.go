package baav

import (
	"bytes"
	"hash/maphash"
	"math/bits"
	"unsafe"

	"zidian/internal/kv"
)

// verDir is the version directory of one KV instance: for every block a
// commit wrote, and every block loaded in more than one segment, its
// materialized versions, newest first (see instVersions for the blocks it
// does not list). It is laid out for the collector: the prefixes sit back
// to back in one byte slab, the blocks in one array of entries that carry
// their newest version inline, and a kv.Table finds a prefix's entry — so a
// block with one version costs no heap object and no pointer. Only a block
// whose superseded versions await reclamation has a slice, in older. verDir
// does no locking; mvccState's mutex guards it.
type verDir struct {
	seed  maphash.Seed
	table kv.Table
	keys  []byte     // the prefixes of live entries, and dead bytes until compaction
	dead  int        // bytes of keys no live entry owns
	ents  []dirEntry // entry id → its block; a free id holds the zero entry (no prefix is empty)
	free  []int32    // free entry ids, reused by the next new block
	// older holds, per entry id, the block's versions after the newest,
	// newest first.
	older map[int32][]verEntry
}

// dirEntry is one block of a verDir: its prefix, keys[off:off+n], and its
// newest version.
type dirEntry struct {
	off, n int32
	newest verEntry
}

func newVerDir() *verDir {
	return &verDir{seed: maphash.MakeSeed(), older: make(map[int32][]verEntry)}
}

func (d *verDir) tag(prefix []byte) uint32 { return uint32(maphash.Bytes(d.seed, prefix)) }

func (d *verDir) key(id int32) []byte {
	e := &d.ents[id]
	return d.keys[e.off : e.off+e.n]
}

// find returns the slot holding prefix, or the empty slot that ends its
// probe sequence, and its entry id (ok false when absent).
func (d *verDir) find(prefix []byte, tag uint32) (slot int, id int32, ok bool) {
	for slot = int(tag); ; slot++ {
		if slot, id = d.table.Probe(slot, tag); id < 0 || bytes.Equal(d.key(id), prefix) {
			return slot, id, id >= 0
		}
	}
}

// winner returns the newest version of the block visible at seq: listed
// reports whether the directory lists the block at all, visible whether one
// of its versions is at or below seq.
func (d *verDir) winner(prefix []byte, seq uint64) (e verEntry, listed, visible bool) {
	_, id, ok := d.find(prefix, d.tag(prefix))
	if !ok {
		return verEntry{}, false, false
	}
	if e := d.ents[id].newest; e.ver <= seq {
		return e, true, true
	}
	for _, e := range d.older[id] {
		if e.ver <= seq {
			return e, true, true
		}
	}
	return verEntry{}, true, false
}

// head returns the block's newest version and its number of versions (0
// when the directory holds none).
func (d *verDir) head(prefix []byte) (verEntry, int) {
	_, id, ok := d.find(prefix, d.tag(prefix))
	if !ok {
		return verEntry{}, 0
	}
	return d.ents[id].newest, 1 + len(d.older[id])
}

// add enters e as the block's newest version.
func (d *verDir) add(prefix []byte, e verEntry) {
	tag := d.tag(prefix)
	slot, id, ok := d.find(prefix, tag)
	if ok {
		ent := &d.ents[id]
		d.older[id] = append([]verEntry{ent.newest}, d.older[id]...)
		ent.newest = e
		return
	}
	ent := dirEntry{off: int32(len(d.keys)), n: int32(len(prefix)), newest: e}
	d.keys = append(d.keys, prefix...)
	if n := len(d.free); n > 0 {
		id, d.free = d.free[n-1], d.free[:n-1]
		d.ents[id] = ent
	} else {
		id = int32(len(d.ents))
		d.ents = append(d.ents, ent)
	}
	d.table.Add(slot, tag, id)
}

// drop removes version ver of the block, reporting whether it was there.
// Dropping a block's last version removes its entry; the slab is compacted
// once its dead bytes outnumber the live ones.
func (d *verDir) drop(prefix []byte, ver uint64) bool {
	slot, id, ok := d.find(prefix, d.tag(prefix))
	if !ok {
		return false
	}
	ent, older := &d.ents[id], d.older[id]
	switch {
	case ent.newest.ver == ver && len(older) > 0:
		ent.newest, older = older[0], older[1:]
	case ent.newest.ver == ver:
		d.table.Remove(slot)
		d.dead += int(ent.n)
		*ent = dirEntry{}
		d.free = append(d.free, id)
		if 2*d.dead > len(d.keys) {
			d.compact()
		}
		return true
	default:
		i := 0
		for i < len(older) && older[i].ver != ver {
			i++
		}
		if i == len(older) {
			return false
		}
		older = append(older[:i:i], older[i+1:]...)
	}
	if len(older) == 0 {
		delete(d.older, id)
	} else {
		d.older[id] = older
	}
	return true
}

// entries returns the number of blocks the directory lists.
func (d *verDir) entries() int { return len(d.ents) - len(d.free) }

// bytes returns the memory the directory holds: live, what its entries use
// — their prefixes in the slab, their slots in the entry array, their older
// versions — and the table; dead, the slab's dead bytes and the free slots
// of the entry array.
func (d *verDir) bytes() (live, dead int64) {
	const entSize, verSize = int64(unsafe.Sizeof(dirEntry{})), int64(unsafe.Sizeof(verEntry{}))
	live = int64(len(d.keys)-d.dead) + int64(d.entries())*entSize + int64(d.table.Bytes())
	for _, older := range d.older {
		live += int64(len(older)) * verSize
	}
	return live, int64(d.dead) + int64(len(d.free))*entSize
}

// compact copies the live entries' prefixes into a fresh slab.
func (d *verDir) compact() {
	keys := make([]byte, 0, len(d.keys)-d.dead)
	for id := range d.ents {
		e := &d.ents[id]
		if e.n == 0 {
			continue // a free id
		}
		off := len(keys)
		keys = append(keys, d.keys[e.off:e.off+e.n]...)
		e.off = int32(off)
	}
	d.keys, d.dead = keys, 0
}

// loadFilter is a Bloom filter over the hashes of the blocks an instance's
// load wrote in one segment, filterBits bits and filterProbes probes per
// block: it never rules out a loaded block, and rules in about one block in
// 1 400 that the load did not write.
type loadFilter struct{ bits []uint64 }

const (
	filterBits   = 16
	filterProbes = 7
)

func newLoadFilter(hashes []uint64) loadFilter {
	if len(hashes) == 0 {
		return loadFilter{}
	}
	f := loadFilter{bits: make([]uint64, (len(hashes)*filterBits+63)/64)}
	for _, h := range hashes {
		for i := range filterProbes {
			w, bit := f.at(h, i)
			f.bits[w] |= bit
		}
	}
	return f
}

// has reports whether the block hashed to h may be one the load wrote.
func (f loadFilter) has(h uint64) bool {
	if len(f.bits) == 0 {
		return false
	}
	for i := range filterProbes {
		if w, bit := f.at(h, i); f.bits[w]&bit == 0 {
			return false
		}
	}
	return true
}

// at returns the word and bit of probe i of hash h: double hashing, scaled
// onto the filter's bits by a multiply.
func (f loadFilter) at(h uint64, i int) (int, uint64) {
	n, _ := bits.Mul64(h+uint64(i)*(bits.RotateLeft64(h, 32)|1), uint64(len(f.bits))*64)
	return int(n / 64), 1 << (n % 64)
}
