package kv

import "math/bits"

// Table is an open-addressing hash index from keys its user stores elsewhere
// to their int32 ids. Each slot is one word, tag<<32 | id+1 (0: empty), tag
// being the low 32 bits of the key's hash; a key's home slot is its tag
// modulo the table's power-of-two size, probed linearly. The table holds no
// pointer, so the collector never looks inside it. The zero Table is empty
// and ready to use.
//
// The user compares keys: a lookup walks the probe sequence of its tag,
//
//	for slot := int(tag); ; slot++ {
//		slot, id := t.Probe(slot, tag)
//		if id < 0 || <key of id> == key { ... }
//	}
//
// and a miss ends at the empty slot that Add fills.
type Table struct {
	slots []uint64
	n     int
}

// minTableSlots is the table's first size; it doubles whenever it would pass
// three quarters full.
const minTableSlots = 64

// Probe returns the first slot at or after i (modulo the table's size) that
// is empty, with id -1, or holds tag, with its id.
func (t *Table) Probe(i int, tag uint32) (slot int, id int32) {
	mask := len(t.slots) - 1
	if mask < 0 {
		return 0, -1
	}
	for i &= mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return i, -1
		}
		if uint32(s>>32) == tag {
			return i, int32(uint32(s)) - 1
		}
	}
}

// Add enters id under tag at slot, the empty slot a lookup of its key ended
// at; it first grows the table when the entry would fill it past three
// quarters.
func (t *Table) Add(slot int, tag uint32, id int32) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
		slot = t.empty(tag)
	}
	t.slots[slot] = uint64(tag)<<32 | uint64(id+1)
	t.n++
}

// Reserve sizes an empty table for n entries, so that adding them does not
// grow it: for a few entries, a table of a few slots.
func (t *Table) Reserve(n int) {
	if t.n == 0 {
		t.slots = make([]uint64, 1<<bits.Len(uint(4*n/3)))
	}
}

// Reset empties the table. It keeps the slots for the next entries when
// they were at least an eighth full, so that clearing them costs no more
// than adding the entries did; a sparser table, which a few entries left
// in a table grown for many, is dropped instead.
func (t *Table) Reset() {
	switch {
	case t.n == 0:
	case 8*t.n >= len(t.slots):
		clear(t.slots)
	default:
		t.slots = nil
	}
	t.n = 0
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.n }

// Bytes returns the size of the table's slots.
func (t *Table) Bytes() int { return 8 * len(t.slots) }

// empty returns the first empty slot of tag's probe sequence.
func (t *Table) empty(tag uint32) int {
	mask := len(t.slots) - 1
	i := int(tag) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table; every entry's home follows from its tag alone.
func (t *Table) grow() {
	old := t.slots
	t.slots = make([]uint64, max(2*len(old), minTableSlots))
	for _, s := range old {
		if s != 0 {
			t.slots[t.empty(uint32(s>>32))] = s
		}
	}
}

// Remove empties slot i and shifts back the entries after it whose probe
// sequence ran through it, so no lookup ever meets a hole.
func (t *Table) Remove(i int) {
	t.n--
	mask := len(t.slots) - 1
	for {
		t.slots[i] = 0
		j := i
		for {
			j = (j + 1) & mask
			s := t.slots[j]
			if s == 0 {
				return
			}
			// The entry at j may move to i unless its home lies cyclically
			// in (i, j].
			home := int(s>>32) & mask
			if (i <= j && (home <= i || home > j)) || (i > j && home <= i && home > j) {
				t.slots[i] = s
				i = j
				break
			}
		}
	}
}
