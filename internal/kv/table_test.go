package kv

import "testing"

// TestTableReset: Reset empties the table for new entries; it keeps the
// slots of a table at least an eighth full and drops those of a sparser
// one, so a table grown for many entries is not cleared again and again
// for a few.
func TestTableReset(t *testing.T) {
	var tab Table
	fill := func(n int) {
		for id := range int32(n) {
			tag := uint32(id) * 0x9e3779b9
			slot, got := tab.Probe(int(tag), tag)
			if got >= 0 {
				t.Fatalf("id %d found %d in a table reset for it", id, got)
			}
			tab.Add(slot, tag, id)
		}
	}
	fill(1000)
	grown := tab.Bytes()
	tab.Reset()
	if tab.Len() != 0 || tab.Bytes() != grown {
		t.Fatalf("after Reset of a full table: %d entries, %d bytes; want 0 entries, %d bytes kept", tab.Len(), tab.Bytes(), grown)
	}
	fill(20)
	tab.Reset()
	if tab.Len() != 0 || tab.Bytes() != 0 {
		t.Fatalf("after Reset of a sparse table: %d entries, %d bytes; want it dropped", tab.Len(), tab.Bytes())
	}
	fill(20)
	if tab.Len() != 20 {
		t.Fatalf("%d entries after 20 adds", tab.Len())
	}
}
