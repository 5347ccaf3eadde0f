package baav

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// versions returns the block's versions, newest first.
func (d *verDir) versions(prefix []byte) []verEntry {
	_, id, ok := d.find(prefix, d.tag(prefix))
	if !ok {
		return nil
	}
	return append([]verEntry{d.ents[id].newest}, d.older[id]...)
}

// everyPrefix lists the 84 prefixes FuzzVersionDirectory can name.
var everyPrefix = func() []string {
	var out []string
	for _, n := range []int{1, 2, 3} {
		for i := 0; i < 1<<(2*n); i++ {
			p := make([]byte, n)
			for j := range p {
				p[j] = "\x00ab\xff"[i>>(2*j)&3]
			}
			out = append(out, string(p))
		}
	}
	return out
}()

// FuzzVersionDirectory decodes a sequence of operations from its input —
// adds, drops of present and absent versions, winner lookups at a sequence,
// and forced compactions, over short prefixes of four symbols so tags
// collide and probe runs cross — and runs it on a verDir beside a
// map[string][]verEntry model. After every operation each prefix's
// versions, newest first, are the model's, the table holds one entry per
// modelled block, and the slab's live bytes are exactly the live prefixes'
// and outnumber its dead ones.
func FuzzVersionDirectory(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 1, 1, 2, 1, 1, 0, 3, 1, 1, 5, 4, 1, 1, 2})
	f.Add(bytes.Repeat([]byte{0, 2, 1, 2, 7, 0, 2, 2, 3, 9, 1, 0, 1, 5, 2, 2}, 40))
	// 64 blocks of one version each, then every one of them dropped: the
	// slab must compact on its own along the way.
	var fill, empty []byte
	for i := byte(0); i < 64; i++ {
		fill = append(fill, 0, 2, i%4, i/4%4, i/16%4, 1)
		empty = append(empty, 6, 2, i%4, i/4%4, i/16%4, 0)
	}
	f.Add(append(fill, empty...))
	// Long random sequences: most of the 84 prefixes live at once, the table
	// grows, drops shift back entries and empty the slab past compaction.
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newVerDir()
		model := map[string][]verEntry{}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		prefix := func() []byte {
			p := make([]byte, 1+next()%3)
			for i := range p {
				p[i] = "\x00ab\xff"[next()%4]
			}
			return p
		}
		seq := uint64(0)
		for step := 0; len(data) > 0; step++ {
			switch next() % 16 {
			case 0, 1, 2, 3, 4, 5:
				p := prefix()
				seq++
				e := verEntry{ver: seq, nsegs: int(next() % 3)}
				d.add(p, e)
				model[string(p)] = append([]verEntry{e}, model[string(p)]...)
			case 6, 7, 8, 9, 10, 11:
				p := prefix()
				vs := model[string(p)]
				i := int(next()) % (len(vs) + 1)
				ver := seq + 1 // i == len(vs): a version the block does not have
				if i < len(vs) {
					ver = vs[i].ver
				}
				if got, want := d.drop(p, ver), i < len(vs); got != want {
					t.Fatalf("step %d: drop(%q, %d) = %v, want %v", step, p, ver, got, want)
				}
				if i < len(vs) {
					vs = slices.Delete(slices.Clone(vs), i, i+1)
					if len(vs) == 0 {
						delete(model, string(p))
					} else {
						model[string(p)] = vs
					}
				}
			case 12, 13, 14:
				p, at := prefix(), uint64(next())%(seq+2)
				var want verEntry
				wantOK := false
				for _, e := range model[string(p)] {
					if e.ver <= at {
						want, wantOK = e, true
						break
					}
				}
				_, wantListed := model[string(p)]
				if got, listed, ok := d.winner(p, at); got != want || ok != wantOK || listed != wantListed {
					t.Fatalf("step %d: winner(%q, %d) = %v, %v, %v; want %v, %v, %v", step, p, at, got, listed, ok, want, wantListed, wantOK)
				}
			case 15:
				d.compact()
			}
			live := 0
			for p, vs := range model {
				live += len(p)
				newest, n := d.head([]byte(p))
				if n != len(vs) || newest != vs[0] {
					t.Fatalf("step %d: head(%q) = %v, %d; want %v, %d", step, p, newest, n, vs[0], len(vs))
				}
			}
			for _, p := range everyPrefix {
				if got, want := d.versions([]byte(p)), model[p]; !slices.Equal(got, want) {
					t.Fatalf("step %d: versions(%q) = %v, want %v", step, p, got, want)
				}
			}
			if d.table.Len() != len(model) || len(d.keys)-d.dead != live {
				t.Fatalf("step %d: %d table entries and %d live slab bytes; model holds %d blocks, %d bytes",
					step, d.table.Len(), len(d.keys)-d.dead, len(model), live)
			}
			if d.dead > live {
				t.Fatalf("step %d: the slab keeps %d dead bytes beside %d live ones", step, d.dead, live)
			}
		}
	})
}
