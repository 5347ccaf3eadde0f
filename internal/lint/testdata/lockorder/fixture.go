// Package fixture exercises the lockorder rule: striped mutexes must not
// nest outside the documented pairs.
package fixture

import "sync"

type shardSet struct {
	shards [16]struct{ mu sync.Mutex }
}

func nestedStripes(s *shardSet, i, j int) {
	s.shards[i].mu.Lock()
	s.shards[j].mu.Lock() // want `striped mutex s\.shards\[j\]\.mu acquired while striped s\.shards\[i\]\.mu is held`
	s.shards[j].mu.Unlock()
	s.shards[i].mu.Unlock()
}

func sequentialStripes(s *shardSet, i, j int) {
	s.shards[i].mu.Lock()
	s.shards[i].mu.Unlock()
	s.shards[j].mu.Lock() // ok: the first stripe is already released
	s.shards[j].mu.Unlock()
}

type relState struct {
	commitMu sync.Mutex
	pinMu    sync.Mutex
}

// commitThenPin follows the documented commitMu -> pinMu hierarchy.
func commitThenPin(rels map[string]*relState, name string) {
	r := rels[name]
	r.commitMu.Lock()
	r.pinMu.Lock() // ok: documented pair
	r.pinMu.Unlock()
	r.commitMu.Unlock()
}

// pinThenCommit inverts the documented order.
func pinThenCommit(rels map[string]*relState, name string) {
	r := rels[name]
	r.pinMu.Lock()
	r.commitMu.Lock() // want `striped mutex r\.commitMu acquired while striped r\.pinMu is held`
	r.commitMu.Unlock()
	r.pinMu.Unlock()
}

// waivedNesting demonstrates the suppression directive.
func waivedNesting(rels map[string]*relState, a, b string) {
	x := rels[a]
	y := rels[b]
	x.commitMu.Lock()
	//lint:ignore zidian/lockorder fixture: exercises the suppression path
	y.commitMu.Lock()
	y.commitMu.Unlock()
	x.commitMu.Unlock()
}
