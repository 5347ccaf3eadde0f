package server

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"zidian"
)

// PlanCache is a bounded, lock-striped LRU cache from normalized SQL text to
// compiled zidian.Prepared statements. Compilation (parse → minimize → check
// → chase-based plan generation) dominates the latency of small scan-free
// queries, so a serving layer must reuse plans across requests; the cache
// makes that reuse safe and cheap under concurrency.
//
// The key is the normalized statement text with its `?` placeholders kept,
// so one cached template serves every binding — the serving hot path. Ad hoc
// SQL reaches the same entries: before lookup the server lifts the literals
// in `=` and `IN (...)` operand positions out of a SELECT's text
// (sql.LiftLiterals) and binds them as parameters, so `... where id = 7` and
// `... where id = 8` are one key, the one a client sending
// `... where id = ?` uses. What the planner reads stays in the text and
// therefore in the key: literals under <, <=, >, >=, <> and BETWEEN
// (index-range fences are interpolated from their values), LIMIT counts
// (plan shape), and all of INSERT, DELETE, DDL and EXPLAIN. A statement the lift declines, or whose lifted values the
// template's slot kinds reject (44.5 against an int column), is compiled
// and keyed by its literal text, exactly as if the lift did not exist.
// CacheStats splits hits three ways — ParamsHits (the client sent `?`),
// LiftedHits (the server lifted the literals), LiteralHits (a literal-text
// entry) — so which path serves a workload is visible.
//
// The key space is split across independently locked shards so concurrent
// lookups of different statements do not serialize on one mutex. Each shard
// evicts least-recently-used entries once it exceeds its share of the
// capacity.
//
// The cache does not judge what it holds. Whether a cached plan still fits
// the catalog is the server's question, asked where it reads the cache (see
// Server.cached), which drops an outdated entry with remove.
type PlanCache struct {
	shards []cacheShard
	perCap int

	hits        atomic.Int64
	paramsHits  atomic.Int64
	liftedHits  atomic.Int64
	literalHits atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
}

type cacheShard struct {
	mu  sync.Mutex
	lru *list.List // front = most recent; values are *cacheEntry
	m   map[string]*list.Element
}

type cacheEntry struct {
	key  string
	plan *zidian.Prepared
}

const defaultCacheShards = 16

// NewPlanCache builds a cache holding at most capacity plans (minimum one
// per shard). Shards are fixed at construction.
func NewPlanCache(capacity int) *PlanCache {
	nShards := defaultCacheShards
	if capacity < nShards {
		nShards = max(1, capacity)
	}
	per := max(1, capacity/nShards)
	c := &PlanCache{shards: make([]cacheShard, nShards), perCap: per}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].m = make(map[string]*list.Element)
	}
	return c
}

func (c *PlanCache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Get returns the cached plan for the normalized key, marking it most
// recently used.
func (c *PlanCache) Get(key string) (*zidian.Prepared, bool) {
	plan, ok := c.lookup(key)
	c.count(plan, ok, false)
	return plan, ok
}

// lookup is Get with the hit or miss left for the caller to count. The
// server looks a lifted template up this way and counts it only once the
// template has accepted the lifted values, so a statement that falls back to
// its literal text is counted once, by that text's lookup.
func (c *PlanCache) lookup(key string) (*zidian.Prepared, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.m[key]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.lru.MoveToFront(el)
	// Read under the lock: Put rewrites a live entry's plan in place.
	plan := el.Value.(*cacheEntry).plan
	s.mu.Unlock()
	return plan, true
}

// remove drops key's entry if it still holds plan, and reports whether it
// did: of several statements that found the same outdated plan, one removes
// it.
func (c *PlanCache) remove(key string, plan *zidian.Prepared) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok || el.Value.(*cacheEntry).plan != plan {
		return false
	}
	s.lru.Remove(el)
	delete(s.m, key)
	return true
}

// count records one lookup's outcome; lifted attributes a hit to a template
// the server derived with sql.LiftLiterals.
func (c *PlanCache) count(plan *zidian.Prepared, hit, lifted bool) {
	if !hit {
		c.misses.Add(1)
		return
	}
	c.hits.Add(1)
	switch {
	case lifted:
		c.liftedHits.Add(1)
	case plan != nil && plan.NumParams() > 0:
		c.paramsHits.Add(1)
	default:
		c.literalHits.Add(1)
	}
}

// Put stores a compiled plan (nil is a valid entry) under the normalized
// key, evicting the shard's least-recently-used entry if it is full. Racing
// Puts of the same key keep the latest plan.
func (c *PlanCache) Put(key string, plan *zidian.Prepared) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		el.Value.(*cacheEntry).plan = plan
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.m[key] = s.lru.PushFront(&cacheEntry{key: key, plan: plan})
	var evicted int64
	for s.lru.Len() > c.perCap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.m, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots hit/miss/eviction counters; the catalog fields are the
// server's to fill (see ServerCache).
func (c *PlanCache) Stats() CacheStats {
	st := CacheStats{
		Size:        c.Len(),
		Capacity:    c.perCap * len(c.shards),
		Hits:        c.hits.Load(),
		ParamsHits:  c.paramsHits.Load(),
		LiftedHits:  c.liftedHits.Load(),
		LiteralHits: c.literalHits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}
