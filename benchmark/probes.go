package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"time"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kv"
	"zidian/internal/parallel"
	"zidian/internal/ra"
	"zidian/internal/relation"
)

// Layer probes: each layer's public function timed alone, in a loop of a
// fixed number of calls, on inputs taken from the generated data. They run
// after the traced pass with nothing else alive in the process, so the
// malloc count of a loop is the loop's own.

// probeResult is one probe: cost per unit of work (a call, or a block, key
// or posting where the call handles many).
type probeResult struct {
	name        string
	nsPerOp     float64
	allocsPerOp float64
	ops         int64
}

// sink keeps the measured calls' results alive.
var sink int

// measure times calls invocations of fn; fn returns how many units of work
// it did.
func measure(name string, calls int, fn func(i int) int) probeResult {
	sink += fn(0) // warm: first-use allocations and lazy state stay out
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	units := 0
	for i := 0; i < calls; i++ {
		units += fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	sink += units
	if units == 0 {
		units = 1
	}
	return probeResult{
		name:        name,
		nsPerOp:     float64(elapsed.Nanoseconds()) / float64(units),
		allocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(units),
		ops:         int64(units),
	}
}

const (
	probeSamples = 256
	probeKVPairs = 20000
	probeBatch   = 64
)

// runProbes runs every probe; div divides the call counts (the smoke test
// runs a twentieth of them).
func runProbes(env *Env, div int) ([]probeResult, error) {
	store := env.Inst.Store()
	have := env.Inst.IndexNames()
	for _, ix := range []struct{ name, ddl string }{
		{"ix_obs_road", "create index ix_obs_road on OBSERVATION(road_id)"},
		{"ix_obs_speed", obsSpeedIndex},
	} {
		if !slices.Contains(have, ix.name) {
			if _, err := env.Inst.Exec(ix.ddl); err != nil {
				return nil, err
			}
		}
	}

	// Inputs: evenly spaced observation tuples and vehicle keys.
	obsRows := env.DB.Relation("OBSERVATION").Tuples
	tuples := make([]relation.Tuple, probeSamples)
	encTuples := make([][]byte, probeSamples)
	for i := range tuples {
		tuples[i] = obsRows[i*len(obsRows)/probeSamples]
		encTuples[i] = relation.EncodeTuple(tuples[i])
	}
	obsWidth := len(env.DB.Schema("OBSERVATION").Attrs)
	keys := make([]relation.Tuple, probeSamples)
	for i := range keys {
		keys[i] = relation.Tuple{relation.Int(int64(i * env.NVehicles / probeSamples))}
	}
	const instance = "test_by_vehicle"
	width := len(store.Schema.ByName(instance).Val)
	blocks := make([]*baav.Block, probeSamples)
	stats := make([]*baav.BlockStats, probeSamples)
	encBlocks := make([][]byte, probeSamples)
	for i, k := range keys {
		blk, st, _, err := store.GetBlock(instance, k)
		if err != nil || blk == nil {
			return nil, fmt.Errorf("probe input: block %v of %s: %v", k, instance, err)
		}
		blocks[i], stats[i] = blk, st
		encBlocks[i] = baav.EncodeBlock(blk, st, width)
	}

	var out []probeResult
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	add := func(p probeResult) { out = append(out, p) }
	measure := func(name string, calls int, fn func(i int) int) probeResult {
		return measure(name, max(1, calls/div), fn)
	}

	add(measure("relation.encode_tuple", 200000, func(i int) int {
		sink += len(relation.EncodeTuple(tuples[i%probeSamples]))
		return 1
	}))
	add(measure("relation.decode_tuple", 200000, func(i int) int {
		_, _, err := relation.DecodeTuple(encTuples[i%probeSamples], obsWidth)
		fail(err)
		return 1
	}))
	add(measure("baav.encode_block", 100000, func(i int) int {
		j := i % probeSamples
		sink += len(baav.EncodeBlock(blocks[j], stats[j], width))
		return 1
	}))
	add(measure("baav.decode_block", 100000, func(i int) int {
		_, _, err := baav.DecodeBlock(encBlocks[i%probeSamples], width)
		fail(err)
		return 1
	}))
	add(measure("baav.get_block", 100000, func(i int) int {
		_, _, _, err := store.GetBlock(instance, keys[i%probeSamples])
		fail(err)
		return 1
	}))
	add(measure("baav.get_blocks", 1000, func(i int) int {
		blks, _, _, err := store.GetBlocksT(nil, instance, keys)
		fail(err)
		return len(blks)
	}))
	add(measure("baav.scan_instance", 5, func(i int) int {
		n := 0
		fail(store.ScanInstance("vehicle_full", func(relation.Tuple, *baav.Block, *baav.BlockStats) bool {
			n++
			return true
		}))
		return n
	}))
	add(measure("index.lookup", 400, func(i int) int {
		_, _, err := store.Index.Lookup("ix_obs_road", relation.Int(int64(4+i%8)))
		fail(err)
		return 1
	}))
	add(measure("index.range", 100, func(i int) int {
		lo, hi := relation.Int(int64(20+i%85)), relation.Int(int64(25+i%85))
		_, ks, _, err := store.Index.Range("ix_obs_speed", &lo, &hi, true, true)
		fail(err)
		return len(ks)
	}))

	// The kv probes run on a scratch cluster of the same shape, keyed so
	// that route and key coincide, with encoded blocks as values.
	scratch := kv.NewCluster(kv.EngineHash, 4)
	pairKey := func(i int) []byte {
		return binary.BigEndian.AppendUint64([]byte("p"), uint64(i))
	}
	kvKeys := make([][]byte, probeKVPairs)
	for i := range kvKeys {
		kvKeys[i] = pairKey(i)
		scratch.Put(kvKeys[i], encBlocks[i%probeSamples])
	}
	add(measure("kv.get", 500000, func(i int) int {
		v, _ := scratch.Get(kvKeys[i*7919%probeKVPairs])
		sink += len(v)
		return 1
	}))
	reqs := make([]kv.GetRequest, probeBatch)
	add(measure("kv.get_many", 10000, func(i int) int {
		for j := range reqs {
			k := kvKeys[(i*probeBatch+j)*7919%probeKVPairs]
			reqs[j] = kv.GetRequest{Route: k, Key: k}
		}
		return len(scratch.GetManyRouted(nil, reqs))
	}))
	add(measure("kv.scan", 20, func(i int) int {
		n := 0
		scratch.Scan([]byte("p"), func(k, v []byte) bool { n++; return true })
		return n
	}))
	add(measure("kv.range", 200, func(i int) int {
		n := 0
		lo := i * 64 % (probeKVPairs - 2000)
		scratch.ScanRange([]byte("p"), pairKey(lo), pairKey(lo+1999), func(k, v []byte) bool { n++; return true })
		return n
	}))
	ops := make([]kv.BatchOp, probeBatch)
	add(measure("kv.apply_batch", 2000, func(i int) int {
		// Overwrites of existing keys: the engine's size stays put, so the
		// cost per op does not drift with the iteration count.
		for j := range ops {
			k := kvKeys[(i*probeBatch+j)*7919%probeKVPairs]
			ops[j] = kv.BatchOp{Route: k, Key: k, Value: encBlocks[(i+j)%probeSamples]}
		}
		scratch.ApplyBatch(nil, ops)
		return len(ops)
	}))

	// The two executors on the same bound plans.
	checker := core.NewChecker(store.Schema, baav.RelSchemas(env.DB)).
		WithStats(store).WithIndexes(store.Index.(core.IndexCatalog))
	var plans []*core.PlanInfo
	for _, t := range pointTemplates() {
		q, err := ra.Parse(t.SQL, env.DB)
		if err != nil {
			return nil, err
		}
		info, err := checker.Plan(q)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 16; i++ {
			bound, err := info.Bind(keys[i*probeSamples/16])
			if err != nil {
				return nil, err
			}
			plans = append(plans, bound)
		}
	}
	add(measure("kba.exec_seq", 20000, func(i int) int {
		_, _, err := core.Answer(plans[i%len(plans)], store)
		fail(err)
		return 1
	}))
	add(measure("parallel.exec_par", 20000, func(i int) int {
		_, _, err := parallel.RunKBA(plans[i%len(plans)], store, env.Workers)
		fail(err)
		return 1
	}))
	return out, firstErr
}
