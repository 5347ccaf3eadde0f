package bench

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"zidian/internal/baav"
	"zidian/internal/kv"
	"zidian/internal/relation"
)

// Throughput is the Tpms (values processed per simulated millisecond across
// all storage nodes) of one system for one KV workload.
type Throughput struct {
	System string
	Read   float64
	Write  float64
}

// Exp4Throughput reproduces the KV-workload experiment: read throughput
// (bulk gets — one BaaV get retrieves a whole block, one TaaV get a single
// tuple) and write throughput (bulk puts — BaaV pays a read-modify-write)
// for every system with and without Zidian, on the MOT dataset.
func Exp4Throughput(out io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	env, err := NewEnv("mot", cfg.Scale*baseScale("mot"), cfg.Seed, cfg.Nodes, kv.Profiles())
	if err != nil {
		return err
	}
	results, err := measureThroughput(env, cfg, 500, 500)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Exp-4: KV workload throughput (Tpms, values per simulated ms, %d nodes)\n", cfg.Nodes)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "system\tread Tpms\twrite Tpms\n")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\n", r.System, r.Read, r.Write)
	}
	return w.Flush()
}

// measureThroughput runs nReads point reads and nWrites inserts against
// every system in the environment.
func measureThroughput(env *Env, cfg Config, nReads, nWrites int) ([]Throughput, error) {
	r := rand.New(rand.NewSource(cfg.Seed + 99))
	db := env.Workload.DB
	tests := db.Relation("TEST")
	vehicles := db.Relation("VEHICLE")
	if tests == nil || vehicles == nil {
		return nil, fmt.Errorf("bench: exp4 needs the MOT workload")
	}
	// Read keys: test primary keys for TaaV, vehicle ids (block keys of
	// test_by_vehicle) for BaaV.
	var testPKs, vehicleIDs []relation.Tuple
	for i := 0; i < nReads; i++ {
		t := tests.Tuples[r.Intn(len(tests.Tuples))]
		testPKs = append(testPKs, relation.Tuple{t[0]})
		v := vehicles.Tuples[r.Intn(len(vehicles.Tuples))]
		vehicleIDs = append(vehicleIDs, relation.Tuple{v[0]})
	}
	// Write payloads: fresh TEST tuples.
	fresh := make([]relation.Tuple, nWrites)
	nextID := int64(len(tests.Tuples)*100 + 1)
	for i := range fresh {
		v := vehicles.Tuples[r.Intn(len(vehicles.Tuples))]
		fresh[i] = relation.Tuple{
			relation.Int(nextID + int64(i)), v[0], relation.Int(int64(r.Intn(40))),
			relation.String("2011-06-01"), relation.String("PASS"), relation.Int(int64(r.Intn(90000))),
			relation.String("CLASS-4"), relation.Float(45), relation.Int(35),
			relation.Int(0), relation.Int(0), relation.Int(0), relation.Int(int64(r.Intn(500))),
			relation.String("MI"),
		}
	}

	var results []Throughput
	for _, sys := range env.Systems {
		// TaaV reads: one get per tuple.
		before := sys.Taav.Cluster.Metrics()
		values := int64(0)
		for _, pk := range testPKs {
			if t, ok, err := sys.Taav.Get("TEST", pk); err != nil {
				return nil, err
			} else if ok {
				values += int64(len(t))
			}
		}
		readTaav := tpms(sys.Profile, sys.Taav.Cluster.Metrics().Sub(before), env.Nodes, values)

		// TaaV writes.
		before = sys.Taav.Cluster.Metrics()
		for _, t := range fresh {
			if err := sys.Taav.Insert("TEST", t); err != nil {
				return nil, err
			}
		}
		writeTaav := tpms(sys.Profile, sys.Taav.Cluster.Metrics().Sub(before), env.Nodes, int64(nWrites*len(fresh[0])))

		// BaaV reads: one get per block.
		before = sys.Baav.Cluster.Metrics()
		values = 0
		for _, vid := range vehicleIDs {
			blk, _, _, err := sys.Baav.GetBlock("test_by_vehicle", vid)
			if err != nil {
				return nil, err
			}
			if blk != nil {
				sch := env.Workload.Schema.ByName("test_by_vehicle")
				values += blk.Rows() * int64(len(sch.Val))
			}
		}
		readBaav := tpms(sys.Profile, sys.Baav.Cluster.Metrics().Sub(before), env.Nodes, values)

		// BaaV writes: a single put(k, v) whose key already exists is a
		// read-modify-write of one block — one get, one put (the paper's
		// write workload has single-put semantics; full multi-schema
		// maintenance is measured by the maintenance tests, not here).
		before = sys.Baav.Cluster.Metrics()
		schemaT := env.Workload.Schema.ByName("test_by_vehicle")
		relT := env.Workload.DB.Schema("TEST")
		keyPos, _ := relT.Positions(schemaT.Key)
		valPos, _ := relT.Positions(schemaT.Val)
		for _, t := range fresh {
			err := sys.Baav.UpdateBlock("test_by_vehicle", t.Project(keyPos), func(blk *baav.Block) *baav.Block {
				if blk == nil {
					blk = &baav.Block{}
				}
				blk.Add(t.Project(valPos), true)
				return blk
			})
			if err != nil {
				return nil, err
			}
		}
		writeBaav := tpms(sys.Profile, sys.Baav.Cluster.Metrics().Sub(before), env.Nodes, int64(nWrites*len(fresh[0])))

		results = append(results,
			Throughput{System: SystemLabel(sys.Profile, false), Read: readTaav, Write: writeTaav},
			Throughput{System: SystemLabel(sys.Profile, true), Read: readBaav, Write: writeBaav},
		)
	}
	return results, nil
}

// tpms converts an operation delta into values-per-simulated-millisecond.
func tpms(profile kv.CostModel, delta kv.Snapshot, nodes int, values int64) float64 {
	us := profile.StorageUS(delta)/float64(nodes) +
		float64(delta.BytesRead+delta.BytesWritten)/1024*profile.ReadUSPerKB
	if us <= 0 {
		return 0
	}
	return float64(values) / (us / 1000)
}

// Exp4Horizontal reproduces the horizontal-scalability experiment: per-node
// data volume fixed, storage nodes varying (paper: 4..12), read and write
// Tpms should grow roughly linearly for all systems, with and without
// Zidian.
func Exp4Horizontal(out io.Writer, cfg Config, nodeCounts []int) error {
	cfg = cfg.normalized()
	if len(nodeCounts) == 0 {
		nodeCounts = []int{4, 8, 12}
	}
	fmt.Fprintf(out, "Exp-4: horizontal scalability (fixed per-node data, varying storage nodes)\n")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	header := false
	for _, nodes := range nodeCounts {
		sub := cfg
		sub.Nodes = nodes
		// Fixed data per node: total scale grows with the node count.
		env, err := NewEnv("mot", cfg.Scale*baseScale("mot")*float64(nodes)/8, cfg.Seed, nodes, kv.Profiles())
		if err != nil {
			return err
		}
		results, err := measureThroughput(env, sub, 400, 400)
		if err != nil {
			return err
		}
		if !header {
			var labels []string
			for _, r := range results {
				labels = append(labels, r.System+" rd", r.System+" wr")
			}
			fmt.Fprintf(w, "nodes\t%s\n", joinTab(labels))
			header = true
		}
		var cells []string
		for _, r := range results {
			cells = append(cells, fmt.Sprintf("%.1f", r.Read), fmt.Sprintf("%.1f", r.Write))
		}
		fmt.Fprintf(w, "%d\t%s\n", nodes, joinTab(cells))
	}
	return w.Flush()
}
