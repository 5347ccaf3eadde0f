package workload_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/golden"
	"zidian/internal/kv"
	"zidian/internal/relation"
	"zidian/internal/workload"
)

// loadDigestIndexes are the MOT indexes whose backfill the digests cover:
// index_scan's three.
var loadDigestIndexes = []struct{ name, rel, attr string }{
	{"ix_obs_speed", "OBSERVATION", "speed"},
	{"ix_obs_road", "OBSERVATION", "road_id"},
	{"ix_vehicle_year", "VEHICLE", "year"},
}

// loadDigests renders what generating and loading each workload at scale 2
// produced: a SHA-256 of every relation's encoded tuples in order, and per
// engine and node count a SHA-256 of every node's (key, value) pairs after
// the mapping, the cluster's stored bytes, each KV instance's block count
// and degree and a SHA-256 of its blocks as ScanInstance decodes them, and
// the live versions. For MOT it then backfills loadDigestIndexes and
// digests every node again, with each index's statistics. The decoded lines
// hold the content whatever the storage format; the pairs and bytes lines
// hold the format.
func loadDigests(t *testing.T) string {
	var b strings.Builder
	engines := []struct {
		name string
		kind kv.EngineKind
	}{{"hash", kv.EngineHash}, {"lsm", kv.EngineLSM}, {"sorted", kv.EngineSorted}}
	for _, name := range []string{"mot", "tpch", "airca"} {
		w, err := workload.Generate(name, workload.Spec{Scale: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range w.DB.Names() {
			h := sha256.New()
			var buf []byte
			for _, tup := range w.DB.Relation(rel).Tuples {
				buf = relation.AppendTuple(buf[:0], tup)
				h.Write(buf)
			}
			fmt.Fprintf(&b, "%s relation %s rows %d %x\n", name, rel, w.DB.Relation(rel).Cardinality(), h.Sum(nil))
		}
		for _, eng := range engines {
			for _, nodes := range []int{1, 4} {
				cell := fmt.Sprintf("%s %s nodes=%d", name, eng.name, nodes)
				cluster := kv.NewCluster(eng.kind, nodes)
				st, err := baav.Map(w.DB, w.Schema, cluster, baav.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				writeNodeDigests(&b, cell+" store", cluster)
				fmt.Fprintf(&b, "%s bytes %d\n", cell, cluster.SizeBytes())
				for _, kvName := range w.Schema.Names() {
					fmt.Fprintf(&b, "%s kv %s blocks %d degree %d\n", cell, kvName, st.InstanceBlocks(kvName), st.Degree(kvName))
					fmt.Fprintf(&b, "%s kv %s decoded %x\n", cell, kvName, decodedDigest(t, st, kvName))
				}
				fmt.Fprintf(&b, "%s versions_live %d\n", cell, st.VersionsLive())
				if name != "mot" {
					continue
				}
				for _, ix := range loadDigestIndexes {
					n, err := st.CreateIndex(ix.name, ix.rel, ix.attr, w.DB.Relation(ix.rel).Tuples)
					if err != nil {
						t.Fatal(err)
					}
					s, _ := st.Indexes().Stats(ix.name)
					lo, hi, _ := st.Indexes().ValueBounds(ix.name)
					fmt.Fprintf(&b, "%s index %s indexed %d entries %d postings %d max %d bounds %v..%v\n",
						cell, ix.name, n, s.Entries, s.Postings, s.MaxPosting, lo, hi)
				}
				writeNodeDigests(&b, cell+" indexed", cluster)
			}
		}
	}
	return b.String()
}

// decodedDigest is a SHA-256 of every block of the named instance as
// ScanInstance returns it: the key, each tuple with its multiplicity, and
// the bits of every statistics field.
func decodedDigest(t *testing.T, st *baav.Store, name string) []byte {
	h := sha256.New()
	var buf []byte
	err := st.ScanInstance(name, func(key relation.Tuple, blk *baav.Block, stats *baav.BlockStats) bool {
		buf = relation.AppendTuple(buf[:0], key)
		buf = binary.AppendUvarint(buf, uint64(len(blk.Tuples)))
		for i, tup := range blk.Tuples {
			mult := int64(1)
			if blk.Counts != nil {
				mult = blk.Counts[i]
			}
			buf = binary.AppendVarint(buf, mult)
			buf = relation.AppendTuple(buf, tup)
		}
		if stats == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = binary.AppendVarint(buf, stats.Rows)
			buf = binary.AppendUvarint(buf, uint64(len(stats.Attrs)))
			for _, a := range stats.Attrs {
				if !a.Valid {
					buf = append(buf, 0)
					continue
				}
				buf = append(buf, 1)
				for _, f := range []float64{a.Min, a.Max, a.Sum} {
					buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
				}
			}
		}
		h.Write(buf)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return h.Sum(nil)
}

// writeNodeDigests writes one line per node of the cluster: its pair count
// and a SHA-256 of its pairs in scan order, each key and value preceded by
// its length.
func writeNodeDigests(b *strings.Builder, cell string, cluster *kv.Cluster) {
	for node := range cluster.NodeCount() {
		h := sha256.New()
		pairs := 0
		var buf []byte
		cluster.ScanNode(node, nil, func(k, v []byte) bool {
			buf = binary.AppendUvarint(buf[:0], uint64(len(k)))
			buf = append(buf, k...)
			buf = binary.AppendUvarint(buf, uint64(len(v)))
			h.Write(buf)
			h.Write(v)
			pairs++
			return true
		})
		fmt.Fprintf(b, "%s node %d pairs %d %x\n", cell, node, pairs, h.Sum(nil))
	}
}

// TestLoadDigestsHeld: generating mot, tpch and airca at scale 2 and loading
// each onto every engine at one and four nodes produces, byte for byte, the
// relations, stored pairs, instance statistics and index postings that
// testdata/load_digests.txt holds (internal/golden records it when absent).
func TestLoadDigestsHeld(t *testing.T) {
	golden.Check(t, "testdata/load_digests.txt", loadDigests(t))
}
