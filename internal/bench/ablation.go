package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kv"
	"zidian/internal/parallel"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/workload"
)

// Ablation quantifies the design choices the paper motivates:
//
//  1. interleaved vs fetch-all parallelization of ∝ (Section 7.1/7.2),
//  2. block compression with multiplicity counters (Section 8.2),
//  3. per-block statistics pushdown for aggregates (Section 8.2),
//  4. the block segmentation threshold (Section 8.2).
func Ablation(out io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	if err := ablationInterleaved(out, cfg); err != nil {
		return err
	}
	if err := ablationCompression(out, cfg); err != nil {
		return err
	}
	if err := ablationStats(out, cfg); err != nil {
		return err
	}
	return ablationSegments(out, cfg)
}

// ablationInterleaved contrasts the interleaved parallel ∝ with the
// Section 7.1 strawman (retrieve all relevant instances, then join).
func ablationInterleaved(out io.Writer, cfg Config) error {
	env, err := NewEnv("mot", cfg.Scale*baseScale("mot"), cfg.Seed, cfg.Nodes, []kv.CostModel{kv.ProfileHStore})
	if err != nil {
		return err
	}
	sys := env.Systems[0]
	fmt.Fprintf(out, "Ablation 1: interleaved ∝ vs fetch-all (scan-free MOT suite, %d workers)\n", cfg.Workers)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "strategy\tsim ms\t#get\t#data\tcomm MB\n")
	for _, mode := range []string{"interleaved", "fetch-all"} {
		var simMS, commMB float64
		var gets, data int64
		queries := env.Workload.ScanFreeQueries()
		for _, wq := range queries {
			info := env.Plan(wq.Name)
			before := sys.Baav.Cluster.Metrics()
			var m *parallel.Metrics
			if mode == "interleaved" {
				_, m, err = parallel.RunKBA(info, sys.Baav, cfg.Workers)
			} else {
				_, m, err = parallel.RunKBAFetchAll(info, sys.Baav, cfg.Workers)
			}
			if err != nil {
				return err
			}
			delta := sys.Baav.Cluster.Metrics().Sub(before)
			simMS += sys.Profile.QueryUS(delta, m.ShuffleBytes, env.Nodes, cfg.Workers) / 1000
			gets += delta.Gets + delta.ScanNexts
			data += m.DataValues
			commMB += float64(m.BytesRead+m.ShuffleBytes) / (1 << 20)
		}
		n := float64(len(queries))
		fmt.Fprintf(w, "%s\t%.2f\t%d\t%d\t%.3f\n", mode, simMS/n, gets/int64(len(queries)), data/int64(len(queries)), commMB/n)
	}
	fmt.Fprintln(w)
	return w.Flush()
}

// ablationCompression compares stores built with and without multiplicity
// compression: mapped size and bytes fetched by the query suite.
func ablationCompression(out io.Writer, cfg Config) error {
	w0, err := workload.Generate("mot", workload.Spec{Scale: cfg.Scale * baseScale("mot"), Seed: cfg.Seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Ablation 2: block compression (MOT)\n")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "compression\tstore bytes\tobs_by_region bytes\tavg fetch KB per query\n")
	for _, compress := range []bool{false, true} {
		opts := baav.DefaultOptions()
		opts.Compress = compress
		store, err := baav.Map(w0.DB, w0.Schema, kv.NewCluster(kv.EngineHash, cfg.Nodes), opts)
		if err != nil {
			return err
		}
		regionBytes, err := store.InstanceBytes("obs_by_region")
		if err != nil {
			return err
		}
		checker := core.NewChecker(w0.Schema, baav.RelSchemas(w0.DB)).WithStats(store)
		var fetch int64
		for _, wq := range w0.Queries {
			q, err := ra.Parse(wq.SQL, w0.DB)
			if err != nil {
				return err
			}
			info, err := checker.Plan(q)
			if err != nil {
				return err
			}
			before := store.Cluster.Metrics()
			if _, _, err := parallel.RunKBA(info, store, cfg.Workers); err != nil {
				return err
			}
			fetch += store.Cluster.Metrics().Sub(before).BytesRead
		}
		fmt.Fprintf(tw, "%v\t%d\t%d\t%.1f\n", compress, store.Cluster.SizeBytes(), regionBytes,
			float64(fetch)/float64(len(w0.Queries))/1024)
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// ablationStats compares the statistics pushdown against the full group-by
// for the histogram query mq10.
func ablationStats(out io.Writer, cfg Config) error {
	w0, err := workload.Generate("mot", workload.Spec{Scale: cfg.Scale * baseScale("mot"), Seed: cfg.Seed})
	if err != nil {
		return err
	}
	store, err := baav.Map(w0.DB, w0.Schema, kv.NewCluster(kv.EngineHash, cfg.Nodes), baav.DefaultOptions())
	if err != nil {
		return err
	}
	q, err := ra.Parse(w0.Queries[9].SQL, w0.DB) // mq10_busiest_regions
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Ablation 3: statistics pushdown (mq10 region histogram)\n")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "plan\t#data\tbytes read\n")

	// With statistics: the planner emits a StatsAgg header scan.
	withStats := core.NewChecker(w0.Schema, baav.RelSchemas(w0.DB)).WithStats(store)
	info, err := withStats.Plan(q)
	if err != nil {
		return err
	}
	if !info.UsedStats {
		return fmt.Errorf("bench: expected a statistics plan for mq10")
	}
	before := store.Cluster.Metrics()
	if _, _, err := parallel.RunKBA(info, store, cfg.Workers); err != nil {
		return err
	}
	delta := store.Cluster.Metrics().Sub(before)
	fmt.Fprintf(tw, "stats headers\t-\t%d\n", delta.BytesRead)

	// Without statistics: full scan + group-by.
	plain := core.NewChecker(w0.Schema, baav.RelSchemas(w0.DB))
	info2, err := plain.Plan(q)
	if err != nil {
		return err
	}
	before = store.Cluster.Metrics()
	_, m, err := parallel.RunKBA(info2, store, cfg.Workers)
	if err != nil {
		return err
	}
	delta = store.Cluster.Metrics().Sub(before)
	fmt.Fprintf(tw, "full group-by\t%d\t%d\n", m.DataValues, delta.BytesRead)
	fmt.Fprintln(tw)
	return tw.Flush()
}

// ablationSegments sweeps the block segmentation threshold and reports the
// store shape and the gets needed to fetch the largest block.
func ablationSegments(out io.Writer, cfg Config) error {
	w0, err := workload.Generate("tpch", workload.Spec{Scale: cfg.Scale * baseScale("tpch"), Seed: cfg.Seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Ablation 4: segment threshold (TPC-H lineitem_by_shipmode blocks)\n")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "threshold\tpairs\tgets per block fetch\n")
	for _, thr := range []int{64, 512, 4096} {
		opts := baav.DefaultOptions()
		opts.SegmentThreshold = thr
		store, err := baav.Map(w0.DB, w0.Schema, kv.NewCluster(kv.EngineHash, cfg.Nodes), opts)
		if err != nil {
			return err
		}
		// Fetch the MAIL block: at small thresholds it spans many segments.
		blk, _, gets, err := store.GetBlock("lineitem_by_shipmode",
			relation.Tuple{relation.String("MAIL")})
		if err != nil || blk == nil {
			return fmt.Errorf("bench: MAIL block missing: %v", err)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\n", thr, store.Cluster.Len(), gets)
	}
	return tw.Flush()
}
