package parallel

import (
	"fmt"
	"sync/atomic"
	"time"

	"zidian/internal/kba"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/sql"
	"zidian/internal/taav"
)

// RunTaaV executes a query with the baseline SQL-over-NoSQL strategy in
// parallel: every relation the query mentions is fully retrieved from the
// storage layer (workers split the storage nodes), shipped to the SQL
// layer, and joined there with hash shuffles — no predicate pushdown, no
// index access, exactly the behaviour the paper attributes to TaaV systems.
func RunTaaV(q *ra.Query, store *taav.Store, workers int) (*ra.Result, *Metrics, error) {
	if q.NumParams > 0 {
		return nil, nil, fmt.Errorf("parallel: cannot run a template with %d unbound parameters (bind first)", q.NumParams)
	}
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	// The join, aggregation and projection tail runs on the KBA executor
	// over already retrieved rows (no store); its shuffle volume folds into
	// the run's stats.
	var stats kba.ExecStats
	exec := func(p kba.Plan) (*kba.PartRel, error) {
		v, s, err := kba.Run(p, nil, workers, nil)
		stats.Add(s)
		return v, err
	}

	// Phase 1: retrieve. One scan per distinct relation; aliases share rows.
	var gets, data, fetch atomic.Int64
	scanned := make(map[string]*kba.PartRel)
	nodes := store.Cluster.NodeCount()
	for _, atom := range q.Atoms {
		if _, ok := scanned[atom.Rel]; ok {
			continue
		}
		raw := kba.NewPartRel(atom.Schema.AttrNames(), workers)
		err := kba.ForWorkers(workers, kba.Unsized, func(w int) error {
			var local []relation.Tuple
			var g, d, f int64
			for node := w; node < nodes; node += workers {
				err := store.ScanNode(node, atom.Rel, func(t relation.Tuple) bool {
					local = append(local, t)
					g++
					d += int64(len(t))
					f += int64(t.SizeBytes())
					return true
				})
				if err != nil {
					return err
				}
			}
			gets.Add(g)
			data.Add(d)
			fetch.Add(f)
			raw.Parts[w] = local
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		scanned[atom.Rel] = raw
	}

	// Per-atom views with qualified attributes and local predicates applied
	// (in the SQL layer, after retrieval).
	atomVals := make([]*kba.PartRel, len(q.Atoms))
	for i, atom := range q.Atoms {
		raw := scanned[atom.Rel]
		v := &kba.PartRel{Attrs: qualify(atom.Alias, atom.Schema.AttrNames()), Parts: raw.Parts}
		preds := localPreds(q, atom.Alias)
		if len(preds) > 0 {
			var err error
			if v, err = exec(&kba.Select{Input: &kba.Lit{V: v}, Preds: preds}); err != nil {
				return nil, nil, err
			}
		}
		atomVals[i] = v
	}

	// Phase 2: parallel hash joins in atom order.
	acc := atomVals[0]
	eqDone := make(map[int]bool)
	fDone := make(map[int]bool)
	has := func(attrs []string, name string) bool {
		for _, a := range attrs {
			if a == name {
				return true
			}
		}
		return false
	}
	for i := 1; i < len(q.Atoms); i++ {
		next := atomVals[i]
		var lOn, rOn []string
		for ei, eq := range q.EqAttrs {
			if eqDone[ei] {
				continue
			}
			l, r := eq.L.String(), eq.R.String()
			if has(acc.Attrs, r) && has(next.Attrs, l) {
				l, r = r, l
			}
			if has(acc.Attrs, l) && has(next.Attrs, r) {
				lOn = append(lOn, l)
				rOn = append(rOn, r)
				eqDone[ei] = true
			}
		}
		var err error
		acc, err = exec(&kba.Join{L: &kba.Lit{V: acc}, R: &kba.Lit{V: next}, LOn: lOn, ROn: rOn})
		if err != nil {
			return nil, nil, err
		}
		// Newly bound cross-atom predicates.
		var preds []kba.Pred
		for ei, eq := range q.EqAttrs {
			if !eqDone[ei] && has(acc.Attrs, eq.L.String()) && has(acc.Attrs, eq.R.String()) {
				preds = append(preds, kba.Pred{Attr: eq.L.String(), Op: sql.OpEq, RAttr: eq.R.String()})
				eqDone[ei] = true
			}
		}
		for fi, f := range q.Filters {
			if fDone[fi] || f.RCol == nil {
				continue
			}
			if has(acc.Attrs, f.Col.String()) && has(acc.Attrs, f.RCol.String()) {
				preds = append(preds, kba.Pred{Attr: f.Col.String(), Op: f.Op, RAttr: f.RCol.String()})
				fDone[fi] = true
			}
		}
		if len(preds) > 0 {
			if acc, err = exec(&kba.Select{Input: &kba.Lit{V: acc}, Preds: preds}); err != nil {
				return nil, nil, err
			}
		}
	}

	// Phase 3: projection / aggregation tail.
	var outCols []string
	var keyCols []string
	seen := make(map[string]bool)
	for _, ref := range q.Proj {
		col := ref.String()
		outCols = append(outCols, col)
		if !seen[col] {
			seen[col] = true
			keyCols = append(keyCols, col)
		}
	}
	var final kba.Plan
	if q.IsAggregate() {
		specs := make([]kba.AggSpec, len(q.Aggs))
		for i, a := range q.Aggs {
			spec := kba.AggSpec{Func: a.Func, Star: a.Star, Name: a.Name}
			if !a.Star {
				spec.Attr = a.Col.String()
			}
			specs[i] = spec
			outCols = append(outCols, a.Name)
		}
		final = &kba.GroupBy{Input: &kba.Lit{V: acc}, Keys: keyCols, Aggs: specs}
	} else {
		final = &kba.Project{Input: &kba.Lit{V: acc}, Attrs: keyCols}
		if q.Distinct {
			final = &kba.Distinct{Input: final}
		}
	}
	out, err := exec(final)
	if err != nil {
		return nil, nil, err
	}

	idx, err := out.Positions(outCols)
	if err != nil {
		return nil, nil, err
	}
	res := &ra.Result{Cols: q.OutNames}
	for _, row := range out.Rows() {
		res.Rows = append(res.Rows, row.Project(idx))
	}
	if err := ra.OrderAndLimit(res, q.OrderBy, q.Limit); err != nil {
		return nil, nil, err
	}
	stats.Gets, stats.DataValues, stats.BytesRead = gets.Load(), data.Load(), fetch.Load()
	return res, &Metrics{ExecStats: stats, Workers: workers, Wall: time.Since(start)}, nil
}

func qualify(alias string, attrs []string) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = alias + "." + a
	}
	return out
}

// localPreds collects the per-atom predicates the SQL layer applies right
// after retrieval: constant equalities, IN lists, literal filters, and
// intra-atom equalities.
func localPreds(q *ra.Query, alias string) []kba.Pred {
	var preds []kba.Pred
	for _, ce := range q.EqConsts {
		if ce.Col.Alias == alias {
			v := ce.Val
			preds = append(preds, kba.Pred{Attr: ce.Col.String(), Op: sql.OpEq, Lit: &v})
		}
	}
	for _, in := range q.Ins {
		if in.Col.Alias == alias {
			preds = append(preds, kba.Pred{Attr: in.Col.String(), In: in.Vals})
		}
	}
	for _, f := range q.Filters {
		if f.Col.Alias != alias {
			continue
		}
		if f.RCol == nil {
			lit := *f.Lit
			preds = append(preds, kba.Pred{Attr: f.Col.String(), Op: f.Op, Lit: &lit})
		} else if f.RCol.Alias == alias {
			preds = append(preds, kba.Pred{Attr: f.Col.String(), Op: f.Op, RAttr: f.RCol.String()})
		}
	}
	for _, eq := range q.EqAttrs {
		if eq.L.Alias == alias && eq.R.Alias == alias {
			preds = append(preds, kba.Pred{Attr: eq.L.String(), Op: sql.OpEq, RAttr: eq.R.String()})
		}
	}
	return preds
}
