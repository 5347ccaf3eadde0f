package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// tracethread enforces the PR 6/9 observability contract: on the query
// path (internal/baav, internal/kba, internal/parallel, internal/core), a
// kv.Cluster / baav.Store / baav.Indexes / baav.KeyBatch read must
// thread the trace when the enclosing function has an *obs.Trace or *obs.KV
// in scope. An untraced call in a traced function silently drops its kv ops
// from EXPLAIN ANALYZE, /metrics, the slow-query log, and the
// statement-statistics registry — the totals stop reconciling and nobody
// notices until a benchmark disagrees with the trace.
//
// A function "has a trace in scope" when a receiver, parameter, or any
// expression in its body is typed *obs.Trace or *obs.KV (so executor
// methods reaching their trace through e.kv() count). Flagged:
//
//   - a call of one of the untraced convenience forms in untracedForms —
//     each is its traced form with a nil trace;
//   - recv.MT(nil, ...) — a traced form explicitly discarding the in-scope
//     trace.
func tracethreadAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "tracethread",
		Doc:  "query-path storage calls must thread the in-scope *obs.Trace/*obs.KV through ...T variants",
		Inspects: func(p string) bool {
			return pathHasSuffix(p, "internal/baav", "internal/kba", "internal/parallel", "internal/core")
		},
		Run: runTracethread,
	}
}

func runTracethread(p *Pass) {
	for _, f := range p.Files {
		for _, fb := range funcBodies(f) {
			// Function literals share their enclosing declaration's
			// scope; analyzing them standalone would double-report, so
			// only walk declarations (their Inspect covers nested lits).
			if fb.decl == nil {
				continue
			}
			if !traceInScope(p, fb.decl) {
				continue
			}
			ast.Inspect(fb.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selection, ok := p.Info.Selections[sel]
				if !ok || selection.Kind() != types.MethodVal {
					return true
				}
				recv, ok := namedOf(selection.Recv())
				if !ok || !isStorageType(recv) {
					return true
				}
				name := sel.Sel.Name
				if strings.HasSuffix(name, "T") {
					if len(call.Args) > 0 && isNilIdent(call.Args[0]) {
						p.Reportf(call.Pos(), "%s.%s called with a nil trace while an *obs.Trace/*obs.KV is in scope — thread it", recv.Obj().Name(), name)
					}
					return true
				}
				if traced := untracedForms[recv.Obj().Name()+"."+name]; traced != "" {
					p.Reportf(call.Pos(), "untraced %s.%s on a traced path — use %s with the in-scope trace", recv.Obj().Name(), name, traced)
				}
				return true
			})
		}
	}
}

// traceInScope reports whether the function can reach a trace: a receiver
// or parameter of type *obs.Trace/*obs.KV, or any expression in the body
// of one of those types (a field read like e.trace, or a call like e.kv()).
func traceInScope(p *Pass, fn *ast.FuncDecl) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, field := range fl.List {
			if t, ok := p.Info.Types[field.Type]; ok && isObsTraceOrKV(t.Type) {
				return true
			}
		}
		return false
	}
	if check(fn.Recv) || check(fn.Type.Params) {
		return true
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := p.Info.Types[e]; ok && isObsTraceOrKV(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isStorageType reports whether the named type is kv.Cluster, baav.Store
// or baav.Indexes.
func isStorageType(n *types.Named) bool {
	pkg := n.Obj().Pkg()
	if pkg == nil {
		return false
	}
	switch n.Obj().Name() {
	case "Cluster":
		return pathHasSuffix(pkg.Path(), "internal/kv")
	case "Store", "Indexes", "KeyBatch":
		return pathHasSuffix(pkg.Path(), "internal/baav")
	}
	return false
}

// untracedForms lists the storage types' convenience reads that take no
// trace, each with the traced form that does the same work.
var untracedForms = map[string]string{
	"Cluster.Get":        "GetRoutedT",
	"Cluster.Scan":       "ScanT",
	"Cluster.ScanNode":   "ScanNodeT",
	"Cluster.ScanRange":  "ScanRangeNodeT",
	"Store.GetBlock":     "GetBlocksT",
	"Store.ScanInstance": "ScanInstanceNodeT",
	"Indexes.Lookup":     "Store.FetchBlocksT",
	"Indexes.Range":      "RangeLimitT",
}
