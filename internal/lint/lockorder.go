package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockorder enforces the deadlock-freedom discipline of the striped locks:
// striped or per-node mutexes (reached through an index expression or a
// lookup call: shards[i].mu, nodes[n].mu, mvcc.rel(name)) must not nest.
// Acquiring a second striped lock while one is held orders two stripes of
// the same family arbitrarily, which deadlocks against the opposite
// interleaving. Documented pairs that sit on different levels of the lock
// hierarchy (commitMu -> pinMu: the group committer pins while holding its
// relation's commit lock) are allowlisted below.
func lockorderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "striped mutexes never nest outside documented pairs",
		Inspects: func(p string) bool {
			return true // striped locks live in server, obs, kv, and baav
		},
		Run: runLockorder,
	}
}

// allowedNestings are the documented lock-hierarchy pairs: holding the
// first (by mutex field name) while acquiring the second is part of the
// design, not an ordering hazard.
var allowedNestings = map[[2]string]bool{
	{"commitMu", "pinMu"}: true, // group-commit leader pins the pre-commit snapshot
}

func runLockorder(p *Pass) {
	for _, f := range p.Files {
		for _, fb := range funcBodies(f) {
			checkNestedStripes(p, fb)
		}
	}
}

type heldLock struct {
	key   string // rendered expression, identity for release matching
	field string // mutex field name, for the allowlist
	pos   token.Pos
}

func checkNestedStripes(p *Pass, fb funcBody) {
	var held []heldLock
	// Linear statement-order scan of this body only (nested literals are
	// their own funcBody entries: locks taken in a goroutine or returned
	// closure do not nest with the parent's in any enforced order).
	ast.Inspect(fb.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			if fb.lit != nil && st == fb.lit {
				return true
			}
			return false // separate funcBody entry
		case *ast.DeferStmt:
			return false // deferred unlocks release at return, not here
		case *ast.CallExpr:
			sel, ok := st.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch name {
			case "Lock", "RLock":
				if !isMutexExpr(p, sel.X) {
					return true
				}
				key := exprString(sel.X)
				if !stripedMutex(p, fb, sel.X) {
					return true
				}
				for _, h := range held {
					if h.key == key {
						continue // re-lock of the same stripe: a plain bug, but not an ordering hazard
					}
					if allowedNestings[[2]string{h.field, selectorName(sel.X)}] {
						continue
					}
					p.Reportf(st.Pos(), "striped mutex %s acquired while striped %s is held — two stripes locked in arbitrary order deadlock against the opposite interleaving", key, h.key)
					return true
				}
				held = append(held, heldLock{key: key, field: selectorName(sel.X), pos: st.Pos()})
			case "Unlock", "RUnlock":
				if !isMutexExpr(p, sel.X) {
					return true
				}
				key := exprString(sel.X)
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].key == key {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
		}
		return true
	})
}

// isMutexExpr reports whether the expression is a sync.Mutex or
// sync.RWMutex (by value or pointer).
func isMutexExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok {
		return false
	}
	return isTypeFrom(tv.Type, "sync", "Mutex") || isTypeFrom(tv.Type, "sync", "RWMutex")
}

// stripedMutex reports whether the locked expression denotes one stripe of
// a family: the expression contains an index step (shards[i].mu), or its
// root variable was assigned from an index expression or a lookup call
// (sh := s.shards[h%n]; r := st.mvcc.rel(name)).
func stripedMutex(p *Pass, fb funcBody, e ast.Expr) bool {
	if containsIndexExpr(e) {
		return true
	}
	root := rootIdent(e)
	if root == nil {
		return false
	}
	striped := false
	ast.Inspect(fb.body, func(n ast.Node) bool {
		if striped {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, l := range as.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name != root.Name {
				continue
			}
			if i < len(as.Rhs) {
				rhs := as.Rhs[i]
				if containsIndexExpr(rhs) || isLookupCall(p, rhs) {
					striped = true
					return false
				}
			} else if len(as.Rhs) == 1 {
				if isLookupCall(p, as.Rhs[0]) {
					striped = true
					return false
				}
			}
		}
		return true
	})
	return striped
}

func containsIndexExpr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.IndexExpr); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// isLookupCall reports whether the expression is a call yielding a
// pointer to a struct — the stripe-lookup shape (mvcc.rel).
func isLookupCall(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	tv, ok := p.Info.Types[call]
	if !ok {
		return false
	}
	ptr, ok := tv.Type.(*types.Pointer)
	if !ok {
		return false
	}
	_, isStruct := ptr.Elem().Underlying().(*types.Struct)
	return isStruct
}
