package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared type- and AST-level helpers for the domain analyzers.

// namedOf unwraps pointers and aliases down to the *types.Named, if any.
func namedOf(t types.Type) (*types.Named, bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u, true
		default:
			return nil, false
		}
	}
}

// isTypeFrom reports whether t (through pointers) is the named type
// pkgSuffix.name, where pkgSuffix is matched as a full import-path suffix
// ("internal/obs" matches "zidian/internal/obs" but not "x/obs2").
func isTypeFrom(t types.Type, pkgSuffix, name string) bool {
	n, ok := namedOf(t)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Name() != name {
		return false
	}
	return pathHasSuffix(n.Obj().Pkg().Path(), pkgSuffix)
}

// isObsTraceOrKV reports whether t is *obs.Trace or *obs.KV (or the bare
// named types).
func isObsTraceOrKV(t types.Type) bool {
	return isTypeFrom(t, "internal/obs", "Trace") || isTypeFrom(t, "internal/obs", "KV")
}

// isNilIdent reports whether the expression is the predeclared nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// funcBody is one analyzable function-like body: a declaration or a
// literal, with the nodes that carry its parameters.
type funcBody struct {
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	body *ast.BlockStmt
	name string
}

// funcBodies returns every function declaration and function literal in
// the file, each as its own analysis unit.
func funcBodies(f *ast.File) []funcBody {
	var out []funcBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, funcBody{decl: fn, body: fn.Body, name: fn.Name.Name})
			}
		case *ast.FuncLit:
			out = append(out, funcBody{lit: fn, body: fn.Body, name: "func literal"})
		}
		return true
	})
	return out
}

// rootIdent returns the leftmost identifier of a selector/index/star
// chain: rootIdent(a.b[i].c) == a.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil
		}
	}
}

// selectorName returns the rightmost name of an expression: the selected
// field/method for selectors, the identifier name otherwise.
func selectorName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// calleeName returns the called function or method's bare name.
func calleeName(call *ast.CallExpr) string {
	return selectorName(call.Fun)
}

// exprString renders a (small) expression for use as a lock identity key
// and in messages.
func exprString(e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		b.WriteString(x.Name)
	case *ast.SelectorExpr:
		writeExpr(b, x.X)
		b.WriteByte('.')
		b.WriteString(x.Sel.Name)
	case *ast.IndexExpr:
		writeExpr(b, x.X)
		b.WriteByte('[')
		writeExpr(b, x.Index)
		b.WriteByte(']')
	case *ast.StarExpr:
		b.WriteByte('*')
		writeExpr(b, x.X)
	case *ast.CallExpr:
		writeExpr(b, x.Fun)
		b.WriteString("(…)")
	case *ast.ParenExpr:
		writeExpr(b, x.X)
	default:
		b.WriteString("?")
	}
}
