// Package astq holds the small AST/type query helpers shared by the
// simlint analyzers.
package astq

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PkgCall resolves a call to a package-level function accessed through a
// package selector (pkg.Func(...)), returning the imported package path
// and function name. It follows import aliases via the type information,
// so `import mrand "math/rand"` still resolves to math/rand.
func PkgCall(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pn, okPkg := info.Uses[id].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// LibFiles filters out _test.go files: the determinism contract governs
// library and command code; tests are the dynamic half of the contract
// and may use wall clocks and ad-hoc seeds freely.
func LibFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	var out []*ast.File
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// InScope reports whether a package path is subject to a check limited to
// the given repo packages. Packages outside the repo module (in practice:
// the analyzers' testdata fixtures) are always in scope so fixtures can
// exercise every diagnostic.
func InScope(pkgPath string, repoScope map[string]bool) bool {
	if InRepo(pkgPath) {
		return repoScope[pkgPath]
	}
	return true
}

// InRepo reports whether a package path belongs to the repo module: the
// module-root package repro or one below it.
func InRepo(pkgPath string) bool {
	return pkgPath == "repro" || strings.HasPrefix(pkgPath, "repro/")
}

// MentionsObject reports whether the expression subtree uses the object.
func MentionsObject(info *types.Info, n ast.Node, obj types.Object) bool {
	if n == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if id, ok := x.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// AssignedObject returns the object assigned by the expression when it is
// a plain identifier (skipping the blank identifier), else nil.
func AssignedObject(info *types.Info, lhs ast.Expr) types.Object {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return info.ObjectOf(id)
}
