// Package reterr flags call statements that silently drop an error return
// in the experiment engine and the command-line front ends. A swallowed
// error there does not crash — it quietly produces an incomplete sweep, a
// half-written certificate file, or a table row that looks healthy, which
// is precisely the failure mode a reproduction repository cannot afford:
// the numbers must either be right or visibly absent. Every error must be
// handled, returned, or explicitly assigned away (`_ = f()` states the
// decision; a bare `f()` hides it).
package reterr

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analyzers/astq"
)

var Analyzer = &analysis.Analyzer{
	Name: "reterr",
	Doc: "flag dropped error returns in internal/experiments and cmd/; handle the error " +
		"or assign it to _ to make the decision visible",
	Run: run,
}

// inScope limits the check to the packages where a dropped error corrupts
// results silently: the experiment engine and every command front end.
// Packages outside the repo module (the testdata fixtures) are always in
// scope so the fixture can exercise every diagnostic.
func inScope(pkgPath string) bool {
	if !astq.InRepo(pkgPath) {
		return true
	}
	return pkgPath == "repro/internal/experiments" || strings.HasPrefix(pkgPath, "repro/cmd/")
}

// exemptPkgs are stdlib packages whose error returns are vestigial for
// this repository's usage: fmt printing errors surface only on broken
// writers, which terminal/file output here treats as best-effort.
var exemptPkgs = map[string]bool{
	"fmt": true,
}

// exemptRecvs are receiver types whose methods are documented to never
// return a non-nil error (their Write/WriteString just grow memory).
var exemptRecvs = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
}

func run(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range astq.LibFiles(pass.Fset, pass.Files) {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, _ = stmt.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = stmt.Call
			case *ast.DeferStmt:
				call = stmt.Call
			}
			if call == nil || !returnsError(pass.TypesInfo, call) || exempt(pass.TypesInfo, call) {
				return true
			}
			pass.Reportf(call.Pos(),
				"call drops its error result; handle it or assign it to _ to make the decision visible")
			return true
		})
	}
	return nil, nil
}

// returnsError reports whether the call yields the universe error type as
// its only result or as the last component of its result tuple — the
// position Go convention reserves for the error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if tuple, isTuple := t.(*types.Tuple); isTuple {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(tuple.Len() - 1).Type()
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// exempt recognizes the sanctioned error-dropping call forms.
func exempt(info *types.Info, call *ast.CallExpr) bool {
	if path, _, ok := astq.PkgCall(info, call); ok && exemptPkgs[path] {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if ok && named.Obj().Pkg() != nil {
		return exemptRecvs[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
	}
	return false
}
