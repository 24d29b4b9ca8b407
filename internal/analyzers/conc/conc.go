// Package conc holds the shared type- and AST-query helpers of the
// concurrency analyzers (lockorder, goleak, chanclose): resolving sync
// primitive calls to the lock or WaitGroup object they act on, tracing a
// channel or WaitGroup expression to its base object (the static
// identity all three analyzers abstract over: one field = one lock = one
// channel, across every instance of the type), and shallow AST walks
// that stop at nested function literals so a query about one function
// never reads another function's body.
package conc

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
)

// InScope reports whether a package is covered by the concurrency
// contract: everything under internal/ (the proof engine itself), plus
// any package outside the repo module so the analyzers' testdata fixtures
// can exercise every diagnostic.
func InScope(pkgPath string) bool {
	if pkgPath == "repro" || hasPrefix(pkgPath, "repro/") {
		return hasPrefix(pkgPath, "repro/internal/")
	}
	return true
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// BaseObj resolves an expression to the object that identifies the
// channel / mutex / WaitGroup it denotes: parens, derefs and index
// expressions are stripped; a selector chain resolves to the final field.
// All instances of a type share the field object, so fields abstract to
// one static identity — exactly how the CDG abstracts all packets in a
// channel to one vertex.
func BaseObj(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.ParenExpr:
		return BaseObj(info, e.X)
	case *ast.StarExpr:
		return BaseObj(info, e.X)
	case *ast.IndexExpr:
		return BaseObj(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return BaseObj(info, e.X)
		}
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	}
	return nil
}

// named reports whether t (after pointer stripping) is the named type
// path.name.
func named(t types.Type, path, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// IsWaitGroup reports whether t is (a pointer to) sync.WaitGroup.
func IsWaitGroup(t types.Type) bool { return named(t, "sync", "WaitGroup") }

// IsMutex reports whether t is (a pointer to) sync.Mutex or sync.RWMutex.
func IsMutex(t types.Type) bool {
	return named(t, "sync", "Mutex") || named(t, "sync", "RWMutex")
}

// SyncCall matches a method call X.m(...) whose receiver satisfies
// isRecv, returning the receiver's base object and the method name.
func SyncCall(info *types.Info, n ast.Node, isRecv func(types.Type) bool) (types.Object, string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isRecv(tv.Type) {
		return nil, "", false
	}
	return BaseObj(info, sel.X), sel.Sel.Name, true
}

// WaitGroupCall matches X.Add/Done/Wait on a sync.WaitGroup.
func WaitGroupCall(info *types.Info, n ast.Node) (types.Object, string, bool) {
	obj, m, ok := SyncCall(info, n, IsWaitGroup)
	if !ok || (m != "Add" && m != "Done" && m != "Wait") {
		return nil, "", false
	}
	return obj, m, true
}

// LockCall matches X.Lock/Unlock/RLock/RUnlock on a sync.Mutex or
// sync.RWMutex. TryLock/TryRLock never block, so they are deliberately
// not matched: a try-acquire cannot close a wait cycle.
func LockCall(info *types.Info, n ast.Node) (types.Object, string, bool) {
	obj, m, ok := SyncCall(info, n, IsMutex)
	if !ok {
		return nil, "", false
	}
	switch m {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return obj, m, true
	}
	return nil, "", false
}

// BuiltinCall matches a call of the named builtin (close, make, ...),
// rejecting shadowed identifiers: the identifier must resolve to a
// *types.Builtin object.
func BuiltinCall(info *types.Info, n ast.Node, name string) (*ast.CallExpr, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return nil, false
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return nil, false
	}
	return call, true
}

// Shallow walks the subtree of n but does not descend into nested
// function literals: queries about one function's behavior must not see
// statements that only run when some other goroutine or caller invokes
// the literal. When n itself is a *cfg.RangeHead only the range operand
// is walked (its body lives in other CFG blocks).
func Shallow(n ast.Node, f func(ast.Node) bool) {
	if rh, ok := n.(*cfg.RangeHead); ok {
		n = rh.Range.X
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		return f(x)
	})
}

// ContainsShallow reports whether some node of the shallow subtree
// matches pred.
func ContainsShallow(n ast.Node, pred func(ast.Node) bool) bool {
	found := false
	Shallow(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if pred(x) {
			found = true
		}
		return !found
	})
	return found
}

// JoinsOn reports whether the node (shallowly) receives from, ranges
// over, or closes the channel identified by obj. This is the "consumes
// the spawned goroutine's signal" predicate of goleak and chanclose.
func JoinsOn(info *types.Info, n ast.Node, obj types.Object) bool {
	if rh, ok := n.(*cfg.RangeHead); ok {
		return BaseObj(info, rh.Range.X) == obj
	}
	return ContainsShallow(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				return BaseObj(info, x.X) == obj
			}
		case *ast.CallExpr:
			if call, ok := BuiltinCall(info, x, "close"); ok && len(call.Args) == 1 {
				return BaseObj(info, call.Args[0]) == obj
			}
		case *ast.RangeStmt:
			return BaseObj(info, x.X) == obj
		}
		return false
	})
}

// RecvsFrom reports whether the node (shallowly) receives from or ranges
// over the channel obj — the positive join signal of goleak/chanclose; a
// close does not count (closing a channel does not consume a pending
// send).
func RecvsFrom(info *types.Info, n ast.Node, obj types.Object) bool {
	if rh, ok := n.(*cfg.RangeHead); ok {
		return BaseObj(info, rh.Range.X) == obj
	}
	return ContainsShallow(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				return BaseObj(info, x.X) == obj
			}
		case *ast.RangeStmt:
			return BaseObj(info, x.X) == obj
		}
		return false
	})
}

// Closes reports whether the node (shallowly) closes the channel obj.
func Closes(info *types.Info, n ast.Node, obj types.Object) bool {
	return ContainsShallow(n, func(x ast.Node) bool {
		call, ok := BuiltinCall(info, x, "close")
		if !ok || len(call.Args) != 1 {
			return false
		}
		return BaseObj(info, call.Args[0]) == obj
	})
}

// WaitsOn reports whether the node (shallowly) calls Wait on the
// WaitGroup identified by obj, directly or inside a defer.
func WaitsOn(info *types.Info, n ast.Node, obj types.Object) bool {
	return ContainsShallow(n, func(x ast.Node) bool {
		o, m, ok := WaitGroupCall(info, x)
		return ok && m == "Wait" && o == obj
	})
}

// FieldAlias returns the field a local object is published through when
// the function stores it into a struct field — `x.f = obj` or
// `x.f = append(x.f, obj)` — so an obligation on the local can transfer
// to the field (a worker pool's pattern: channels built locally, appended
// to p.jobs, closed by the pool's close method).
func FieldAlias(info *types.Info, body ast.Node, obj types.Object) types.Object {
	var alias types.Object
	Shallow(body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || alias != nil {
			return alias == nil
		}
		for i, lhs := range as.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			field := info.ObjectOf(sel.Sel)
			if field == nil || i >= len(as.Rhs) && len(as.Rhs) != 1 {
				continue
			}
			rhs := as.Rhs[0]
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			}
			if mentions(info, rhs, obj) {
				alias = field
				return false
			}
		}
		return true
	})
	return alias
}

func mentions(info *types.Info, n ast.Node, obj types.Object) bool {
	return ContainsShallow(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		return ok && info.ObjectOf(id) == obj
	})
}

// IsField reports whether obj is a struct field.
func IsField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField()
}

// ObjName renders a stable, package-qualified display name for a lock /
// channel / WaitGroup identity: fields as pkgpath.Type.field (resolved
// through the field's owning struct when it is reachable from a named
// type of the same package), package-level vars as pkgpath.var, locals as
// funcName.var.
func ObjName(pkg *types.Package, funcName string, obj types.Object) string {
	if obj == nil {
		return "?"
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		owner := fieldOwner(pkg, v)
		pkgPath := ""
		if v.Pkg() != nil {
			pkgPath = v.Pkg().Path() + "."
		}
		if owner != "" {
			return fmt.Sprintf("%s%s.%s", pkgPath, owner, v.Name())
		}
		return pkgPath + v.Name()
	}
	if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return funcName + "." + obj.Name()
}

// fieldOwner scans the package's named struct types for the one declaring
// the field, returning its type name ("" when not found — e.g. a field of
// an anonymous struct).
func fieldOwner(pkg *types.Package, field *types.Var) string {
	scope := pkg.Scope()
	if field.Pkg() != nil && field.Pkg() != pkg {
		scope = field.Pkg().Scope()
	}
	if scope == nil {
		return ""
	}
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return tn.Name()
			}
		}
	}
	return ""
}

// SpawnSites collects the go statements of each function-like node,
// keyed by the directly enclosing function, preserving source order.
func SpawnSites(files []*ast.File) map[ast.Node][]*ast.GoStmt {
	sites := map[ast.Node][]*ast.GoStmt{}
	analysis.WithStack(files, func(n ast.Node, stack []ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			encl := analysis.EnclosingFunc(stack[:len(stack)-1])
			sites[encl] = append(sites[encl], g)
		}
		return true
	})
	return sites
}

// ConstCap returns the constant capacity of a make(chan T, n) call, or
// -1 when the expression is not such a call or the capacity is not a
// compile-time constant.
func ConstCap(info *types.Info, e ast.Expr) int {
	call, ok := BuiltinCall(info, ast.Unparen(e), "make")
	if !ok || len(call.Args) < 2 {
		return -1
	}
	tv, ok := info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return -1
	}
	if c, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact && c >= 0 {
		return int(c)
	}
	return -1
}

// SpawnTarget resolves the function body a go statement runs — a literal's
// body or the declaration body of a statically resolved callee — together
// with a parameter-to-argument mapping: an obligation found on a parameter
// of the spawned function (`go f(&wg)` with Done on f's parameter) is the
// caller's obligation on the argument object. Objects that are not
// parameters map to themselves. ok is false when the spawned callee cannot
// be resolved statically (interface method, function-typed variable) —
// the loud direction for goleak, since an unresolvable spawn is an
// unverifiable join.
func SpawnTarget(info *types.Info, g *callgraph.Graph, gs *ast.GoStmt) (*ast.BlockStmt, func(types.Object) types.Object, bool) {
	var body *ast.BlockStmt
	var fields []*ast.Field
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
		fields = lit.Type.Params.List
	} else if callee := g.StaticCallee(info, gs.Call); callee != nil && callee.Decl != nil && callee.Body != nil {
		body = callee.Body
		fields = callee.Decl.Type.Params.List
	} else {
		return nil, nil, false
	}
	var params []types.Object
	for _, f := range fields {
		for _, name := range f.Names {
			params = append(params, info.ObjectOf(name))
		}
	}
	args := gs.Call.Args
	mapParam := func(obj types.Object) types.Object {
		for i, p := range params {
			if p != nil && p == obj {
				if i < len(args) {
					return BaseObj(info, args[i])
				}
				return nil // variadic / mismatched: unresolvable
			}
		}
		return obj
	}
	return body, mapParam, true
}

// Op is one synchronization operation found by OpsIn — the shared
// vocabulary of the chanwait and blockcheck analyzers. Kind is one of
// "send", "recv", "range", "wait" (WaitGroup.Wait), "close", "done"
// (WaitGroup.Done), "select" (a whole multi-arm select with no default),
// "lock" (Mutex Lock/RLock) or "sleep" (time.Sleep). Obj identifies the
// channel / WaitGroup / mutex operated on (nil for "select", "sleep",
// and operands with no static base object).
//
// Blocking marks ops that can suspend the executing goroutine right
// here: sends, receives, ranges, Waits, multi-arm selects, locks and
// sleeps — except comm operations inside a select, where the select
// itself carries the blocking (an arm is one alternative, the CDG
// analogue of an adaptive route: any arm may fire, so no single arm is a
// hold-and-wait point) and a select with a default never blocks at all.
// Non-blocking ops (close, Done, select-exempt comms) still matter to
// chanwait as the providing side of a rendezvous.
type Op struct {
	Kind     string
	Obj      types.Object
	Pos      token.Pos
	Blocking bool
}

// SelectInfo classifies the comm statements of every select in the
// shallow subtree: Exempt holds comms of selects with a default clause
// (never block), Arm holds comms of multi-arm selects without a default
// (alternatives, not individual wait points). A single-arm select
// without default is equivalent to its bare operation and marks nothing.
type SelectInfo struct {
	Exempt map[ast.Stmt]bool
	Arm    map[ast.Stmt]bool
}

// CollectSelectInfo builds the SelectInfo of one function body (shallow:
// nested literals classify their own selects).
func CollectSelectInfo(body ast.Node) SelectInfo {
	si := SelectInfo{Exempt: map[ast.Stmt]bool{}, Arm: map[ast.Stmt]bool{}}
	if body == nil {
		return si
	}
	Shallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		var comms []ast.Stmt
		for _, cs := range sel.Body.List {
			cc := cs.(*ast.CommClause)
			if cc.Comm == nil {
				hasDefault = true
				continue
			}
			comms = append(comms, cc.Comm)
		}
		for _, comm := range comms {
			switch {
			case hasDefault:
				si.Exempt[comm] = true
			case len(comms) > 1:
				si.Arm[comm] = true
			}
		}
		return true
	})
	return si
}

// OpsIn collects the synchronization operations of the shallow subtree
// of n, in evaluation order: source order, except that a send's operand
// ops precede the send op itself (`c2 <- <-c1` receives before it
// sends). go statements are skipped entirely: spawning never blocks the
// spawner, and the spawned body is another function's ops (argument
// expressions of a go call are rare enough to ignore, documented in the
// chanwait package comment). Defer statements are NOT treated specially
// here — callers that need exit-time semantics (chanwait) collect defers
// separately.
func OpsIn(info *types.Info, n ast.Node, si SelectInfo) []Op {
	var ops []Op
	if n == nil {
		return ops
	}
	if rh, ok := n.(*cfg.RangeHead); ok {
		if chanRange(info, rh.Range) {
			ops = append(ops, Op{Kind: "range", Obj: BaseObj(info, rh.Range.X), Pos: rh.Range.Pos(), Blocking: true})
		}
		n = rh.Range.X // fall through: the operand may hold nested ops
	}
	Shallow(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			blocking := true
			nComms := 0
			for _, cs := range x.Body.List {
				if cs.(*ast.CommClause).Comm == nil {
					blocking = false // default clause: never blocks
				} else {
					nComms++
				}
			}
			// The synthetic op represents the whole select for selects
			// whose comms are Arm-classified (and the block-forever
			// select{}); a single-arm select is just its bare comm op.
			if blocking && nComms != 1 {
				ops = append(ops, Op{Kind: "select", Pos: x.Pos(), Blocking: true})
			}
			return true
		case *ast.SendStmt:
			// Operands evaluate before the send commits.
			ops = append(ops, OpsIn(info, x.Chan, si)...)
			ops = append(ops, OpsIn(info, x.Value, si)...)
			ops = append(ops, Op{Kind: "send", Obj: BaseObj(info, x.Chan), Pos: x.Pos(),
				Blocking: commBlocking(x, si)})
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				ops = append(ops, Op{Kind: "recv", Obj: BaseObj(info, x.X), Pos: x.Pos(),
					Blocking: recvBlocking(info, x, si)})
			}
			return true
		case *ast.RangeStmt:
			if chanRange(info, x) {
				ops = append(ops, Op{Kind: "range", Obj: BaseObj(info, x.X), Pos: x.Pos(), Blocking: true})
			}
			return true
		case *ast.CallExpr:
			if obj, m, ok := WaitGroupCall(info, x); ok {
				switch m {
				case "Wait":
					ops = append(ops, Op{Kind: "wait", Obj: obj, Pos: x.Pos(), Blocking: true})
				case "Done":
					ops = append(ops, Op{Kind: "done", Obj: obj, Pos: x.Pos()})
				}
				return true
			}
			if obj, m, ok := LockCall(info, x); ok {
				if m == "Lock" || m == "RLock" {
					ops = append(ops, Op{Kind: "lock", Obj: obj, Pos: x.Pos(), Blocking: true})
				}
				return true
			}
			if call, ok := BuiltinCall(info, x, "close"); ok && len(call.Args) == 1 {
				ops = append(ops, Op{Kind: "close", Obj: BaseObj(info, call.Args[0]), Pos: x.Pos()})
				return true
			}
			if path, name, ok := pkgCall(info, x); ok && path == "time" && name == "Sleep" {
				ops = append(ops, Op{Kind: "sleep", Pos: x.Pos(), Blocking: true})
			}
			return true
		}
		return true
	})
	return ops
}

// commBlocking: a send blocks unless it is a select arm or under a
// select with default.
func commBlocking(s ast.Stmt, si SelectInfo) bool {
	return !si.Exempt[s] && !si.Arm[s]
}

// recvBlocking resolves the comm statement a receive expression sits in
// (`case <-ch:` is an ExprStmt comm, `case v := <-ch:` an AssignStmt)
// and applies the same select rules. A receive whose enclosing statement
// is not in either set blocks.
func recvBlocking(info *types.Info, recv *ast.UnaryExpr, si SelectInfo) bool {
	for comm := range si.Exempt {
		if containsNode(comm, recv) {
			return false
		}
	}
	for comm := range si.Arm {
		if containsNode(comm, recv) {
			return false
		}
	}
	return true
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(x ast.Node) bool {
		if x == target {
			found = true
		}
		return !found
	})
	return found
}

func chanRange(info *types.Info, r *ast.RangeStmt) bool {
	tv, ok := info.Types[r.X]
	if !ok {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// pkgCall is astq.PkgCall inlined to avoid an import cycle risk; it
// resolves pkg.Func(...) through import aliases.
func pkgCall(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
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

// ChanCaps scans the files for channel make sites assigned to a named
// object — `ch := make(chan T, n)`, `x.f = make(chan T)`, var form —
// and returns each object's constant buffer capacity: 0 for the
// single-argument form (unbuffered), the constant for the two-argument
// form, -1 (unknown) when the capacity is not a compile-time constant.
// The first make site in source order wins for an object made twice.
func ChanCaps(info *types.Info, files []*ast.File) map[types.Object]int {
	caps := map[types.Object]int{}
	record := func(lhs, rhs ast.Expr) {
		obj := BaseObj(info, lhs)
		if obj == nil {
			return
		}
		if _, seen := caps[obj]; seen {
			return
		}
		if c, ok := MakeChanCap(info, rhs); ok {
			caps[obj] = c
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					rhs := x.Rhs[0]
					if len(x.Rhs) == len(x.Lhs) {
						rhs = x.Rhs[i]
					}
					record(lhs, rhs)
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if i < len(x.Values) {
						record(name, x.Values[i])
					}
				}
			}
			return true
		})
	}
	return caps
}

// MakeChanCap recognizes a make(chan T[, n]) expression: ok reports the
// match, cap is 0 (unbuffered), the constant capacity, or -1 when the
// capacity expression is not constant.
func MakeChanCap(info *types.Info, e ast.Expr) (int, bool) {
	call, ok := BuiltinCall(info, ast.Unparen(e), "make")
	if !ok || len(call.Args) == 0 {
		return 0, false
	}
	tv, ok := info.Types[call]
	if !ok {
		return 0, false
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return 0, false
	}
	if len(call.Args) == 1 {
		return 0, true
	}
	if c := ConstCap(info, e); c >= 0 {
		return c, true
	}
	return -1, true
}

// BufferCap looks for `obj := make(chan T, n)` (or = / var form) in the
// shallow body and returns the constant capacity, or -1.
func BufferCap(info *types.Info, body ast.Node, obj types.Object) int {
	cap := -1
	Shallow(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || info.ObjectOf(id) != obj {
					continue
				}
				rhs := x.Rhs[0]
				if len(x.Rhs) == len(x.Lhs) {
					rhs = x.Rhs[i]
				}
				if c := ConstCap(info, rhs); c >= 0 {
					cap = c
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if info.ObjectOf(name) != obj || i >= len(x.Values) {
					continue
				}
				if c := ConstCap(info, x.Values[i]); c >= 0 {
					cap = c
				}
			}
		}
		return true
	})
	return cap
}
