// Package goleak audits every `go` statement for a join obligation: some
// mechanism by which the rest of the program observes the goroutine's
// termination. The accepted obligations, in the order they are tried:
//
//  1. WaitGroup: the spawned body calls X.Done (directly or via a defer;
//     on a parameter, the argument's object). The spawn is joined when an
//     X.Add reaches the spawn site and X.Wait is guaranteed — on every
//     CFG exit path of the spawning function for a local WaitGroup (a
//     defer registered before the spawn counts), or anywhere in the
//     package for a struct-field WaitGroup (the serve.Server pattern,
//     where Close owns the Wait).
//  2. Channel signal: the spawned body sends on a channel; the join is a
//     guaranteed receive — every exit path of the spawner, or anywhere in
//     the package when the channel is (published to) a field.
//  3. Channel range: the spawned body's top loop ranges over a channel;
//     the goroutine exits when the channel is closed, so the obligation
//     is a guaranteed close, resolved with the same local/field rule.
//
// A spawn with no obligation, an unverifiable one, or a statically
// unresolvable spawned function is reported: this is the analyzer a
// deadlock-freedom certificate leans on, so it is loud where the graph is
// blind. It pins the shutdown paths of runner.Map, serve.Server and
// livefabric.Fabric in CI.
package goleak

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
	"repro/internal/analyzers/astq"
	"repro/internal/analyzers/conc"
)

// Spawn is the audit record of one go statement, exported into the code
// certificate.
type Spawn struct {
	Pos        token.Position
	Func       string // spawning function
	Obligation string // "waitgroup", "channel-recv", "channel-range", "none"
	On         string // the WaitGroup / channel identity the obligation is on
	Join       string // how the join was proven (empty when not proven)
	OK         bool
}

// Result is the per-package spawn audit, sorted by position.
type Result struct {
	Spawns []Spawn
}

var Analyzer = &analysis.Analyzer{
	Name: "goleak",
	Doc: "require a join obligation on every go statement — WaitGroup Add/Done/Wait balance " +
		"or a channel signal/close guaranteed on every exit path — so no goroutine outlives " +
		"its spawner unobserved",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !conc.InScope(pass.Pkg.Path()) {
		return Result{}, nil
	}
	files := astq.LibFiles(pass.Fset, pass.Files)
	g := callgraph.Build(pass.TypesInfo, files)
	a := &auditor{pass: pass, g: g, files: files}

	sites := conc.SpawnSites(files)
	encls := make([]ast.Node, 0, len(sites))
	for encl := range sites {
		encls = append(encls, encl)
	}
	sort.Slice(encls, func(i, j int) bool { return pos(encls[i]) < pos(encls[j]) })

	var res Result
	for _, encl := range encls {
		f := g.FuncFor(encl)
		if f == nil || f.Body == nil {
			continue
		}
		c := cfg.New(f.Body)
		for _, gs := range sites[encl] {
			sp := a.audit(f, c, gs)
			if !sp.OK {
				pass.Reportf(gs.Pos(), "unjoined goroutine in %s: %s", sp.Func, sp.Join)
				sp.Join = ""
			}
			res.Spawns = append(res.Spawns, sp)
		}
	}
	sort.Slice(res.Spawns, func(i, j int) bool {
		x, y := res.Spawns[i], res.Spawns[j]
		if x.Pos.Filename != y.Pos.Filename {
			return x.Pos.Filename < y.Pos.Filename
		}
		return x.Pos.Offset < y.Pos.Offset
	})
	return res, nil
}

func pos(n ast.Node) token.Pos {
	if n == nil {
		return token.NoPos
	}
	return n.Pos()
}

type auditor struct {
	pass  *analysis.Pass
	g     *callgraph.Graph
	files []*ast.File
}

// audit resolves and verifies the join obligation of one go statement.
// When the spawn fails, the failure explanation is returned in Join (the
// caller reports it and clears the field).
func (a *auditor) audit(f *callgraph.Func, c *cfg.CFG, gs *ast.GoStmt) Spawn {
	info := a.pass.TypesInfo
	sp := Spawn{Pos: a.pass.Fset.Position(gs.Pos()), Func: f.Name, Obligation: "none"}

	body, mapParam, ok := conc.SpawnTarget(info, a.g, gs)
	if !ok {
		sp.Join = "spawned function is not statically resolvable, so no join obligation can be verified"
		return sp
	}

	// Obligation 1: WaitGroup Done in the spawned body.
	if obj := firstWaitGroupDone(info, body); obj != nil {
		sp.Obligation = "waitgroup"
		obj = mapParam(obj)
		if obj == nil {
			sp.Join = "goroutine calls Done on a WaitGroup the spawner cannot name"
			return sp
		}
		sp.On = conc.ObjName(a.pass.Pkg, f.Name, obj)
		if !a.addReachesSpawn(f, c, gs, obj) {
			sp.Join = fmt.Sprintf("goroutine calls Done on %s but no %s.Add reaches the spawn", sp.On, obj.Name())
			return sp
		}
		return a.verifyJoin(sp, f, c, gs, obj,
			func(n ast.Node) bool { return conc.WaitsOn(info, n, obj) },
			func(o types.Object, n ast.Node) bool {
				oo, m, ok := conc.WaitGroupCall(info, n)
				return ok && m == "Wait" && oo == o
			},
			"Wait")
	}

	// Obligation 2: the spawned body sends on a channel; join by receive.
	if obj := firstChanSend(info, body); obj != nil {
		sp.Obligation = "channel-recv"
		obj = mapParam(obj)
		if obj == nil {
			sp.Join = "goroutine sends on a channel the spawner cannot name"
			return sp
		}
		sp.On = conc.ObjName(a.pass.Pkg, f.Name, obj)
		return a.verifyJoin(sp, f, c, gs, obj,
			func(n ast.Node) bool { return conc.RecvsFrom(info, n, obj) },
			exactRecv(info),
			"receive")
	}

	// Obligation 3: the spawned body ranges over a channel; join by close.
	if obj := firstChanRange(info, body); obj != nil {
		sp.Obligation = "channel-range"
		obj = mapParam(obj)
		if obj == nil {
			sp.Join = "goroutine ranges over a channel the spawner cannot name"
			return sp
		}
		sp.On = conc.ObjName(a.pass.Pkg, f.Name, obj)
		return a.verifyJoin(sp, f, c, gs, obj,
			func(n ast.Node) bool { return conc.Closes(info, n, obj) },
			func(o types.Object, n ast.Node) bool {
				call, ok := conc.BuiltinCall(info, n, "close")
				return ok && len(call.Args) == 1 && conc.BaseObj(info, call.Args[0]) == o
			},
			"close")
	}

	sp.Join = "no join obligation in spawned body (no WaitGroup Done, channel send, or channel range)"
	return sp
}

// verifyJoin applies the local/field join rule: a struct-field obligation
// (or a local published into a field) is satisfied by a joining node
// anywhere in the package; a local one must be hit on every CFG exit path
// of the spawner after the spawn, or by a defer registered before it.
// hit tests containment (a CFG node whose subtree joins); exact tests a
// single precise AST node, which the package-wide walk needs to attribute
// the join to its enclosing function.
func (a *auditor) verifyJoin(sp Spawn, f *callgraph.Func, c *cfg.CFG, gs *ast.GoStmt,
	obj types.Object, hit func(ast.Node) bool, exact func(types.Object, ast.Node) bool, verb string) Spawn {

	if conc.IsField(obj) {
		if fn := a.packageWide(func(n ast.Node) bool { return exact(obj, n) }); fn != "" {
			sp.Join = verb + " in " + fn
			sp.OK = true
			return sp
		}
		sp.Join = fmt.Sprintf("no %s on %s anywhere in the package", verb, sp.On)
		return sp
	}
	if c.EveryPathHits(gs, hit) {
		sp.Join = verb + " on every exit path of " + f.Name
		sp.OK = true
		return sp
	}
	for _, d := range c.Defers {
		if hit(d) && c.Reaches(d, gs) {
			sp.Join = verb + " deferred before spawn in " + f.Name
			sp.OK = true
			return sp
		}
	}
	if alias := conc.FieldAlias(a.pass.TypesInfo, f.Body, obj); alias != nil {
		aliasName := conc.ObjName(a.pass.Pkg, f.Name, alias)
		if fn := a.packageWide(func(n ast.Node) bool { return exact(alias, n) }); fn != "" {
			sp.On = sp.On + " (published as " + aliasName + ")"
			sp.Join = verb + " in " + fn
			sp.OK = true
			return sp
		}
	}
	sp.Join = fmt.Sprintf("%s on %s is not guaranteed on every exit path of %s", verb, sp.On, f.Name)
	return sp
}

// addReachesSpawn checks the Add half of the WaitGroup balance: some
// X.Add must flow into the spawn site (same function, reachable before
// the go statement). Field WaitGroups follow the same rule — the repo
// idiom puts Add next to the spawn even when Wait lives elsewhere.
func (a *auditor) addReachesSpawn(f *callgraph.Func, c *cfg.CFG, gs *ast.GoStmt, obj types.Object) bool {
	info := a.pass.TypesInfo
	isAdd := func(n ast.Node) bool {
		return conc.ContainsShallow(n, func(x ast.Node) bool {
			o, m, ok := conc.WaitGroupCall(info, x)
			return ok && m == "Add" && o == obj
		})
	}
	for _, blk := range c.Blocks {
		for _, n := range blk.Nodes {
			if n == gs || !isAdd(n) {
				continue
			}
			if c.Reaches(n, gs) {
				return true
			}
		}
	}
	return false
}

// packageWide scans every function in the package (nested literals
// included) for a node matching pred, returning the name of the first
// containing function, or "".
func (a *auditor) packageWide(pred func(ast.Node) bool) string {
	found := ""
	analysis.WithStack(a.files, func(n ast.Node, stack []ast.Node) bool {
		if found != "" {
			return false
		}
		if pred(n) {
			if f := a.g.FuncFor(analysis.EnclosingFunc(stack)); f != nil {
				found = f.Name
			} else {
				found = "package scope"
			}
			return false
		}
		// Descend everywhere: a join owned by another function is the
		// point of the package-wide rule.
		return true
	})
	return found
}

// exactRecv matches a single AST node that receives from or ranges over
// the channel o.
func exactRecv(info *types.Info) func(types.Object, ast.Node) bool {
	return func(o types.Object, n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			return x.Op == token.ARROW && conc.BaseObj(info, x.X) == o
		case *ast.RangeStmt:
			return conc.BaseObj(info, x.X) == o
		}
		return false
	}
}

// firstWaitGroupDone returns the WaitGroup object of the first X.Done()
// in the shallow body (defers included), or nil.
func firstWaitGroupDone(info *types.Info, body ast.Node) types.Object {
	var obj types.Object
	conc.Shallow(body, func(n ast.Node) bool {
		if obj != nil {
			return false
		}
		if o, m, ok := conc.WaitGroupCall(info, n); ok && m == "Done" {
			obj = o
			return false
		}
		return true
	})
	return obj
}

// firstChanSend returns the channel object of the first send statement in
// the shallow body, or nil.
func firstChanSend(info *types.Info, body ast.Node) types.Object {
	var obj types.Object
	conc.Shallow(body, func(n ast.Node) bool {
		if obj != nil {
			return false
		}
		if s, ok := n.(*ast.SendStmt); ok {
			obj = conc.BaseObj(info, s.Chan)
			return false
		}
		return true
	})
	return obj
}

// firstChanRange returns the channel object the shallow body ranges over,
// or nil.
func firstChanRange(info *types.Info, body ast.Node) types.Object {
	var obj types.Object
	conc.Shallow(body, func(n ast.Node) bool {
		if obj != nil {
			return false
		}
		if r, ok := n.(*ast.RangeStmt); ok {
			if tv, tok := info.Types[r.X]; tok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					obj = conc.BaseObj(info, r.X)
					return false
				}
			}
		}
		return true
	})
	return obj
}
