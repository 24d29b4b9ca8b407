// Package blockcheck classifies every function by its blocking effect —
// non-blocking, bounded-blocking, or may-block-indefinitely — and
// enforces that functions marked as the simulator's per-cycle hot path
// are provably non-blocking.
//
// The effect is a three-point lattice propagated over the call graph:
//
//	non-blocking < bounded-blocking < may-block-indefinitely
//
// Direct operations seed it: a mutex acquire or a sleep is bounded (the
// holder releases, the clock advances — progress does not depend on
// another goroutine's communication decision), while a blocking channel
// send/receive/range, a WaitGroup.Wait or a no-default select can park a
// goroutine until some other goroutine elects to rendezvous —
// indefinitely, if that goroutine never does. A function's effect is the
// maximum of its direct ops and its statically resolved callees'.
//
// The directive //simlint:hotpath, written as the last line of a
// function's doc comment, marks a function that must be non-blocking:
// any effect above that — even bounded blocking — is reported with a
// shortest witness call chain down to the operation that blocks. This is
// the code-level analogue of the paper's wormhole discipline: the routing
// decision (planMoves) must never stall on a dependent resource.
//
// Unlike the wait-for analyzers, the call list here is collected
// directly (skipping go statements and non-invoked literals) rather than
// taken from the call graph's encloser links: a spawned goroutine's
// blocking is the goroutine's, not the spawner's — go f() returns
// immediately no matter what f does.
package blockcheck

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analyzers/astq"
	"repro/internal/analyzers/conc"
)

// Effect levels, ordered.
const (
	nonBlocking = iota
	boundedBlocking
	mayBlock
)

func levelName(l int) string {
	switch l {
	case boundedBlocking:
		return "bounded-blocking"
	case mayBlock:
		return "may-block-indefinitely"
	}
	return "non-blocking"
}

// FuncEffect records one function whose effect is not non-blocking, with
// a shortest witness chain.
type FuncEffect struct {
	Func   string
	Effect string
	Via    string
}

// HotPath is the verdict for one //simlint:hotpath function: its effect,
// whether that passes, and the witness chain when it does not.
type HotPath struct {
	Func   string
	Pos    token.Position
	Effect string
	OK     bool
	Via    string
}

// Result is the per-package effect table, exported for the code
// certificate.
type Result struct {
	Funcs    []FuncEffect
	HotPaths []HotPath
}

var Analyzer = &analysis.Analyzer{
	Name: "blockcheck",
	Doc: "classify every function's blocking effect (non-blocking / bounded-blocking / " +
		"may-block-indefinitely) over the call graph and require //simlint:hotpath " +
		"functions to be non-blocking, with a witness " +
		"call chain for every violation",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !conc.InScope(pass.Pkg.Path()) {
		return Result{}, nil
	}
	files := astq.LibFiles(pass.Fset, pass.Files)
	g := callgraph.Build(pass.TypesInfo, files)

	a := &scanner{
		pass:    pass,
		g:       g,
		direct:  map[*callgraph.Func]directOp{},
		calls:   map[*callgraph.Func][]*callgraph.Func{},
		hotpath: map[*callgraph.Func]bool{},
	}
	a.collect()
	res := a.result(a.fixpoint())
	a.enforce(res)
	return res, nil
}

// directOp is the strongest direct operation of one function: its level
// and the op kind that establishes it (for witness chains).
type directOp struct {
	level int
	kind  string
}

type scanner struct {
	pass    *analysis.Pass
	g       *callgraph.Graph
	direct  map[*callgraph.Func]directOp
	calls   map[*callgraph.Func][]*callgraph.Func
	hotpath map[*callgraph.Func]bool
}

// opLevel maps one synchronization op to its effect level. Lock and
// sleep are bounded: the wait ends without another goroutine choosing to
// communicate. Blocking channel traffic, Wait and no-default selects may
// park forever.
func opLevel(op conc.Op) int {
	switch op.Kind {
	case "lock", "sleep":
		return boundedBlocking
	case "send", "recv", "range", "wait", "select":
		if op.Blocking {
			return mayBlock
		}
	}
	return nonBlocking
}

// collect computes each function's direct op level, its own call list
// (shallow, go statements skipped, defers and immediately invoked
// literals included), and its hot-path directive.
func (a *scanner) collect() {
	info := a.pass.TypesInfo
	for _, f := range a.g.Funcs {
		if f.Body == nil {
			continue
		}
		si := conc.CollectSelectInfo(f.Body)
		d := directOp{}
		for _, op := range conc.OpsIn(info, f.Body, si) {
			if l := opLevel(op); l > d.level {
				d = directOp{level: l, kind: op.Kind}
			}
		}
		a.direct[f] = d
		conc.Shallow(f.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := a.g.StaticCallee(info, call); callee != nil {
					a.calls[f] = append(a.calls[f], callee)
				}
			}
			return true
		})
		if f.Decl != nil && f.Decl.Doc != nil {
			for _, c := range f.Decl.Doc.List {
				if strings.HasPrefix(c.Text, "//simlint:hotpath") {
					a.hotpath[f] = true
				}
			}
		}
	}
}

// fixpoint propagates effects over the call lists to a deterministic
// fixed point.
func (a *scanner) fixpoint() map[*callgraph.Func]int {
	eff := map[*callgraph.Func]int{}
	for f, d := range a.direct {
		eff[f] = d.level
	}
	for changed := true; changed; {
		changed = false
		for _, f := range a.g.Funcs {
			for _, callee := range a.calls[f] {
				if eff[callee] > eff[f] {
					eff[f] = eff[callee]
					changed = true
				}
			}
		}
	}
	return eff
}

// witness returns the shortest call chain from f down to a function
// whose direct op level equals target, as "f -> g -> h (op)", following
// the same edges the fixpoint used. BFS over source-ordered call lists
// keeps it deterministic.
func (a *scanner) witness(f *callgraph.Func, target int) string {
	type node struct {
		f     *callgraph.Func
		chain []*callgraph.Func
	}
	seen := map[*callgraph.Func]bool{f: true}
	queue := []node{{f, []*callgraph.Func{f}}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if d := a.direct[n.f]; d.level == target {
			names := make([]string, len(n.chain))
			for i, g := range n.chain {
				names[i] = a.funcName(g)
			}
			return strings.Join(names, " -> ") + " (" + d.kind + ")"
		}
		for _, callee := range a.calls[n.f] {
			if seen[callee] {
				continue
			}
			seen[callee] = true
			queue = append(queue, node{callee, append(append([]*callgraph.Func{}, n.chain...), callee)})
		}
	}
	return a.funcName(f)
}

func (a *scanner) funcName(f *callgraph.Func) string {
	return a.pass.Pkg.Path() + "." + f.Name
}

// result renders the sorted effect table.
func (a *scanner) result(eff map[*callgraph.Func]int) Result {
	res := Result{}
	for _, f := range a.g.Funcs {
		if f.Body == nil {
			continue
		}
		l := eff[f]
		if l > nonBlocking {
			res.Funcs = append(res.Funcs, FuncEffect{
				Func:   a.funcName(f),
				Effect: levelName(l),
				Via:    a.witness(f, l),
			})
		}
		if a.hotpath[f] {
			hp := HotPath{
				Func:   a.funcName(f),
				Pos:    a.pass.Fset.Position(f.Decl.Pos()),
				Effect: levelName(l),
				OK:     l == nonBlocking,
			}
			if l > nonBlocking {
				hp.Via = a.witness(f, l)
			}
			res.HotPaths = append(res.HotPaths, hp)
		}
	}
	sort.Slice(res.Funcs, func(i, j int) bool { return res.Funcs[i].Func < res.Funcs[j].Func })
	sort.Slice(res.HotPaths, func(i, j int) bool { return res.HotPaths[i].Func < res.HotPaths[j].Func })
	return res
}

// enforce reports every hot-path function whose effect is not
// non-blocking.
func (a *scanner) enforce(res Result) {
	for _, hp := range res.HotPaths {
		if hp.OK {
			continue
		}
		pos := a.hotPathPos(hp.Func)
		switch hp.Effect {
		case "may-block-indefinitely":
			a.pass.Reportf(pos,
				"hot-path function %s may block indefinitely: %s — the per-cycle hot path must be provably non-blocking",
				hp.Func, hp.Via)
		default:
			a.pass.Reportf(pos,
				"hot-path function %s blocks boundedly on the hot path: %s — even bounded waits (locks, sleeps) are barred from the per-cycle hot path",
				hp.Func, hp.Via)
		}
	}
}

func (a *scanner) hotPathPos(name string) token.Pos {
	for f := range a.hotpath {
		if a.funcName(f) == name && f.Decl != nil {
			return f.Decl.Pos()
		}
	}
	return token.NoPos
}
