// Package chanwait builds the channel wait-for graph of a package — the
// Dally–Seitz channel-dependency argument applied to the repository's
// own goroutines and channels — and proves it acyclic, reporting minimal
// cycles as counterexamples exactly as fabricver does for a fabric CDG.
//
// # The model
//
// Vertices are static channel and WaitGroup identities (conc.BaseObj: a
// struct field abstracts every instance; a local published into a field
// via conc.FieldAlias takes the field's identity — a worker pool's shape).
// Each channel carries its make-site buffer capacity, the "VC count" of
// the analogy: an unbuffered channel is a VC-free link, a capacity-k
// channel a link with k virtual channels' worth of slack.
//
// An edge B -> A records a program-order dependency: some context may
// execute a blocking operation on A and later an operation on B, so B's
// rendezvous cannot complete while that context is parked on A. A cycle
// means every rendezvous in it can be waiting on another — the
// hold-and-wait loop of a cyclic CDG — and buffering only delays it
// (finite VCs never break a cyclic CDG; see the buffered fixture).
//
// # What generates edges, precisely
//
//   - Blocking ops (Op.Blocking, per conc.OpsIn): send, receive, range
//     over a channel, WaitGroup.Wait. They enter the context's
//     "pending earlier" set AND pair as the later side against it.
//   - Non-blocking counterpart ops (close, Done, select-with-default
//     comms) and select arms pair only as the later side: they provide a
//     rendezvous others may wait on but park nobody here. A multi-arm
//     select without default is the adaptive-routing escape of the
//     analogy — any arm may fire, so no single arm is a hold point and
//     the select as a whole names no one resource (its arms do).
//   - Ordering is forward-only within one loop iteration: back edges of
//     the CFG are cut before the dataflow, so a worker loop's
//     cross-iteration feedback (send done, then receive the NEXT job)
//     does not fold successive barrier rounds onto one vertex pair and
//     manufacture a cycle. Pipelined rounds are governed by the
//     goleak/chanclose obligations, not this graph.
//   - Intra-package calls fold the callee's transitive field/package
//     -level op set at the call site as later-side ops only: a call that
//     returned has completed its rendezvous (release-on-return, the
//     analogue of lockorder's held-set not growing across a call).
//     Ordering constraints therefore do not propagate out of completed
//     calls; each function's own context contributes its internal order.
//   - Deferred ops run at function exit: they pair as the later side
//     against every blocking op of the function (defers are registered
//     before the ops they outwait in this repo's idiom).
//   - go statements contribute nothing to the spawner (spawning never
//     blocks); the spawned literal or declaration is its own context.
//     Argument expressions of a go call are not scanned.
//   - Self-pairs (two ops on one identity) are dropped: with fields
//     abstracting instances and loops abstracting iterations they are
//     artifacts, unlike lockorder's self-edge (recursive Lock), which is
//     a real deadlock.
//
// Unknown callees (interface methods, function-typed values, other
// packages) contribute nothing — the conservative-quiet choice shared
// with lockorder; the cross-package picture is reassembled by the code
// certificate, which merges every package's edges and re-proves
// acyclicity globally. Spawned named functions are analyzed as their own
// contexts with their parameter identities; cross-context unification
// happens through fields and captured locals (the repo idiom), not
// through argument passing.
package chanwait

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
	"repro/internal/analyzers/astq"
	"repro/internal/analyzers/conc"
	"repro/internal/graph"
)

// Resource is one wait-for-graph vertex: a channel or WaitGroup
// identity. Cap is the make-site buffer capacity for channels (0
// unbuffered, -1 unknown) and -1 for WaitGroups.
type Resource struct {
	Name string
	Kind string // "chan" or "waitgroup"
	Cap  int
}

// CtxOp is one operation of a context, for the certificate's
// communication-topology section.
type CtxOp struct {
	Op  string
	On  string
	Pos token.Position
}

// Context is one function (or literal) and its synchronization
// operations in source order — a goroutine-topology record: which
// contexts touch which channels, the "spawn sites as nodes, channels as
// edges" view of the communication graph.
type Context struct {
	Func string
	Ops  []CtxOp
}

// Edge is one wait-for dependency: an op on From cannot complete while
// the same context is parked on To. Pos is the later (From-side) op.
type Edge struct {
	From, To string
	Op       string // kind of the later op
	Pos      token.Position
}

// Result is the per-package slice of the global wait-for graph, exported
// for the code certificate: sorted resources, contexts and edges.
type Result struct {
	Resources []Resource
	Contexts  []Context
	Edges     []Edge
}

var Analyzer = &analysis.Analyzer{
	Name: "chanwait",
	Doc: "prove the channel/WaitGroup wait-for graph acyclic, like a channel-dependency graph; " +
		"an edge B->A means a context may block on A before completing a rendezvous on B, and " +
		"any cycle admits deadlock — report it with a minimal counterexample cycle and each " +
		"channel's buffer capacity as its VC count",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !conc.InScope(pass.Pkg.Path()) {
		return Result{}, nil
	}
	files := astq.LibFiles(pass.Fset, pass.Files)
	g := callgraph.Build(pass.TypesInfo, files)

	a := &scanner{
		pass:  pass,
		g:     g,
		caps:  conc.ChanCaps(pass.TypesInfo, files),
		canon: map[types.Object]types.Object{},
		name:  map[types.Object]string{},
		kind:  map[types.Object]string{},
		capOf: map[types.Object]int{},
		trans: map[*callgraph.Func]map[types.Object]string{},
		edges: map[[2]types.Object]edgeInfo{},
	}

	// Pass 1: raw ops per function, in source order, so aliasing and
	// naming see every operand before any edge is generated.
	a.collectOps()
	a.resolveAliases()
	a.collectTransitive()

	// Pass 2: the forward-only ordered-pair dataflow per function.
	for _, f := range g.Funcs {
		a.scanFunc(f)
	}

	res := a.result()
	a.reportCycles(res)
	return res, nil
}

type edgeInfo struct {
	pos  token.Pos
	kind string
}

type funcOps struct {
	f   *callgraph.Func
	si  conc.SelectInfo
	ops []conc.Op // raw (pre-canon) ops, source order, defers excluded
}

type scanner struct {
	pass *analysis.Pass
	g    *callgraph.Graph
	caps map[types.Object]int

	perFunc []funcOps
	// rawObjs is every distinct op operand in first-seen source order —
	// the deterministic iteration base for aliasing and cap folding.
	rawObjs []types.Object
	// canon maps each operand to its vertex identity (field alias when
	// published, itself otherwise).
	canon map[types.Object]types.Object
	name  map[types.Object]string // canon obj -> display name
	kind  map[types.Object]string // canon obj -> "chan" / "waitgroup"
	capOf map[types.Object]int    // canon obj -> buffer capacity
	// trans maps each function to the field/package-level resources it
	// (or any statically reachable intra-package callee) may operate on,
	// with the first op kind seen — folded at call sites as later-only.
	trans map[*callgraph.Func]map[types.Object]string
	edges map[[2]types.Object]edgeInfo
}

// inDomain reports whether an op belongs to the wait-for graph: channel
// and WaitGroup ops with a resolved operand. Mutexes are lockorder's
// domain; sleeps and whole selects name no single resource.
func inDomain(op conc.Op) bool {
	switch op.Kind {
	case "send", "recv", "range", "close", "wait", "done":
		return op.Obj != nil
	}
	return false
}

// collectOps gathers every function's in-domain ops (source order,
// nested literals are their own functions).
func (a *scanner) collectOps() {
	info := a.pass.TypesInfo
	seen := map[types.Object]bool{}
	for _, f := range a.g.Funcs {
		if f.Body == nil {
			continue
		}
		fo := funcOps{f: f, si: conc.CollectSelectInfo(f.Body)}
		for _, op := range conc.OpsIn(info, f.Body, fo.si) {
			if !inDomain(op) {
				continue
			}
			fo.ops = append(fo.ops, op)
			if !seen[op.Obj] {
				seen[op.Obj] = true
				a.rawObjs = append(a.rawObjs, op.Obj)
			}
		}
		a.perFunc = append(a.perFunc, fo)
	}
}

// resolveAliases canonicalizes operands (local -> published field),
// names each vertex, classifies its kind, and folds make-site caps onto
// the canonical identity.
func (a *scanner) resolveAliases() {
	info := a.pass.TypesInfo
	for _, obj := range a.rawObjs {
		c := obj
		if !conc.IsField(obj) && !pkgScoped(obj) {
			for _, fo := range a.perFunc {
				if fo.f.Body == nil {
					continue
				}
				if alias := conc.FieldAlias(info, fo.f.Body, obj); alias != nil {
					c = alias
					break
				}
			}
		}
		a.canon[obj] = c
		if _, ok := a.name[c]; !ok {
			a.name[c] = a.vertexName(c)
			a.kind[c] = resourceKind(c)
			a.capOf[c] = -1
		}
		if cp, ok := a.caps[obj]; ok && a.capOf[c] == -1 {
			a.capOf[c] = cp
		}
		if cp, ok := a.caps[c]; ok && a.capOf[c] == -1 {
			a.capOf[c] = cp
		}
	}
}

func pkgScoped(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

func resourceKind(obj types.Object) string {
	if conc.IsWaitGroup(obj.Type()) {
		return "waitgroup"
	}
	return "chan"
}

// vertexName renders a package-qualified stable name. Locals are named
// by their DECLARING function (found by position), not the using
// context, so a captured local keeps one identity across the declaring
// function and every literal spawned from it.
func (a *scanner) vertexName(obj types.Object) string {
	if conc.IsField(obj) || pkgScoped(obj) {
		return conc.ObjName(a.pass.Pkg, "?", obj)
	}
	for _, f := range a.g.Funcs {
		if f.Decl == nil {
			continue
		}
		if f.Decl.Pos() <= obj.Pos() && obj.Pos() <= f.Decl.End() {
			return a.pass.Pkg.Path() + "." + f.Name + "." + obj.Name()
		}
	}
	return a.pass.Pkg.Path() + ".?." + obj.Name()
}

// collectTransitive computes each function's field/package-level op set
// and closes it over the call graph (lockorder's fixpoint shape).
func (a *scanner) collectTransitive() {
	for _, fo := range a.perFunc {
		set := map[types.Object]string{}
		for _, op := range fo.ops {
			c := a.canon[op.Obj]
			if !conc.IsField(c) && !pkgScoped(c) {
				continue // locals do not survive the call boundary
			}
			if _, ok := set[c]; !ok {
				set[c] = op.Kind
			}
		}
		a.trans[fo.f] = set
	}
	for changed := true; changed; {
		changed = false
		for _, f := range a.g.Funcs {
			for _, callee := range f.Callees {
				for obj, kind := range a.trans[callee] {
					if _, ok := a.trans[f][obj]; !ok {
						if a.trans[f] == nil {
							a.trans[f] = map[types.Object]string{}
						}
						a.trans[f][obj] = kind
						changed = true
					}
				}
			}
		}
	}
}

// scanFunc runs the forward-only ordered-pair dataflow over one
// function: cut CFG back edges, process blocks in topological order
// propagating the union of "pending earlier blocking resources" along
// forward paths, and record an edge for every (later op, earlier
// resource) pair.
func (a *scanner) scanFunc(f *callgraph.Func) {
	if f.Body == nil {
		return
	}
	var fo *funcOps
	for i := range a.perFunc {
		if a.perFunc[i].f == f {
			fo = &a.perFunc[i]
			break
		}
	}
	hasOps := fo != nil && len(fo.ops) > 0
	hasCalls := false
	for _, callee := range f.Callees {
		if len(a.trans[callee]) > 0 {
			hasCalls = true
			break
		}
	}
	if !hasOps && !hasCalls {
		return
	}
	si := conc.SelectInfo{}
	if fo != nil {
		si = fo.si
	} else {
		si = conc.CollectSelectInfo(f.Body)
	}

	c := cfg.New(f.Body)
	order, forward := forwardOrder(c)

	in := make([]map[types.Object]bool, len(c.Blocks))
	for i := range in {
		in[i] = map[types.Object]bool{}
	}
	// funcBlocking accumulates every direct blocking resource of the
	// function, for pairing deferred ops at exit.
	funcBlocking := map[types.Object]bool{}

	for _, blk := range order {
		running := copySet(in[blk.Index])
		for _, n := range blk.Nodes {
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				continue // exit-time; handled below
			}
			a.applyNode(n, si, running, funcBlocking)
		}
		for _, succ := range blk.Succs {
			if !forward[[2]int{blk.Index, succ.Index}] {
				continue
			}
			for obj := range running {
				in[succ.Index][obj] = true
			}
		}
	}

	// Deferred ops pair as the later side against every blocking op of
	// the function (they run at exit, after whatever the function parked
	// on). Calls inside a defer fold their transitive set the same way.
	info := a.pass.TypesInfo
	for _, d := range c.Defers {
		for _, op := range conc.OpsIn(info, d, si) {
			if !inDomain(op) {
				continue
			}
			a.pairLater(a.canon[op.Obj], op.Kind, op.Pos, funcBlocking)
		}
		if callee := a.g.StaticCallee(info, d.Call); callee != nil {
			for obj, kind := range a.trans[callee] {
				a.pairLater(obj, kind, d.Pos(), funcBlocking)
			}
		}
	}
}

// applyNode processes one CFG node: direct ops in evaluation order (each
// pairs as later against the running set, blocking ones then join it)
// interleaved with statically resolved calls folding the callee's
// transitive set as later-only (release-on-return). A send node's calls
// all sit in its operands and so run before the send commits — calls
// fold first there; every other node folds calls after its direct ops
// (`helper(<-ch)` receives before calling). Finer intra-statement
// interleavings are deliberately approximated: each folded set is
// later-only, so an imprecise position can at most miss an ordering, and
// the repo idiom keeps sends and calls in separate statements.
func (a *scanner) applyNode(n ast.Node, si conc.SelectInfo, running, funcBlocking map[types.Object]bool) {
	_, isSend := n.(*ast.SendStmt)
	if isSend {
		a.foldCalls(n, running)
	}
	info := a.pass.TypesInfo
	for _, op := range conc.OpsIn(info, n, si) {
		if !inDomain(op) {
			continue
		}
		c := a.canon[op.Obj]
		a.pairLater(c, op.Kind, op.Pos, running)
		if op.Blocking {
			running[c] = true
			funcBlocking[c] = true
		}
	}
	if !isSend {
		a.foldCalls(n, running)
	}
}

// foldCalls folds the transitive field/package-level op set of every
// statically resolved call in the node as later-side ops.
func (a *scanner) foldCalls(n ast.Node, running map[types.Object]bool) {
	info := a.pass.TypesInfo
	conc.Shallow(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.GoStmt); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			if callee := a.g.StaticCallee(info, call); callee != nil {
				for obj, kind := range a.trans[callee] {
					a.pairLater(obj, kind, call.Pos(), running)
				}
			}
		}
		return true
	})
}

// pairLater records later -> earlier edges for one later-side op against
// a set of pending earlier resources, keeping the first site per pair
// and dropping self-pairs.
func (a *scanner) pairLater(later types.Object, kind string, pos token.Pos, earlier map[types.Object]bool) {
	for e := range earlier {
		if e == later {
			continue
		}
		key := [2]types.Object{later, e}
		if _, ok := a.edges[key]; !ok {
			a.edges[key] = edgeInfo{pos: pos, kind: kind}
		}
	}
}

// forwardOrder returns the blocks in a topological order of the CFG with
// back edges removed (identified by DFS from the entry; unreachable
// blocks come last, in index order) plus the set of forward edges.
func forwardOrder(c *cfg.CFG) ([]*cfg.Block, map[[2]int]bool) {
	const (
		white = iota
		grey
		black
	)
	color := make([]int, len(c.Blocks))
	forward := map[[2]int]bool{}
	var post []*cfg.Block
	var visit func(b *cfg.Block)
	visit = func(b *cfg.Block) {
		color[b.Index] = grey
		for _, s := range b.Succs {
			if color[s.Index] == grey {
				continue // back edge: cut
			}
			forward[[2]int{b.Index, s.Index}] = true
			if color[s.Index] == white {
				visit(s)
			}
		}
		color[b.Index] = black
		post = append(post, b)
	}
	visit(c.Entry)
	for _, b := range c.Blocks {
		if color[b.Index] == white {
			visit(b)
		}
	}
	order := make([]*cfg.Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		order = append(order, post[i])
	}
	return order, forward
}

// result renders the sorted resource, context and edge lists.
func (a *scanner) result() Result {
	res := Result{}
	for _, c := range a.canon {
		name := a.name[c]
		found := false
		for _, r := range res.Resources {
			if r.Name == name {
				found = true
				break
			}
		}
		if !found {
			res.Resources = append(res.Resources, Resource{Name: name, Kind: a.kind[c], Cap: a.capOf[c]})
		}
	}
	sort.Slice(res.Resources, func(i, j int) bool { return res.Resources[i].Name < res.Resources[j].Name })

	for _, fo := range a.perFunc {
		if len(fo.ops) == 0 {
			continue
		}
		ctx := Context{Func: a.pass.Pkg.Path() + "." + fo.f.Name}
		for _, op := range fo.ops {
			ctx.Ops = append(ctx.Ops, CtxOp{
				Op: op.Kind, On: a.name[a.canon[op.Obj]],
				Pos: a.pass.Fset.Position(op.Pos),
			})
		}
		res.Contexts = append(res.Contexts, ctx)
	}
	sort.Slice(res.Contexts, func(i, j int) bool { return res.Contexts[i].Func < res.Contexts[j].Func })

	for key, ei := range a.edges {
		res.Edges = append(res.Edges, Edge{
			From: a.name[key[0]], To: a.name[key[1]],
			Op: ei.kind, Pos: a.pass.Fset.Position(ei.pos),
		})
	}
	sort.Slice(res.Edges, func(i, j int) bool {
		x, y := res.Edges[i], res.Edges[j]
		if x.From != y.From {
			return x.From < y.From
		}
		if x.To != y.To {
			return x.To < y.To
		}
		return x.Pos.Offset < y.Pos.Offset
	})
	return res
}

// reportCycles proves the package graph acyclic or reports every edge
// participating in a cycle with a minimal counterexample through it,
// annotated with the buffer capacities ("VC counts") of the cycle's
// channels.
func (a *scanner) reportCycles(res Result) {
	if len(res.Edges) == 0 {
		return
	}
	names := make([]string, 0, len(res.Resources))
	capByName := map[string]int{}
	for _, r := range res.Resources {
		names = append(names, r.Name)
		capByName[r.Name] = r.Cap
	}
	dg, index := BuildGraph(names, res.Edges)
	if _, cyclic := dg.ShortestCycle(); !cyclic {
		return
	}
	for _, e := range res.Edges {
		u, v := index[e.From], index[e.To]
		cycle, ok := dg.CycleThrough(u, v)
		if !ok {
			continue
		}
		cycleNames := make([]string, 0, len(cycle)+1)
		var caps []string
		for _, w := range cycle {
			cycleNames = append(cycleNames, names[w])
			if c := capByName[names[w]]; c >= 1 {
				caps = append(caps, fmt.Sprintf("%s=%d", names[w], c))
			}
		}
		cycleNames = append(cycleNames, names[cycle[0]])
		capNote := ""
		if len(caps) > 0 {
			capNote = fmt.Sprintf("; buffer capacities (%s) delay but cannot break it — finite VCs on a cyclic CDG",
				strings.Join(caps, ", "))
		}
		a.pass.Reportf(a.findEdgePos(e),
			"channel wait-for cycle: %s — %s on %s while %s's rendezvous is pending admits deadlock, exactly as a cyclic channel-dependency graph does%s",
			strings.Join(cycleNames, " -> "), e.Op, e.From, e.To, capNote)
	}
}

func (a *scanner) findEdgePos(e Edge) token.Pos {
	for key, ei := range a.edges {
		if a.name[key[0]] == e.From && a.name[key[1]] == e.To {
			return ei.pos
		}
	}
	return token.NoPos
}

// BuildGraph assembles a graph.Digraph over the resource vertices;
// shared with the code certificate, which merges edges from every
// package and re-runs the same acyclicity proof globally.
func BuildGraph(resources []string, edges []Edge) (*graph.Digraph, map[string]int) {
	index := make(map[string]int, len(resources))
	for i, name := range resources {
		index[name] = i
	}
	dg := graph.NewDigraph(len(resources))
	seen := map[[2]int]bool{}
	for _, e := range edges {
		u, okU := index[e.From]
		v, okV := index[e.To]
		if !okU || !okV || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		dg.AddEdge(u, v)
	}
	return dg, index
}

func copySet(s map[types.Object]bool) map[types.Object]bool {
	out := make(map[types.Object]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}
