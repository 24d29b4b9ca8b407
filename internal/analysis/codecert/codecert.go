// Package codecert assembles the concurrency-deadlock certificate of the
// repository's own code: the lockorder, chanwait, blockcheck, goleak and
// chanclose analyzers run over ./internal/..., their per-package results
// merged into one global lock-order graph, one channel/WaitGroup
// wait-for graph, one blocking-effect table, one goroutine-spawn audit
// and one channel-send audit, rendered as byte-stable JSON in the exact
// style of the fabricver topology certificates. The fabric certs prove
// "this network cannot deadlock" from its channel-dependency graph; this
// cert proves "the prover cannot deadlock" from its lock graph, wait-for
// graph and join obligations — the paper's acyclicity argument turned on
// the artifact that implements it. The v2 additions mirror the fabric
// side one-for-one: wait-for resources are links, buffer capacities are
// VC counts, the acyclicity proof is the same ShortestCycle the fabric
// verifier runs, and the hot-path blocking table is the wormhole
// discipline (no stall inside the routing decision).
//
// The committed golden pins only this concurrency verdict. It is not the
// engine's identity: campaignd keys its cache by repro.Revision, a hash
// of the engine's source.
//
// Byte stability follows the fabricver rules: field order is struct
// order, no maps are marshalled, every slice is sorted, and source
// positions are module-relative slash paths, so equal trees produce
// equal certificates on every machine and the golden fixture can be
// byte-compared in CI.
package codecert

import (
	"encoding/json"
	"fmt"
	"go/token"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analyzers"
	"repro/internal/analyzers/blockcheck"
	"repro/internal/analyzers/chanclose"
	"repro/internal/analyzers/chanwait"
	"repro/internal/analyzers/goleak"
	"repro/internal/analyzers/lockorder"
)

// Schema identifies the certificate format; bump on incompatible change.
// v2 adds the channel/WaitGroup wait-for graph and the blocking-effect
// table with hot-path verdicts.
const Schema = "repro/codecert/v2"

// Certificate is the full code-concurrency certificate.
type Certificate struct {
	Schema     string       `json:"schema"`
	Scope      []string     `json:"scope"`
	Analyzers  []string     `json:"analyzers"`
	Packages   []string     `json:"packages"`
	LockOrder  LockOrder    `json:"lock_order"`
	WaitFor    WaitFor      `json:"wait_for"`
	Blocking   Blocking     `json:"blocking"`
	Goroutines []SpawnAudit `json:"goroutines"`
	Channels   []ChanAudit  `json:"channel_sends"`
	Findings   []string     `json:"findings"`
	OK         bool         `json:"ok"`
}

// WaitFor is the merged channel/WaitGroup wait-for graph and its
// acyclicity verdict — the code-level CDG over communication, companion
// to the lock-order graph. Resource capacities are the "VC counts" of
// the analogy.
type WaitFor struct {
	Resources []WaitResource `json:"resources"`
	Contexts  []WaitContext  `json:"contexts"`
	Edges     []WaitEdge     `json:"edges"`
	Acyclic   bool           `json:"acyclic"`
	// Cycle is the minimal counterexample (first vertex repeated last)
	// when Acyclic is false.
	Cycle []string `json:"cycle,omitempty"`
}

// WaitResource is one wait-for vertex: a channel (with its make-site
// buffer capacity; -1 unknown) or a WaitGroup (cap -1).
type WaitResource struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Cap  int    `json:"cap"`
}

// WaitContext is one function's synchronization ops in source order —
// the goroutine/channel communication topology record.
type WaitContext struct {
	Func string   `json:"func"`
	Ops  []WaitOp `json:"ops"`
}

// WaitOp is one operation of a context.
type WaitOp struct {
	Op   string `json:"op"`
	On   string `json:"on"`
	Site string `json:"site"`
}

// WaitEdge is one wait-for dependency with the site of its later op.
type WaitEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Op   string `json:"op"`
	Site string `json:"site"`
}

// Blocking is the interprocedural blocking-effect table: every function
// whose effect is not non-blocking and the hot-path verdicts.
type Blocking struct {
	Functions []BlockEffect  `json:"functions"`
	HotPaths  []HotPathAudit `json:"hot_paths"`
}

// BlockEffect is one function's effect with its witness chain.
type BlockEffect struct {
	Func   string `json:"func"`
	Effect string `json:"effect"`
	Via    string `json:"via"`
}

// HotPathAudit is one //simlint:hotpath function's verdict: its effect
// and whether that is non-blocking.
type HotPathAudit struct {
	Func   string `json:"func"`
	Site   string `json:"site"`
	Effect string `json:"effect"`
	OK     bool   `json:"ok"`
	Via    string `json:"via,omitempty"`
}

// LockOrder is the merged mutex-acquisition-order graph and its
// acyclicity verdict — the code-level CDG.
type LockOrder struct {
	Locks   []string   `json:"locks"`
	Edges   []LockEdge `json:"edges"`
	Acyclic bool       `json:"acyclic"`
	// Cycle is the minimal counterexample (first vertex repeated last)
	// when Acyclic is false.
	Cycle []string `json:"cycle,omitempty"`
}

// LockEdge is one acquisition-order edge with its source site.
type LockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Site string `json:"site"`
}

// SpawnAudit is one go statement's join-obligation audit.
type SpawnAudit struct {
	Site       string `json:"site"`
	Func       string `json:"func"`
	Obligation string `json:"obligation"`
	On         string `json:"on,omitempty"`
	Join       string `json:"join,omitempty"`
	OK         bool   `json:"ok"`
}

// ChanAudit is one spawned-goroutine channel send's consumer audit.
type ChanAudit struct {
	Site      string `json:"site"`
	Func      string `json:"func"`
	Chan      string `json:"chan"`
	Guarantee string `json:"guarantee,omitempty"`
	OK        bool   `json:"ok"`
}

// Build runs the concurrency analyzers over ./internal/... of the module
// containing wd and assembles the certificate. The returned certificate
// is complete even when not OK — the failure modes are part of the
// artifact.
func Build(wd string) (*Certificate, error) {
	root, err := load.ModuleRoot(wd)
	if err != nil {
		return nil, err
	}
	pkgs, err := load.Packages(root, "./internal/...")
	if err != nil {
		return nil, err
	}

	suite := analyzers.Concurrency()
	cert := &Certificate{
		Schema:     Schema,
		Scope:      []string{"./internal/..."},
		Packages:   []string{},
		Goroutines: []SpawnAudit{},
		Channels:   []ChanAudit{},
		Findings:   []string{},
	}
	for _, a := range suite {
		cert.Analyzers = append(cert.Analyzers, a.Name)
	}

	lockSet := map[string]bool{}
	var edges []lockorder.Edge
	var waitRes []chanwait.Resource
	var waitCtxs []chanwait.Context
	var waitEdges []chanwait.Edge
	blocking := Blocking{Functions: []BlockEffect{}, HotPaths: []HotPathAudit{}}
	for _, pkg := range pkgs {
		cert.Packages = append(cert.Packages, pkg.ImportPath)
		findings, results, err := analysis.Run(suite, pkg.Fset, pkg.Files, pkg.Types, pkg.TypesInfo)
		if err != nil {
			return nil, fmt.Errorf("codecert: %s: %w", pkg.ImportPath, err)
		}
		for _, f := range findings {
			cert.Findings = append(cert.Findings, fmt.Sprintf("%s: %s (%s)",
				relSite(root, f.Position), f.Message, f.Analyzer))
		}
		if r, ok := results["lockorder"].(lockorder.Result); ok {
			for _, l := range r.Locks {
				lockSet[l] = true
			}
			edges = append(edges, r.Edges...)
		}
		if r, ok := results["chanwait"].(chanwait.Result); ok {
			waitRes = append(waitRes, r.Resources...)
			waitCtxs = append(waitCtxs, r.Contexts...)
			waitEdges = append(waitEdges, r.Edges...)
		}
		if r, ok := results["blockcheck"].(blockcheck.Result); ok {
			for _, fe := range r.Funcs {
				blocking.Functions = append(blocking.Functions, BlockEffect{
					Func: fe.Func, Effect: fe.Effect, Via: fe.Via,
				})
			}
			for _, hp := range r.HotPaths {
				blocking.HotPaths = append(blocking.HotPaths, HotPathAudit{
					Func: hp.Func, Site: relSite(root, hp.Pos),
					Effect: hp.Effect, OK: hp.OK, Via: hp.Via,
				})
			}
		}
		if r, ok := results["goleak"].(goleak.Result); ok {
			for _, s := range r.Spawns {
				cert.Goroutines = append(cert.Goroutines, SpawnAudit{
					Site: relSite(root, s.Pos), Func: s.Func,
					Obligation: s.Obligation, On: s.On, Join: s.Join, OK: s.OK,
				})
			}
		}
		if r, ok := results["chanclose"].(chanclose.Result); ok {
			for _, s := range r.Sends {
				cert.Channels = append(cert.Channels, ChanAudit{
					Site: relSite(root, s.Pos), Func: s.Func,
					Chan: s.Chan, Guarantee: s.Guarantee, OK: s.OK,
				})
			}
		}
	}

	cert.LockOrder = mergeLockOrder(root, lockSet, edges)
	cert.WaitFor = mergeWaitFor(root, waitRes, waitCtxs, waitEdges)
	sort.Slice(blocking.Functions, func(i, j int) bool { return blocking.Functions[i].Func < blocking.Functions[j].Func })
	sort.Slice(blocking.HotPaths, func(i, j int) bool { return blocking.HotPaths[i].Func < blocking.HotPaths[j].Func })
	cert.Blocking = blocking
	sort.Slice(cert.Goroutines, func(i, j int) bool { return cert.Goroutines[i].Site < cert.Goroutines[j].Site })
	sort.Slice(cert.Channels, func(i, j int) bool { return cert.Channels[i].Site < cert.Channels[j].Site })
	sort.Strings(cert.Findings)

	cert.OK = cert.LockOrder.Acyclic && cert.WaitFor.Acyclic && len(cert.Findings) == 0
	for _, s := range cert.Goroutines {
		cert.OK = cert.OK && s.OK
	}
	for _, s := range cert.Channels {
		cert.OK = cert.OK && s.OK
	}
	for _, hp := range cert.Blocking.HotPaths {
		cert.OK = cert.OK && hp.OK
	}
	return cert, nil
}

// mergeWaitFor folds the per-package wait-for graphs into one and
// re-proves acyclicity globally, exactly as mergeLockOrder does for the
// lock graph. Resource names are package-qualified, so cross-package
// merging is pure concatenation.
func mergeWaitFor(root string, resources []chanwait.Resource, ctxs []chanwait.Context, edges []chanwait.Edge) WaitFor {
	wf := WaitFor{Resources: []WaitResource{}, Contexts: []WaitContext{}, Edges: []WaitEdge{}}
	sort.Slice(resources, func(i, j int) bool { return resources[i].Name < resources[j].Name })
	names := make([]string, 0, len(resources))
	for _, r := range resources {
		wf.Resources = append(wf.Resources, WaitResource{Name: r.Name, Kind: r.Kind, Cap: r.Cap})
		names = append(names, r.Name)
	}
	sort.Slice(ctxs, func(i, j int) bool { return ctxs[i].Func < ctxs[j].Func })
	for _, c := range ctxs {
		wc := WaitContext{Func: c.Func, Ops: []WaitOp{}}
		for _, op := range c.Ops {
			wc.Ops = append(wc.Ops, WaitOp{Op: op.Op, On: op.On, Site: relSite(root, op.Pos)})
		}
		wf.Contexts = append(wf.Contexts, wc)
	}
	sort.Slice(edges, func(i, j int) bool {
		x, y := edges[i], edges[j]
		if x.From != y.From {
			return x.From < y.From
		}
		if x.To != y.To {
			return x.To < y.To
		}
		return relSite(root, x.Pos) < relSite(root, y.Pos)
	})
	for _, e := range edges {
		wf.Edges = append(wf.Edges, WaitEdge{From: e.From, To: e.To, Op: e.Op, Site: relSite(root, e.Pos)})
	}
	dg, _ := chanwait.BuildGraph(names, edges)
	cycle, cyclic := dg.ShortestCycle()
	wf.Acyclic = !cyclic
	if cyclic {
		for _, v := range cycle {
			wf.Cycle = append(wf.Cycle, names[v])
		}
		wf.Cycle = append(wf.Cycle, names[cycle[0]])
	}
	return wf
}

// mergeLockOrder folds the per-package graphs into one and re-proves
// acyclicity globally with the same internal/graph.ShortestCycle the
// fabric verifier uses for channel-dependency graphs.
func mergeLockOrder(root string, lockSet map[string]bool, edges []lockorder.Edge) LockOrder {
	lo := LockOrder{Locks: []string{}, Edges: []LockEdge{}}
	for l := range lockSet {
		lo.Locks = append(lo.Locks, l)
	}
	sort.Strings(lo.Locks)
	sort.Slice(edges, func(i, j int) bool {
		x, y := edges[i], edges[j]
		if x.From != y.From {
			return x.From < y.From
		}
		if x.To != y.To {
			return x.To < y.To
		}
		return relSite(root, x.Pos) < relSite(root, y.Pos)
	})
	for _, e := range edges {
		lo.Edges = append(lo.Edges, LockEdge{From: e.From, To: e.To, Site: relSite(root, e.Pos)})
	}
	dg, _ := lockorder.BuildGraph(lo.Locks, edges)
	cycle, cyclic := dg.ShortestCycle()
	lo.Acyclic = !cyclic
	if cyclic {
		for _, v := range cycle {
			lo.Cycle = append(lo.Cycle, lo.Locks[v])
		}
		lo.Cycle = append(lo.Cycle, lo.Locks[cycle[0]])
	}
	return lo
}

// relSite renders a position as a module-relative slash path with line
// number — machine-independent, so the certificate is byte-identical on
// every checkout.
func relSite(root string, pos token.Position) string {
	name := pos.Filename
	if rel, err := filepath.Rel(root, name); err == nil {
		name = rel
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(name), pos.Line)
}

// Marshal renders the certificate as indented JSON with a trailing
// newline, byte-stable for golden comparison (fabricver rules).
func Marshal(c *Certificate) ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
