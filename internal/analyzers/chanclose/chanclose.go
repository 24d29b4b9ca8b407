// Package chanclose audits channel sends executed by spawned goroutines:
// a send with no guaranteed consumer blocks its goroutine forever — the
// code-level analogue of a flit parked in a buffer no route drains. For
// every `go` statement, each send statement in the spawned body must be
// covered by one of:
//
//   - the send sits in a `select` with a `default` clause (it can never
//     block — the escape valve the paper's adaptive routes use);
//   - the channel has a constant buffer capacity >= 1 at its make site
//     (a worker pool's `done` channel: one slot per barrier round,
//     drained before the next dispatch);
//   - a receive from the channel is guaranteed on every CFG exit path of
//     the spawning function, or — when the channel is (published to) a
//     struct field — a receive exists somewhere in the package.
//
// The buffered exemption is deliberately shallow (a goroutine looping
// sends into a cap-1 channel can still block); pairing it with goleak's
// join obligation keeps the combination honest, and the certificate
// records which guarantee covered each send so a reviewer can audit the
// reasoning.
package chanclose

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

// Send is the audit record of one channel send inside a spawned
// goroutine, exported into the code certificate.
type Send struct {
	Pos       token.Position
	Func      string // spawning function
	Chan      string // channel identity
	Guarantee string // how the send was proven non-blocking (empty when not)
	OK        bool
}

// Result is the per-package send audit, sorted by position.
type Result struct {
	Sends []Send
}

var Analyzer = &analysis.Analyzer{
	Name: "chanclose",
	Doc: "require every channel send in a spawned goroutine to have a guaranteed consumer: " +
		"a select with default, a constant buffer, or a receive proven on all exit paths " +
		"of the spawner",
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
	sort.Slice(encls, func(i, j int) bool { return encls[i].Pos() < encls[j].Pos() })

	var res Result
	for _, encl := range encls {
		f := g.FuncFor(encl)
		if f == nil || f.Body == nil {
			continue
		}
		c := cfg.New(f.Body)
		for _, gs := range sites[encl] {
			for _, snd := range a.audit(f, c, gs) {
				if !snd.OK {
					pass.Reportf(snd.pos, "blocking send in goroutine spawned by %s: %s", snd.Func, snd.Guarantee)
					snd.Guarantee = ""
				}
				res.Sends = append(res.Sends, snd.Send)
			}
		}
	}
	sort.Slice(res.Sends, func(i, j int) bool {
		x, y := res.Sends[i], res.Sends[j]
		if x.Pos.Filename != y.Pos.Filename {
			return x.Pos.Filename < y.Pos.Filename
		}
		return x.Pos.Offset < y.Pos.Offset
	})
	return res, nil
}

type auditor struct {
	pass  *analysis.Pass
	g     *callgraph.Graph
	files []*ast.File
}

// sendAudit carries the report position alongside the certificate record.
type sendAudit struct {
	Send
	pos token.Pos
}

// audit classifies every send in the body spawned by one go statement.
// Failed audits return the failure explanation in Guarantee (the caller
// reports it and clears the field).
func (a *auditor) audit(f *callgraph.Func, c *cfg.CFG, gs *ast.GoStmt) []sendAudit {
	info := a.pass.TypesInfo
	body, mapParam, ok := conc.SpawnTarget(info, a.g, gs)
	if !ok {
		return nil // goleak already reports unresolvable spawns
	}

	// Sends under a select that has a default clause can never block.
	exempt := map[*ast.SendStmt]bool{}
	conc.Shallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cs := range sel.Body.List {
			if cs.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, cs := range sel.Body.List {
			if s, ok := cs.(*ast.CommClause).Comm.(*ast.SendStmt); ok {
				exempt[s] = true
			}
		}
		return true
	})

	var out []sendAudit
	conc.Shallow(body, func(n ast.Node) bool {
		s, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		snd := sendAudit{pos: s.Pos()}
		snd.Pos = a.pass.Fset.Position(s.Pos())
		snd.Func = f.Name
		obj := mapParam(conc.BaseObj(info, s.Chan))
		if obj == nil {
			snd.Chan = "?"
			snd.Guarantee = "send on a channel the spawner cannot name"
			out = append(out, snd)
			return true
		}
		snd.Chan = conc.ObjName(a.pass.Pkg, f.Name, obj)
		switch {
		case exempt[s]:
			snd.Guarantee = "select with default"
			snd.OK = true
		default:
			snd.Send = a.verify(snd.Send, f, c, gs, body, obj)
		}
		out = append(out, snd)
		return true
	})
	return out
}

// verify applies the buffered / local-receive / field-receive rules.
func (a *auditor) verify(snd Send, f *callgraph.Func, c *cfg.CFG, gs *ast.GoStmt, spawned ast.Node, obj types.Object) Send {
	info := a.pass.TypesInfo
	if cap := conc.BufferCap(info, f.Body, obj); cap >= 1 {
		snd.Guarantee = fmt.Sprintf("buffered (cap %d)", cap)
		snd.OK = true
		return snd
	}
	if cap := conc.BufferCap(info, spawned, obj); cap >= 1 {
		snd.Guarantee = fmt.Sprintf("buffered (cap %d)", cap)
		snd.OK = true
		return snd
	}
	hit := func(n ast.Node) bool { return conc.RecvsFrom(info, n, obj) }
	if conc.IsField(obj) {
		if fn := a.packageWide(obj); fn != "" {
			snd.Guarantee = "receive in " + fn
			snd.OK = true
			return snd
		}
		snd.Guarantee = fmt.Sprintf("no receive from %s anywhere in the package", snd.Chan)
		return snd
	}
	if c.EveryPathHits(gs, hit) {
		snd.Guarantee = "receive on every exit path of " + f.Name
		snd.OK = true
		return snd
	}
	if alias := conc.FieldAlias(info, f.Body, obj); alias != nil {
		if fn := a.packageWide(alias); fn != "" {
			snd.Chan = snd.Chan + " (published as " + conc.ObjName(a.pass.Pkg, f.Name, alias) + ")"
			snd.Guarantee = "receive in " + fn
			snd.OK = true
			return snd
		}
	}
	snd.Guarantee = fmt.Sprintf("receive from %s is not guaranteed on every exit path of %s", snd.Chan, f.Name)
	return snd
}

// packageWide scans the whole package for a receive from obj, returning
// the containing function's name or "".
func (a *auditor) packageWide(obj types.Object) string {
	info := a.pass.TypesInfo
	found := ""
	analysis.WithStack(a.files, func(n ast.Node, stack []ast.Node) bool {
		if found != "" {
			return false
		}
		match := false
		switch x := n.(type) {
		case *ast.UnaryExpr:
			match = x.Op == token.ARROW && conc.BaseObj(info, x.X) == obj
		case *ast.RangeStmt:
			match = conc.BaseObj(info, x.X) == obj
		}
		if match {
			if f := a.g.FuncFor(analysis.EnclosingFunc(stack)); f != nil {
				found = f.Name
			} else {
				found = "package scope"
			}
			return false
		}
		return true
	})
	return found
}
