// Package nondet flags ambient nondeterminism — the shared global
// math/rand generator and wall-clock reads — in the packages covered by
// the determinism contract. Experiment results must be a pure function of
// (topology, workload, seed); the only sanctioned randomness is an
// explicit *rand.Rand seeded through internal/runner, and the only
// sanctioned wall-clock reads are the campaign cost accounting sites.
package nondet

import (
	"go/ast"

	"repro/internal/analysis"
	"repro/internal/analyzers/astq"
)

// scope is the set of repo packages the contract covers. internal/runner
// is deliberately absent: it implements the seeding discipline and the
// wall-clock accounting the rest of the tree must route through.
var scope = map[string]bool{
	"repro/internal/sim":         true,
	"repro/internal/router":      true,
	"repro/internal/routing":     true,
	"repro/internal/topology":    true,
	"repro/internal/workload":    true,
	"repro/internal/experiments": true,
	"repro/internal/fabricver":   true,
	"repro/internal/chaos":       true,
	"repro/internal/serve":       true,
}

// allowWallClock maps package path to file base names where wall-clock
// reads are legitimate: experiments' entries feed runner.Stats wall-time
// accounting, which never reaches a result row; serve funnels every
// timed wait through the Clock seam, whose production implementation is
// the single allowlisted file.
var allowWallClock = map[string]map[string]bool{
	"repro/internal/experiments": {"campaign.go": true},
	"repro/internal/serve":       {"clock.go": true},
}

// allowGoroutines maps package path to file base names where go statements
// are sanctioned: the audited pools whose scheduling provably never reaches
// a result. Anywhere else in the contract packages a goroutine is a latent
// scheduling dependence and is flagged; fan-out goes through runner.Map,
// which lies outside the scope.
var allowGoroutines = map[string]map[string]bool{
	// serve's goroutines (acceptor, queue workers, refill ticker) are
	// joined by Close and certified leak-free by the codecert golden;
	// none of their scheduling reaches a result row.
	"repro/internal/serve": {"serve.go": true},
}

// randConstructors are the math/rand package-level functions that build
// explicit generators rather than draw from the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// wallClockFuncs are the time package functions that observe or depend on
// the wall clock (or a timer derived from it).
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"After":     true,
	"AfterFunc": true,
	"Sleep":     true,
}

var Analyzer = &analysis.Analyzer{
	Name: "nondet",
	Doc: "flag global math/rand use, wall-clock reads, and unsanctioned goroutines in " +
		"determinism-contract packages; randomness must flow through an explicit runner-seeded " +
		"*rand.Rand, wall time only through the campaign accounting sites, and parallelism only " +
		"through the audited pools",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	pkgPath := pass.Pkg.Path()
	if !astq.InScope(pkgPath, scope) {
		return nil, nil
	}
	for _, file := range astq.LibFiles(pass.Fset, pass.Files) {
		base := baseOf(pass, file)
		wallClockOK := allowWallClock[pkgPath][base]
		goroutineOK := allowGoroutines[pkgPath][base]
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if !goroutineOK {
					pass.Reportf(g.Pos(),
						"goroutine launched outside the audited pools; fan out across points via runner.Map, so scheduling can never reach a result")
				}
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name, ok := astq.PkgCall(pass.TypesInfo, call)
			if !ok {
				return true
			}
			switch path {
			case "math/rand", "math/rand/v2":
				if !randConstructors[name] {
					pass.Reportf(call.Pos(),
						"global math/rand %s draws from the shared process-wide generator; use an explicit *rand.Rand seeded via runner.RNG/runner.PointSeed", name)
				} else if seedsFromClock(pass, call) {
					pass.Reportf(call.Pos(),
						"rand %s seeded from the wall clock; derive the seed from runner.PointSeed so runs are reproducible", name)
				}
			case "time":
				if wallClockFuncs[name] && !wallClockOK {
					pass.Reportf(call.Pos(),
						"wall-clock time.%s outside the accounting allowlist; route timing through runner.Stats (see internal/experiments/campaign.go)", name)
				}
			}
			return true
		})
	}
	return nil, nil
}

// seedsFromClock reports whether any argument of a rand constructor call
// contains a wall-clock read (the classic rand.NewSource(time.Now().UnixNano())).
func seedsFromClock(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if found {
				return false
			}
			if inner, ok := n.(*ast.CallExpr); ok {
				if path, name, ok := astq.PkgCall(pass.TypesInfo, inner); ok &&
					path == "time" && wallClockFuncs[name] {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func baseOf(pass *analysis.Pass, file *ast.File) string {
	name := pass.Fset.Position(file.Pos()).Filename
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[i+1:]
		}
	}
	return name
}
