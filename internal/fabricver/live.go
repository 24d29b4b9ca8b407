package fabricver

// Online (re)certification: the primitive an in-flight recovery controller
// calls before hot-swapping freshly recomputed tables into a live
// simulator. It is the same memoized all-pairs sweep (routing.Sweep) and CDG
// analysis the offline certificates are built from, stripped to the two
// properties a reconfiguration must establish — the new dependency graph is
// acyclic (so even stale-route traffic stays deadlock-free under minimal
// disables, §2.4) and every pair the degraded topology can still connect is
// actually routed.

import (
	"repro/internal/router"
	"repro/internal/routing"
)

// LiveCheck is the certificate of one online recertification sweep.
type LiveCheck struct {
	Pairs       int // ordered node pairs swept
	Reached     int // pairs the tables route end to end
	Unreachable int // pairs that fail (holes, severed nodes, ...)
	MaxHops     int // worst router-hop count among reached pairs
	UsedTurns   int // total (in,out) turns the reached routes use
	Acyclic     bool
	// MinimalCycle names the shortest dependency cycle when !Acyclic.
	MinimalCycle []string
	// Failures samples the first unreachable pairs, in (dst, src) order.
	Failures []string
}

// CertifyLive sweeps every ordered node pair through the tables and proves
// (or refutes) channel-dependency acyclicity. It also returns the minimal
// path-disables of the swept turns, so the caller loads the disables of
// the exact dependency structure that was just certified — the pair never
// goes out of sync.
func CertifyLive(tb *routing.Tables) (LiveCheck, *router.Disables) {
	sw := tb.Sweep()
	maxHops, _, _ := sw.MaxHops()
	lc := LiveCheck{
		Pairs:       sw.Pairs(),
		Reached:     sw.Reached(),
		Unreachable: len(sw.Failures),
		MaxHops:     maxHops,
		UsedTurns:   sw.NumTurns(),
		Failures:    failureLines(sw),
	}
	numVC := tb.NumVC()
	g := sw.CDG()
	if cycle, cyclic := g.ShortestCycle(); cyclic {
		lc.MinimalCycle = make([]string, len(cycle))
		for i, vtx := range cycle {
			lc.MinimalCycle[i] = vcChannelString(tb.Net, vtx, numVC)
		}
	} else {
		lc.Acyclic = true
	}
	return lc, router.FromSweep(sw, tb.Net)
}
