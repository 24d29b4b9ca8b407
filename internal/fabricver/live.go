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
	"repro/internal/deadlock"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
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
	rep := deadlock.Check(sw)
	lc.Acyclic, lc.MinimalCycle = rep.Free, rep.CycleLines()
	return lc, router.FromSweep(sw, tb.Net)
}

// LiveTarget picks what an online reconfiguration routes after the links
// dead reports fail: the component of Components with the most routers
// (ties to the lowest router ID), rooted at its lowest-ID router, and the
// ordered node pairs degraded tables over the whole network must reach
// there — the Reached count CertifyLive must report. Sources are the nodes
// whose router is in the component (tables cannot see a source's own dead
// node link; a simulator kills those injections); destinations also need
// their own link alive. The root is -1 when no component has a router.
func LiveTarget(net *topology.Network, dead func(topology.LinkID) bool) (root topology.DeviceID, pairs int) {
	var best *Component
	for _, c := range Components(net, dead) {
		if len(c.Routers) > 0 && (best == nil || len(c.Routers) > len(best.Routers) ||
			len(c.Routers) == len(best.Routers) && c.Routers[0] < best.Routers[0]) {
			best = &c
		}
	}
	if best == nil {
		return -1, 0
	}
	in := make([]bool, net.NumDevices())
	for _, r := range best.Routers {
		in[r] = true
	}
	sources := 0
	for i := 0; i < net.NumNodes(); i++ {
		nd := net.NodeByIndex(i)
		if l, ok := net.LinkAt(nd, 0); ok && in[net.OtherEnd(l, nd).Device] {
			sources++
		}
	}
	// Every destination is also a source, so subtracting the diagonal
	// leaves sources*dests - dests reachable ordered pairs.
	dests := len(best.Nodes)
	return best.Routers[0], sources*dests - dests
}
