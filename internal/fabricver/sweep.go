package fabricver

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The checks below render one routing.Sweep of the tables (per-pair
// outcomes, used turns, dependency graph) into certificate sections.

// failureLines renders the first maxDetail unreachable pairs of a sweep,
// in (dst, src) order.
func failureLines(sw *routing.PairSweep) []string {
	var lines []string
	for _, f := range sw.Failures[:min(len(sw.Failures), maxDetail)] {
		lines = append(lines, fmt.Sprintf("%d -> %d: %s", f.Src, f.Dst, f.Reason))
	}
	return lines
}

// cdgCheck proves deadlock freedom by CDG acyclicity. When the graph is
// cyclic the minimal dependency cycle is rendered channel by channel as
// the counterexample; when acyclic, the Dally–Seitz numbering's size is
// recorded as the certificate.
func cdgCheck(sw *routing.PairSweep, net *topology.Network, numVC int, violate func(check, format string, args ...any)) CDGCheck {
	g := sw.CDG()
	cc := CDGCheck{Vertices: g.N(), Deps: g.M()}
	if cc.MinimalCycle = minimalCycle(g, net, numVC); cc.MinimalCycle != nil {
		violate("cdg", "channel dependency graph has a cycle; minimal cycle (%d channels): %s",
			len(cc.MinimalCycle), joinCycle(cc.MinimalCycle))
		return cc
	}
	cc.Acyclic = true
	order, ok := g.TopoSort()
	if !ok {
		// Unreachable: ShortestCycle and TopoSort agree on acyclicity.
		violate("cdg", "internal error: acyclic graph failed to topo-sort")
		return cc
	}
	cc.CertificateSize = len(order)
	return cc
}

// reachCheck turns the sweep's tally into the endpoint-reachability
// verdict: every ordered pair routed, within the analytical hop bound.
func reachCheck(sw *routing.PairSweep, net *topology.Network, bound int, violate func(check, format string, args ...any)) ReachCheck {
	maxHops, worstSrc, worstDst := sw.MaxHops()
	rc := ReachCheck{
		Pattern:     "cpu-disk-all-pairs",
		Pairs:       sw.Pairs(),
		Unreachable: len(sw.Failures),
		MaxHops:     maxHops,
	}
	if maxHops > 0 {
		rc.WorstPair = fmt.Sprintf("%s -> %s",
			net.Device(net.NodeByIndex(worstSrc)).Name,
			net.Device(net.NodeByIndex(worstDst)).Name)
	}
	for _, f := range failureLines(sw) {
		violate("reachability", "unreachable pair: %s", f)
	}
	if rc.Unreachable > maxDetail {
		violate("reachability", "unreachable pairs:%s", capNote(rc.Unreachable))
	}
	if maxHops > bound {
		violate("reachability", "route %s takes %d router hops, exceeding the analytical bound %d",
			rc.WorstPair, maxHops, bound)
	}
	rc.OK = rc.Unreachable == 0 && maxHops <= bound
	return rc
}

// disablesCheck verifies §2.4's enforcement property against the System's
// loaded path-disable registers: every turn the swept dependencies use
// must be enabled, and nothing beyond those turns may be enabled — the
// hardware permits exactly the analyzed dependency structure.
func disablesCheck(sw *routing.PairSweep, sys *core.System, violate func(check, format string, args ...any)) DisablesCheck {
	dc := DisablesCheck{UsedTurns: sw.NumTurns()}
	enabled, _ := sys.Disables.Counts()
	dc.EnabledTurns = enabled

	net := sys.Net
	mismatches := 0
	// Deterministic order: devices ascending, then ports.
	for _, dev := range net.Devices() {
		if dev.Kind != topology.Router {
			continue
		}
		for in := 0; in < dev.Ports; in++ {
			for out := 0; out < dev.Ports; out++ {
				if in == out {
					continue
				}
				u := sw.TurnUsed(dev.ID, in, out)
				a := sys.Disables.Allowed(dev.ID, in, out)
				if u && !a {
					if mismatches < maxDetail {
						violate("disables", "turn %d->%d at %s is used by a route but disabled", in, out, dev.Name)
					}
					mismatches++
				}
				if !u && a {
					if mismatches < maxDetail {
						violate("disables", "turn %d->%d at %s is enabled but no route uses it (exceeds the minimal disable set)", in, out, dev.Name)
					}
					mismatches++
				}
			}
		}
	}
	if mismatches > maxDetail {
		violate("disables", "turn mismatches:%s", capNote(mismatches))
	}
	dc.OK = mismatches == 0
	return dc
}

// minimalCycle renders the shortest cycle of a channel dependency graph
// channel by channel, or returns nil when the graph is acyclic.
func minimalCycle(g *graph.Digraph, net *topology.Network, numVC int) []string {
	cycle, cyclic := g.ShortestCycle()
	if !cyclic {
		return nil
	}
	lines := make([]string, len(cycle))
	for i, vtx := range cycle {
		lines[i] = vcChannelString(net, vtx, numVC)
	}
	return lines
}

// vcChannelString renders a (channel, VC) CDG vertex with device and port
// names; the VC suffix is omitted for single-VC routings.
func vcChannelString(net *topology.Network, vertex, numVC int) string {
	ch := topology.ChannelID(vertex / numVC)
	if numVC == 1 {
		return net.ChannelString(ch)
	}
	return fmt.Sprintf("%s vc%d", net.ChannelString(ch), vertex%numVC)
}

func joinCycle(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += " => "
		}
		out += l
	}
	return out + " => (back to start)"
}
