package fabricver

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/deadlock"
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

// cdgCheck renders the deadlock package's CDG verdict. When the graph is
// cyclic the minimal dependency cycle is the counterexample; when acyclic,
// the certificate covers every (channel, VC) vertex.
func cdgCheck(sw *routing.PairSweep, violate func(check, format string, args ...any)) CDGCheck {
	rep := deadlock.Check(sw)
	cc := CDGCheck{Vertices: rep.Vertices, Deps: rep.Deps, Acyclic: rep.Free, MinimalCycle: rep.CycleLines()}
	if rep.Free {
		cc.CertificateSize = rep.Vertices
	} else {
		violate("cdg", "channel dependency graph has a cycle; minimal cycle (%d channels): %s",
			len(cc.MinimalCycle), joinCycle(cc.MinimalCycle))
	}
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
		used := make([]bool, dev.Ports)
		for in := 0; in < dev.Ports; in++ {
			sw.TurnRow(used, dev.ID, in)
			allowed := sys.Disables.Row(dev.ID, in)
			for out := 0; out < dev.Ports; out++ {
				if in == out {
					continue
				}
				u, a := used[out], allowed[out]
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
