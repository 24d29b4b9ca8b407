// Package deadlock decides deadlock freedom with the channel dependency
// graph (CDG) method of Dally and Seitz, which the paper's §2 builds on: a
// wormhole-routed network is deadlock-free iff the directed graph whose
// vertices are (unidirectional channel, virtual channel) pairs and whose
// edges join consecutively used ones is acyclic. With one VC the vertices
// are the physical channels; with more, a physically cyclic topology is
// deadlock-free when the VC assignment breaks every loop — the §2
// alternative the paper weighs against topology-based avoidance.
//
// Check is the repository's one acyclicity verdict: the experiments, the
// fabric verifier's certificates and fault enumeration, and the chaos
// harness's online recertification all read it. Because every routing
// algorithm here is destination-based and table-driven, the CDG's edges
// are exactly the router turns the routes use, which is what lets
// ServerNet's path-disable registers (§2.4) enforce the analyzed
// dependency structure in hardware even against corrupted routing tables.
package deadlock

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Report is the outcome of a CDG analysis.
type Report struct {
	Net       *topology.Network
	Algorithm string
	NumVC     int
	Free      bool // true iff the CDG is acyclic
	Vertices  int  // CDG vertices: channels × VCs
	Deps      int  // CDG edges: distinct dependencies

	// Cycle is a minimal dependency cycle when !Free, as CDG vertices
	// (channel*NumVC + vc). Among equal-length cycles it is the one
	// through the lowest vertex, so it is reproducible.
	Cycle []int

	// PhysicalCyclic reports, for NumVC > 1, whether the projection onto
	// physical channels alone is cyclic — true for dateline rings, where
	// the VC assignment is doing the work. It is left false for a single
	// VC, where Free already is the physical verdict.
	PhysicalCyclic bool
}

// Check decides acyclicity of the dependency graph of the routes a sweep
// found. Pairs that do not route contribute no dependencies, so Check also
// serves the fabric verifier's damaged tables; Analyze is the form that
// requires every pair to route.
func Check(sw *routing.PairSweep) Report {
	tb := sw.Tables()
	g := sw.CDG()
	rep := Report{
		Net:       tb.Net,
		Algorithm: tb.Algorithm,
		NumVC:     tb.NumVC(),
		Vertices:  g.N(),
		Deps:      g.M(),
	}
	var cyclic bool
	rep.Cycle, cyclic = g.ShortestCycle()
	rep.Free = !cyclic
	if rep.NumVC > 1 {
		phys := graph.NewDigraph(tb.Net.NumChannels())
		for _, e := range sw.Deps() {
			phys.AddEdge(e[0]/rep.NumVC, e[1]/rep.NumVC)
		}
		_, rep.PhysicalCyclic = phys.ShortestCycle()
	}
	return rep
}

// Analyze is Check for tables that must route every ordered node pair:
// when one does not, it returns Tables.Verify's error.
func Analyze(t *routing.Tables) (Report, error) {
	sw := t.Sweep()
	if err := sw.Err(); err != nil {
		return Report{}, err
	}
	return Check(sw), nil
}

// CycleLines renders the witness cycle one vertex per line with device and
// port names, or nil when the graph is acyclic. The " vcN" suffix appears
// only when the routing has more than one VC.
func (r Report) CycleLines() []string {
	var lines []string
	for _, v := range r.Cycle {
		line := r.Net.ChannelString(topology.ChannelID(v / r.NumVC))
		if r.NumVC > 1 {
			line += fmt.Sprintf(" vc%d", v%r.NumVC)
		}
		lines = append(lines, line)
	}
	return lines
}

// String renders the report for command-line output.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s on %s: ", r.Algorithm, r.Net.Name)
	if r.NumVC > 1 {
		fmt.Fprintf(&sb, "%d VCs, %d vc-channels", r.NumVC, r.Vertices)
	} else {
		fmt.Fprintf(&sb, "%d channels", r.Vertices)
	}
	fmt.Fprintf(&sb, ", %d dependencies: ", r.Deps)
	if r.Free {
		sb.WriteString("DEADLOCK-FREE (acyclic CDG: every strongly connected component is a single vertex)")
		if r.PhysicalCyclic {
			sb.WriteString(" (physical channel graph IS cyclic; the VC assignment breaks the loops)")
		}
		return sb.String()
	}
	fmt.Fprintf(&sb, "DEADLOCK POSSIBLE; minimal dependency cycle of length %d:", len(r.Cycle))
	for _, line := range r.CycleLines() {
		fmt.Fprintf(&sb, "\n  %s", line)
	}
	return sb.String()
}
