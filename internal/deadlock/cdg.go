// Package deadlock analyzes routing algorithms for deadlock freedom using
// the channel dependency graph (CDG) method of Dally and Seitz, which the
// paper's §2 builds on: a wormhole-routed network is deadlock-free iff the
// directed graph whose vertices are unidirectional channels and whose edges
// join consecutively-used channels is acyclic.
//
// Because every routing algorithm in this repository is destination-based
// and table-driven, the CDG's edge set coincides exactly with the set of
// router turns the routes use; the package verifies that equivalence, which
// is what lets ServerNet's path-disable registers (§2.4) enforce the
// analyzed dependency structure in hardware even against corrupted routing
// tables.
package deadlock

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Report is the outcome of a CDG analysis.
type Report struct {
	Net       *topology.Network
	Algorithm string
	Free      bool                 // true iff the CDG is acyclic
	Cycle     []topology.ChannelID // a witness dependency cycle when !Free
	Channels  int                  // CDG vertices (all network channels)
	Deps      int                  // CDG edges (distinct channel dependencies)

	// Order is a Dally–Seitz certificate when Free: a numbering of channels
	// such that every dependency goes from a lower number to a higher one.
	Order []int
}

// BuildCDG routes every ordered node pair through the tables and returns
// the channel dependency graph: vertex i is channel i, and an edge c1 -> c2
// means some route crosses c1 immediately followed by c2. Edges are
// inserted in ascending order, so the graph (and any witness cycle
// extracted from it) is reproducible. When some pair does not route it
// returns Tables.Verify's error.
func BuildCDG(t *routing.Tables) (*graph.Digraph, error) {
	sw := t.Sweep()
	if err := sw.Err(); err != nil {
		return nil, err
	}
	v := t.NumVC()
	if v == 1 {
		return sw.CDG(), nil
	}
	// Project (channel, VC) vertices onto their physical channels.
	deps := sw.Deps()
	for i := range deps {
		deps[i] = [2]int{deps[i][0] / v, deps[i][1] / v}
	}
	slices.SortFunc(deps, routing.CompareEdges)
	g := graph.NewDigraph(t.Net.NumChannels())
	for _, e := range slices.Compact(deps) {
		g.AddEdge(e[0], e[1])
	}
	return g, nil
}

// Analyze builds the CDG for a routing and reports whether it is
// deadlock-free, with either a witness cycle or a numbering certificate.
func Analyze(t *routing.Tables) (Report, error) {
	g, err := BuildCDG(t)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Net:       t.Net,
		Algorithm: t.Algorithm,
		Channels:  g.N(),
		Deps:      g.M(),
	}
	if cyc, cyclic := g.FindCycle(); cyclic {
		rep.Cycle = make([]topology.ChannelID, len(cyc))
		for i, c := range cyc {
			rep.Cycle[i] = topology.ChannelID(c)
		}
		return rep, nil
	}
	rep.Free = true
	order, ok := g.TopoSort()
	if !ok {
		return Report{}, fmt.Errorf("deadlock: graph acyclic but unsortable (internal error)")
	}
	rep.Order = make([]int, g.N())
	for pos, c := range order {
		rep.Order[c] = pos
	}
	return rep, nil
}

// String renders the report for command-line output.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s on %s: %d channels, %d dependencies: ",
		r.Algorithm, r.Net.Name, r.Channels, r.Deps)
	if r.Free {
		sb.WriteString("DEADLOCK-FREE (acyclic CDG, numbering certificate available)")
		return sb.String()
	}
	fmt.Fprintf(&sb, "DEADLOCK POSSIBLE; dependency cycle of length %d:\n", len(r.Cycle))
	for _, c := range r.Cycle {
		fmt.Fprintf(&sb, "  %s\n", r.Net.ChannelString(c))
	}
	return strings.TrimRight(sb.String(), "\n")
}

// VerifyTurnEquivalence checks that the CDG's edges are exactly the turns
// the routes use (one dependency per used turn per router). This is the
// property that makes §2.4's path-disable enforcement exact: disabling all
// unused turns permits precisely the analyzed dependencies and nothing
// more.
func VerifyTurnEquivalence(t *routing.Tables) error {
	g, err := BuildCDG(t)
	if err != nil {
		return err
	}
	sw := t.Sweep()
	if turns := sw.NumTurns(); g.M() != turns {
		return fmt.Errorf("deadlock: %d CDG dependencies != %d used turns", g.M(), turns)
	}
	// Every CDG edge corresponds to an enabled turn.
	for c := 0; c < g.N(); c++ {
		for _, c2 := range g.Out(c) {
			dev := t.Net.ChannelDst(topology.ChannelID(c)).Device
			in := t.Net.ChannelDst(topology.ChannelID(c)).Port
			out := t.Net.ChannelSrc(topology.ChannelID(c2)).Port
			if !sw.TurnUsed(dev, in, out) {
				return fmt.Errorf("deadlock: dependency %s => %s uses a disabled turn (%d->%d at %s)",
					t.Net.ChannelString(topology.ChannelID(c)),
					t.Net.ChannelString(topology.ChannelID(c2)),
					in, out, t.Net.Device(dev).Name)
			}
		}
	}
	return nil
}
