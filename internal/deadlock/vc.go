package deadlock

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Virtual-channel-aware analysis. With V virtual channels the Dally–Seitz
// condition applies to the extended graph whose vertices are (physical
// channel, VC) pairs: a network can be deadlock-free on a physically cyclic
// topology if the VC assignment breaks every loop — the §2 alternative the
// paper weighs against topology-based avoidance.

// BuildCDGVC routes every pair and returns the dependency graph over
// (channel, VC) vertices; vertex index is channel*V + vc. Edges are
// inserted in ascending order. When some pair does not route it returns
// Tables.Verify's error.
func BuildCDGVC(t *routing.Tables) (*graph.Digraph, error) {
	sw := t.Sweep()
	if err := sw.Err(); err != nil {
		return nil, err
	}
	return sw.CDG(), nil
}

// VCReport is the outcome of a VC-aware CDG analysis.
type VCReport struct {
	Net        *topology.Network
	Algorithm  string
	NumVC      int
	Free       bool
	Cycle      []VCChannel // witness when !Free
	VCChannels int         // vertices: physical channels x VCs
	Deps       int

	// PhysicalCyclic reports whether the projection onto physical channels
	// alone contains a cycle — true for dateline rings, where the VC
	// assignment is doing the work.
	PhysicalCyclic bool
}

// VCChannel is one vertex of the extended dependency graph.
type VCChannel struct {
	Channel topology.ChannelID
	VC      int
}

// AnalyzeVC builds the (channel, VC) dependency graph and reports freedom,
// along with whether the plain physical-channel graph is cyclic.
func AnalyzeVC(t *routing.Tables) (VCReport, error) {
	g, err := BuildCDGVC(t)
	if err != nil {
		return VCReport{}, err
	}
	rep := VCReport{
		Net:        t.Net,
		Algorithm:  t.Algorithm,
		NumVC:      t.NumVC(),
		VCChannels: g.N(),
		Deps:       g.M(),
	}
	if cyc, cyclic := g.FindCycle(); cyclic {
		for _, x := range cyc {
			rep.Cycle = append(rep.Cycle, VCChannel{
				Channel: topology.ChannelID(x / rep.NumVC),
				VC:      x % rep.NumVC,
			})
		}
	} else {
		rep.Free = true
	}

	phys, err := BuildCDG(t)
	if err != nil {
		return VCReport{}, err
	}
	rep.PhysicalCyclic = !phys.Acyclic()
	return rep, nil
}

// String renders the VC report.
func (r VCReport) String() string {
	s := fmt.Sprintf("%s on %s with %d VCs: %d vc-channels, %d dependencies: ",
		r.Algorithm, r.Net.Name, r.NumVC, r.VCChannels, r.Deps)
	if r.Free {
		s += "DEADLOCK-FREE"
		if r.PhysicalCyclic {
			s += " (physical channel graph IS cyclic; the VC assignment breaks the loops)"
		}
		return s
	}
	s += fmt.Sprintf("DEADLOCK POSSIBLE; cycle of %d vc-channels:", len(r.Cycle))
	for _, c := range r.Cycle {
		s += fmt.Sprintf("\n  %s vc%d", r.Net.ChannelString(c.Channel), c.VC)
	}
	return s
}
