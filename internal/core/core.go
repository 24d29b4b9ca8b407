// Package core is the library façade: it couples a topology with its
// deadlock-free routing and path-disable configuration into a System. A
// System computes its two expensive analyses, contention and bisection,
// once each and shares them, and it runs simulations. The cheap analyses
// (metrics.Hops, deadlock.Analyze, metrics.CostOf) are called directly on
// its tables and network. It is the API the commands, experiments and
// benchmark harness build on.
package core

import (
	"fmt"
	"sync"

	"repro/internal/contention"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// System is a topology with routing tables and the matching minimal
// path-disable configuration (§2.4).
type System struct {
	Net      *topology.Network
	Tables   *routing.Tables
	Disables *router.Disables

	// Concrete holds the builder-specific topology value (e.g.
	// *topology.Fractahedron) for callers that need structural metadata —
	// the SVG renderers use it to pick a layered layout.
	Concrete any

	contentionOnce sync.Once
	contention     contention.Result
	contentionErr  error

	bisectionOnce sync.Once
	bisection     graph.BisectionResult
	bisectionErr  error
}

func newSystem(net *topology.Network, tb *routing.Tables) (*System, error) {
	dis, err := router.FromTables(tb)
	if err != nil {
		return nil, err
	}
	return &System{Net: net, Tables: tb, Disables: dis}, nil
}

// NewFractahedron builds a fractahedral system (the paper's contribution).
func NewFractahedron(cfg topology.FractConfig) (*System, *topology.Fractahedron, error) {
	f := topology.NewFractahedron(cfg)
	s, err := newSystem(f.Network, routing.Fractahedron(f))
	if s != nil {
		s.Concrete = f
	}
	return s, f, err
}

// NewFatFractahedron builds the fat (layered) variant at a given depth
// without the fan-out stage — Figure 7's configuration at levels = 2.
func NewFatFractahedron(levels int) (*System, *topology.Fractahedron, error) {
	return NewFractahedron(topology.Tetra(levels, true))
}

// NewThinFractahedron builds the thin variant at a given depth.
func NewThinFractahedron(levels int) (*System, *topology.Fractahedron, error) {
	return NewFractahedron(topology.Tetra(levels, false))
}

// NewFatTree builds a D-U fat tree system over the given node count.
func NewFatTree(d, u, nodes int) (*System, *topology.FatTree, error) {
	ft := topology.NewFatTree(d, u, nodes)
	s, err := newSystem(ft.Network, routing.FatTree(ft))
	if s != nil {
		s.Concrete = ft
	}
	return s, ft, err
}

// NewMesh builds a 2-D mesh system with dimension-order routing.
func NewMesh(cols, rows, nodesPer int) (*System, *topology.Mesh, error) {
	m := topology.NewMesh(cols, rows, nodesPer)
	s, err := newSystem(m.Network, routing.MeshDimOrder(m, true))
	if s != nil {
		s.Concrete = m
	}
	return s, m, err
}

// NewHypercube builds a hypercube system; upDown selects the path-disable
// (up*/down*) discipline of Figure 2, otherwise e-cube.
func NewHypercube(dim, nodesPer int, upDown bool) (*System, *topology.Hypercube, error) {
	h := topology.NewHypercube(dim, nodesPer)
	var tb *routing.Tables
	if upDown {
		tb = routing.HypercubeUpDown(h)
	} else {
		tb = routing.HypercubeECube(h)
	}
	s, err := newSystem(h.Network, tb)
	if s != nil {
		s.Concrete = h
	}
	return s, h, err
}

// NewRing builds a ring system; safe selects seam-avoiding (deadlock-free)
// routing, otherwise strictly clockwise routing (Figure 1's demonstrator).
// The unsafe variant pairs with router.AllowAll since its own turn set is
// cyclic.
func NewRing(size, nodesPer int, safe bool) (*System, *topology.Ring, error) {
	r := topology.NewRing(size, nodesPer)
	var tb *routing.Tables
	if safe {
		tb = routing.RingSeamless(r)
	} else {
		tb = routing.RingClockwise(r)
	}
	s, err := newSystem(r.Network, tb)
	if s != nil {
		s.Concrete = r
	}
	return s, r, err
}

// NewFullMesh builds a fully-connected router group system (Figure 3).
func NewFullMesh(m, ports int) (*System, *topology.FullMesh, error) {
	fm := topology.NewFullMesh(m, ports)
	s, err := newSystem(fm.Network, routing.FullMesh(fm))
	if s != nil {
		s.Concrete = fm
	}
	return s, fm, err
}

// Contention returns the system's worst-case link contention over every
// inter-router channel (contention.MaxLinkContention). The matching runs
// once, on the first call, and describes the tables as they were at that
// call; later calls return the same result, which callers must not
// modify. Safe for concurrent callers.
func (s *System) Contention() (contention.Result, error) {
	s.contentionOnce.Do(func() {
		s.contention, s.contentionErr = contention.MaxLinkContention(s.Tables)
	})
	return s.contention, s.contentionErr
}

// Bisection returns the system's balanced minimum bisection in links
// (metrics.Bisection with seed 1, so every printed table is reproducible).
// Up to 128 end nodes the structural seed cuts are refined by 3 random
// restarts; above that the seed cut alone is used, with restarts only when
// the network offers no balanced seed cut. A network with an odd node count
// has no balanced bisection and yields an error. The search runs once, on
// the first call, and describes the network as it was at that call; later
// calls return the same result, which callers must not modify. Safe for
// concurrent callers.
func (s *System) Bisection() (graph.BisectionResult, error) {
	s.bisectionOnce.Do(func() {
		n := s.Net.NumNodes()
		if n%2 != 0 {
			s.bisectionErr = fmt.Errorf("core: %s has %d end nodes, an odd count has no balanced bisection", s.Net.Name, n)
			return
		}
		restarts := 3
		if n > 128 {
			restarts = 0
		}
		s.bisection = metrics.Bisection(s.Net, restarts, 1)
		if s.bisection.Cut < 0 {
			s.bisection = metrics.Bisection(s.Net, 3, 1)
		}
	})
	return s.bisection, s.bisectionErr
}

// Simulate runs a workload through the wormhole simulator with the
// system's routing and disables.
func (s *System) Simulate(specs []sim.PacketSpec, cfg sim.Config) (sim.Result, error) {
	sm := sim.New(s.Net, s.Disables, cfg)
	if err := sm.AddBatch(s.Tables, specs); err != nil {
		return sim.Result{}, err
	}
	return sm.Run(), nil
}

// SimulateUnrestricted runs a workload with all turns enabled — needed for
// deliberately unsafe routings (Figure 1) whose own turn set is cyclic.
func (s *System) SimulateUnrestricted(specs []sim.PacketSpec, cfg sim.Config) (sim.Result, error) {
	sm := sim.New(s.Net, router.AllowAll(s.Net), cfg)
	if err := sm.AddBatch(s.Tables, specs); err != nil {
		return sim.Result{}, err
	}
	return sm.Run(), nil
}

// NewCCC builds a cube-connected-cycles system routed with generic
// up*/down* tables rooted at router (0, 0).
func NewCCC(dim int) (*System, *topology.CCC, error) {
	c := topology.NewCCC(dim)
	s, err := newSystem(c.Network, routing.UpDownGeneric(c.Network, c.Routers[0][0]))
	if s != nil {
		s.Concrete = c
	}
	return s, c, err
}

// NewShuffleExchange builds a shuffle-exchange system routed with generic
// up*/down* tables rooted at router 0.
func NewShuffleExchange(dim int) (*System, *topology.ShuffleExchange, error) {
	se := topology.NewShuffleExchange(dim)
	s, err := newSystem(se.Network, routing.UpDownGeneric(se.Network, se.Routers[0]))
	if s != nil {
		s.Concrete = se
	}
	return s, se, err
}
