// Package core is the library façade: it couples a topology with its
// deadlock-free routing and path-disable configuration into a System, and
// offers one-call analysis (hops, contention, bisection, deadlock freedom,
// cost) and simulation. It is the API the examples, commands and benchmark
// harness build on; the individual subsystems remain available in their own
// packages for finer control.
package core

import (
	"fmt"

	"repro/internal/contention"
	"repro/internal/deadlock"
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

// Analysis aggregates every figure of merit the paper compares.
type Analysis struct {
	Hops       metrics.HopStats
	Contention contention.Result
	Bisection  graph.BisectionResult
	Deadlock   deadlock.Report
	Cost       metrics.Cost
}

// AnalyzeOptions tunes the analysis.
type AnalyzeOptions struct {
	// SkipContention skips the (quadratic) contention matching.
	SkipContention bool
	// SkipBisection skips the bisection search.
	SkipBisection bool
	// BisectionRestarts is the random-restart count (default 3).
	BisectionRestarts int
}

// Analyze computes the full comparison suite for the system.
func (s *System) Analyze(opt AnalyzeOptions) (Analysis, error) {
	if opt.BisectionRestarts == 0 {
		opt.BisectionRestarts = 3
	}
	var a Analysis
	var err error
	if a.Hops, err = metrics.Hops(s.Tables); err != nil {
		return a, fmt.Errorf("core: hop analysis: %w", err)
	}
	if !opt.SkipContention {
		if a.Contention, err = contention.MaxLinkContention(s.Tables); err != nil {
			return a, fmt.Errorf("core: contention analysis: %w", err)
		}
	}
	if !opt.SkipBisection {
		// One fixed seed: every table the paper prints is reproducible.
		a.Bisection = metrics.Bisection(s.Net, opt.BisectionRestarts, 1)
	}
	if a.Deadlock, err = deadlock.Analyze(s.Tables); err != nil {
		return a, fmt.Errorf("core: deadlock analysis: %w", err)
	}
	a.Cost = metrics.CostOf(s.Net)
	return a, nil
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
