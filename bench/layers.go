package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// topoFunc builds a topology and returns it with the routing step that
// compiles its tables.
type topoFunc func() (*topology.Network, func() *routing.Tables)

// buildLayered builds a system the way the core constructors do, one
// layer at a time with a span around each: topology, routing tables,
// path disables.
func buildLayered(tr *tracer, parent int, name string, topo topoFunc) (*core.System, error) {
	var net *topology.Network
	var route func() *routing.Tables
	tr.do(parent, "topology.build", name, func() { net, route = topo() })
	var tb *routing.Tables
	tr.do(parent, "routing.compile", name, func() { tb = route() })
	var dis *router.Disables
	var err error
	tr.do(parent, "router.disables", name, func() { dis, err = router.FromTables(tb) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &core.System{Net: net, Tables: tb, Disables: dis}, nil
}

func fractTopo(levels int, fat bool) topoFunc {
	return func() (*topology.Network, func() *routing.Tables) {
		f := topology.NewFractahedron(topology.Tetra(levels, fat))
		return f.Network, func() *routing.Tables { return routing.Fractahedron(f) }
	}
}

func fatTreeTopo(d, u, nodes int) topoFunc {
	return func() (*topology.Network, func() *routing.Tables) {
		ft := topology.NewFatTree(d, u, nodes)
		return ft.Network, func() *routing.Tables { return routing.FatTree(ft) }
	}
}

func meshTopo(cols, rows, nodesPer int) topoFunc {
	return func() (*topology.Network, func() *routing.Tables) {
		m := topology.NewMesh(cols, rows, nodesPer)
		return m.Network, func() *routing.Tables { return routing.MeshDimOrder(m, true) }
	}
}

// buildSpans are the ops of a system build; core.build_s is their total.
var buildSpans = []string{"core.build", "topology.build", "routing.compile", "router.disables"}

// addLayer records the per-pass self time of ops as one metric.
func (b *bench) addLayer(name string, spans []span, ops ...string) {
	if v, ok := perRoot(spans, ops...); ok {
		b.add(name, "s", "lower", v)
	}
}

// addRunner records the runner pool's use from the spans of its points
// (op) under each runner.map span.
func (b *bench) addRunner(spans []span, op string) {
	var points, busy, wall []float64
	for _, m := range spans {
		if m.Op != "runner.map" {
			continue
		}
		var n, sum float64
		for _, s := range spans {
			if s.Parent == m.ID && s.Op == op {
				n, sum = n+1, sum+s.seconds()
			}
		}
		points, busy, wall = append(points, n), append(busy, sum), append(wall, m.seconds())
	}
	b.add("runner.points", "count", "higher", points...)
	b.add("runner.busy_s", "s", "lower", busy...)
	b.add("runner.wall_s", "s", "lower", wall...)
	b.add("runner.utilization", "ratio", "higher", median(busy)/(median(wall)*float64(b.workers)))
}
