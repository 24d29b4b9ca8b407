package experiments

import (
	"fmt"
	"strings"

	"repro/internal/contention"
	"repro/internal/deadlock"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/topology"
)

// BackgroundRow compares one of §2's listed MPP topologies at roughly 64
// nodes, all under deadlock-free table routing.
type BackgroundRow struct {
	Name         string
	Nodes        int
	Routers      int
	PortsPer     int
	MaxHops      int
	AvgHops      float64
	Stretch      float64 // max routed/shortest hop ratio (1.0 = minimal)
	Contention   int
	Bisection    int
	DeadlockFree bool
}

// BackgroundTopologies measures the full §2 topology zoo — ring, mesh,
// torus, binary tree, fat tree, hypercube, cube-connected cycles,
// shuffle-exchange — against the fractahedron, each with a deadlock-free
// routing (the topology-specific algorithm where one exists, generic
// up*/down* otherwise).
func BackgroundTopologies() ([]BackgroundRow, error) {
	type entry struct {
		name  string
		net   *topology.Network
		tb    *routing.Tables
		ports int
	}

	ring := topology.NewRing(32, 2)
	mesh := topology.NewMesh(6, 6, 2)
	torus := topology.NewTorus(6, 6, 2)
	btree := topology.NewFatTree(2, 1, 64)
	ftree := topology.NewFatTree(4, 2, 64)
	cube := topology.NewHypercube(6, 1)
	ccc := topology.NewCCC(4) // 4*16 = 64 nodes
	se := topology.NewShuffleExchange(6)
	thin := topology.NewFractahedron(topology.Tetra(2, false))
	fat := topology.NewFractahedron(topology.Tetra(2, true))

	entries := []entry{
		{"ring", ring.Network, routing.RingSeamless(ring), 4},
		{"2-D mesh", mesh.Network, routing.MeshDimOrder(mesh, true), 6},
		{"torus (2 VC dateline)", torus.Network, routing.TorusDateline(torus), 6},
		{"binary tree", btree.Network, routing.FatTree(btree), 3},
		{"4-2 fat tree", ftree.Network, routing.FatTree(ftree), 6},
		{"hypercube (e-cube)", cube.Network, routing.HypercubeECube(cube), 7},
		{"cube-connected cycles", ccc.Network, routing.UpDownGeneric(ccc.Network, ccc.Routers[0][0]), 4},
		{"shuffle-exchange", se.Network, routing.UpDownGeneric(se.Network, se.Routers[0]), 4},
		{"thin fractahedron", thin.Network, routing.Fractahedron(thin), 6},
		{"fat fractahedron", fat.Network, routing.Fractahedron(fat), 6},
	}

	var rows []BackgroundRow
	for _, e := range entries {
		hops, err := metrics.Hops(e.tb)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		cont, err := contention.MaxLinkContention(e.tb)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		rep, err := deadlock.Analyze(e.tb)
		if err != nil {
			return nil, err
		}
		bis := metrics.Bisection(e.net, 2, 1)
		stretch, err := metrics.Stretch(e.tb)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BackgroundRow{
			Name:         e.name,
			Nodes:        e.net.NumNodes(),
			Routers:      e.net.NumRouters(),
			PortsPer:     e.ports,
			MaxHops:      hops.Max,
			AvgHops:      hops.Mean,
			Stretch:      stretch.Max,
			Contention:   cont.Max,
			Bisection:    bis.Cut,
			DeadlockFree: rep.Free,
		})
	}
	return rows, nil
}

// BackgroundString renders the topology zoo comparison.
func BackgroundString(rows []BackgroundRow) string {
	var sb strings.Builder
	sb.WriteString("§2 topology zoo at ~64 nodes, deadlock-free routing everywhere\n")
	sb.WriteString("  topology              | nodes | routers | ports | max hops | avg hops | stretch | contention | bisection | free\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-21s | %5d | %7d | %5d | %8d | %8.2f | %7.2f | %8d:1 | %9d | %v\n",
			r.Name, r.Nodes, r.Routers, r.PortsPer, r.MaxHops, r.AvgHops, r.Stretch, r.Contention, r.Bisection, r.DeadlockFree)
	}
	return sb.String()
}
