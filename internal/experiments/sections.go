package experiments

import (
	"fmt"
	"strings"

	"repro/internal/contention"
	"repro/internal/deadlock"
	"repro/internal/routing"
	"repro/internal/topology"
)

// MeshRow is one mesh size of §3.1.
type MeshRow struct {
	Cols, Rows    int
	Nodes         int
	Routers       int
	MaxHops       int
	PaperMaxHops  int
	MaxContention int // 0 when skipped for size
}

// Section31Mesh regenerates §3.1's mesh scaling observations: a 6x6 mesh
// for 64+ nodes with 11 max hops and 10:1 contention, 8x8 with 15 hops,
// 23x23 with 45 hops. Contention is computed exactly for the 6x6 case and
// skipped (0) for the larger meshes.
func (l *Lab) Section31Mesh() ([]MeshRow, error) {
	cases := []struct {
		cols, rows, paperHops int
		withContention        bool
	}{
		{6, 6, 11, true},
		{8, 8, 15, false},
		{23, 23, 45, false},
	}
	var rows []MeshRow
	for _, c := range cases {
		sys, err := l.System(fmt.Sprintf("mesh:cols=%d,rows=%d,nodes=2", c.cols, c.rows))
		if err != nil {
			return nil, err
		}
		row := MeshRow{
			Cols: c.cols, Rows: c.rows,
			Nodes:        sys.Net.NumNodes(),
			Routers:      sys.Net.NumRouters(),
			PaperMaxHops: c.paperHops,
		}
		// Max hops occur corner to corner; route one such pair.
		r, err := sys.Tables.Route(0, row.Nodes-1)
		if err != nil {
			return nil, err
		}
		row.MaxHops = r.RouterHops()
		if c.withContention {
			res, err := sys.Contention()
			if err != nil {
				return nil, err
			}
			row.MaxContention = res.Max
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Section31String renders the mesh scaling table.
func Section31String(rows []MeshRow) string {
	var sb strings.Builder
	sb.WriteString("§3.1 — 2-D mesh with 6-port routers (4 directions + 2 nodes)\n")
	sb.WriteString("  mesh  | nodes | routers | max hops (paper) | max contention\n")
	for _, r := range rows {
		cont := "-"
		if r.MaxContention > 0 {
			cont = fmt.Sprintf("%d:1", r.MaxContention)
		}
		fmt.Fprintf(&sb, "  %2dx%-2d | %5d | %7d | %8d (%d) | %s\n",
			r.Cols, r.Rows, r.Nodes, r.Routers, r.MaxHops, r.PaperMaxHops, cont)
	}
	return sb.String()
}

// HypercubeRow is one dimension of §3.2's feasibility argument.
type HypercubeRow struct {
	Dim         int
	Routers     int
	Nodes       int
	PortsNeeded int
	Feasible6   bool // buildable from 6-port routers with 1 node per router
	Bisection   int  // 2^(dim-1); computed for small dims, formula beyond
}

// Section32Hypercube regenerates §3.2: a 64-node hypercube needs 7-port
// routers, and hypercube bandwidth is fixed by the dimension with no
// cost-performance knob.
func Section32Hypercube() []HypercubeRow {
	var rows []HypercubeRow
	for dim := 3; dim <= 7; dim++ {
		row := HypercubeRow{
			Dim:         dim,
			Routers:     1 << dim,
			Nodes:       1 << dim,
			PortsNeeded: topology.HypercubePortsNeeded(dim, 1),
			Bisection:   1 << (dim - 1),
		}
		row.Feasible6 = row.PortsNeeded <= 6
		rows = append(rows, row)
	}
	return rows
}

// Section32String renders the hypercube feasibility table.
func Section32String(rows []HypercubeRow) string {
	var sb strings.Builder
	sb.WriteString("§3.2 — hypercube feasibility with 6-port routers (1 node/router)\n")
	sb.WriteString("  dim | nodes | ports needed | buildable with 6 ports | bisection (fixed)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %3d | %5d | %12d | %22v | %d\n",
			r.Dim, r.Nodes, r.PortsNeeded, r.Feasible6, r.Bisection)
	}
	sb.WriteString("  => the 64-node (6-D) hypercube needs 7 ports; bandwidth scales only with dim\n")
	return sb.String()
}

// FatTreeResult is §3.3's 4-2 fat tree analysis.
type FatTreeResult struct {
	Routers       int
	Levels        int
	AvgHops       float64
	MaxContention int
	Bisection     int
	DeadlockFree  bool
	// PaperSet is the contention of the paper's hand-picked transfer set
	// (nodes 48-59 -> 0-11). Its value depends on which static destination
	// partition the routing uses: the paper's Figure 6 labeling funnels
	// this exact set onto one link; our digit partition spreads it. The
	// pigeonhole argument is partition-independent, which WitnessSet shows.
	PaperSet int
	// WitnessSet re-checks the matching's own worst 12-transfer set through
	// ContentionOfSet: for ANY static partition such a set exists (= 12).
	WitnessSet int
}

// Section33FatTree regenerates §3.3.
func (l *Lab) Section33FatTree() (FatTreeResult, error) {
	var out FatTreeResult
	sys, err := l.System("fattree:d=4,u=2,nodes=64")
	if err != nil {
		return out, err
	}
	row, err := table2Row("", sys)
	if err != nil {
		return out, err
	}
	out.Routers = row.Routers
	out.Levels = sys.Concrete.(*topology.FatTree).Levels
	out.AvgHops = row.AvgHops
	out.MaxContention = row.MaxContention
	out.Bisection = row.Bisection
	out.DeadlockFree = row.DeadlockFree

	var set []contention.Transfer
	for i := 0; i < 12; i++ {
		set = append(set, contention.Transfer{Src: 48 + i, Dst: i})
	}
	out.PaperSet, _, err = contention.ContentionOfSet(sys.Tables, set)
	if err != nil {
		return out, err
	}
	worst, err := sys.Contention()
	if err != nil {
		return out, err
	}
	out.WitnessSet, _, err = contention.ContentionOfSet(sys.Tables, worst.Witness)
	if err != nil {
		return out, err
	}
	return out, nil
}

// String renders the §3.3 analysis.
func (r FatTreeResult) String() string {
	var sb strings.Builder
	sb.WriteString("§3.3 — 64-node 4-2 fat tree\n")
	fmt.Fprintf(&sb, "  routers=%d levels=%d avg hops=%.2f bisection=%d deadlock-free=%v\n",
		r.Routers, r.Levels, r.AvgHops, r.Bisection, r.DeadlockFree)
	fmt.Fprintf(&sb, "  max link contention %d:1 (paper: 12:1)\n", r.MaxContention)
	fmt.Fprintf(&sb, "  paper's literal set (48-59 -> 0-11) under our partition: %d on one link\n", r.PaperSet)
	fmt.Fprintf(&sb, "  matching's witness set under our partition: %d on one link (pigeonhole bound)\n", r.WitnessSet)
	return sb.String()
}

// DeadlockRow summarizes one routing's CDG analysis.
type DeadlockRow struct {
	Topology  string
	Algorithm string
	Channels  int
	Deps      int
	Free      bool
}

// DeadlockSummary runs the Dally–Seitz analysis across the whole topology
// zoo — the verification matrix behind §2 and §2.4.
func DeadlockSummary() ([]DeadlockRow, error) {
	type entry struct {
		name string
		tb   *routing.Tables
	}
	ring := topology.NewRing(4, 1)
	mesh := topology.NewMesh(4, 4, 2)
	torus := topology.NewTorus(4, 4, 1)
	cube := topology.NewHypercube(3, 1)
	ft := topology.NewFatTree(4, 2, 64)
	thin := topology.NewFractahedron(topology.Tetra(2, false))
	fat := topology.NewFractahedron(topology.Tetra(2, true))

	// Unidirectional torus routing: the classic deadlocked counterexample.
	torusUni := routing.Build(torus.Network, "torus-unidir", func(router topology.DeviceID, dst int) int {
		x, y := torus.Coord(router)
		dx, dy := torus.NodeCoord(dst)
		if x != dx {
			return topology.MeshPortXPlus
		}
		if y != dy {
			return topology.MeshPortYPlus
		}
		return torus.NodePort(dst)
	})

	entries := []entry{
		{"ring-4", routing.RingClockwise(ring)},
		{"ring-4", routing.RingSeamless(ring)},
		{"mesh-4x4", routing.MeshDimOrder(mesh, true)},
		{"torus-4x4", torusUni},
		{"hypercube-3", routing.HypercubeECube(cube)},
		{"hypercube-3", routing.HypercubeUpDown(cube)},
		{"fattree-4-2-64", routing.FatTree(ft)},
		{"thin-fract-64", routing.Fractahedron(thin)},
		{"fat-fract-64", routing.Fractahedron(fat)},
	}
	var rows []DeadlockRow
	for _, e := range entries {
		rep, err := deadlock.Analyze(e.tb)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DeadlockRow{
			Topology:  e.name,
			Algorithm: e.tb.Algorithm,
			Channels:  rep.Channels,
			Deps:      rep.Deps,
			Free:      rep.Free,
		})
	}
	return rows, nil
}

// DeadlockSummaryString renders the verification matrix.
func DeadlockSummaryString(rows []DeadlockRow) string {
	var sb strings.Builder
	sb.WriteString("§2/§2.4 — channel-dependency-graph verification matrix\n")
	sb.WriteString("  topology        | algorithm          | channels | deps | deadlock-free\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-15s | %-18s | %8d | %4d | %v\n",
			r.Topology, r.Algorithm, r.Channels, r.Deps, r.Free)
	}
	return sb.String()
}
