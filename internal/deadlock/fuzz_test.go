package deadlock

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// cdgReference is Check as it stood before the verdict was peeled off the
// turn bitmap: the CDG built as a Digraph from Deps, its minimal cycle,
// and for VC routings the physical projection's.
func cdgReference(sw *routing.PairSweep) Report {
	tb := sw.Tables()
	g := sw.CDG()
	rep := Report{Net: tb.Net, Algorithm: tb.Algorithm, NumVC: tb.NumVC(), Vertices: g.N(), Deps: g.M()}
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

// FuzzCheckVsCDG corrupts up to two table entries of a few built-ins, the
// cyclic Figure 1 ring and the ring and torus dateline VC routings (any
// int16 port: holes, wrong, unwired, out-of-range and escaped ports, loops
// that close new dependency cycles), and requires Check's verdict, counts,
// minimal cycle and physical projection to equal the Digraph reference's.
func FuzzCheckVsCDG(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), int16(-1), uint8(3), uint8(2), int16(0))
	f.Add(uint8(1), uint8(2), uint8(5), int16(4), uint8(0), uint8(0), int16(-1))
	f.Add(uint8(2), uint8(1), uint8(0), int16(1), uint8(1), uint8(3), int16(300))
	f.Add(uint8(3), uint8(3), uint8(2), int16(2), uint8(2), uint8(7), int16(2))
	f.Add(uint8(4), uint8(0), uint8(3), int16(0), uint8(1), uint8(1), int16(1))
	f.Add(uint8(5), uint8(1), uint8(2), int16(2), uint8(3), uint8(0), int16(2))
	f.Add(uint8(6), uint8(4), uint8(6), int16(3), uint8(7), uint8(1), int16(-1))
	specs := []string{"fat-fract:levels=1", "mesh:cols=4,rows=4,nodes=2", "hypercube:dim=3,updown",
		"fattree:d=4,u=2,nodes=23", "ring:size=4,unsafe", "ring-dateline", "torus-dateline"}
	f.Fuzz(func(t *testing.T, specSel, r1, d1 uint8, p1 int16, r2, d2 uint8, p2 int16) {
		spec := specs[int(specSel)%len(specs)]
		var tb *routing.Tables
		switch spec {
		case "ring-dateline":
			tb = routing.RingDateline(topology.NewRing(4, 1))
		case "torus-dateline":
			tb = routing.TorusDateline(topology.NewTorus(4, 3, 1))
		default:
			sys, _, err := core.ParseSystem(spec)
			if err != nil {
				t.Fatal(err)
			}
			tb = sys.Tables
		}
		var routers []topology.DeviceID
		for _, d := range tb.Net.Devices() {
			if d.Kind == topology.Router {
				routers = append(routers, d.ID)
			}
		}
		tb.SetOutPort(routers[int(r1)%len(routers)], int(d1)%tb.Net.NumNodes(), int(p1))
		tb.SetOutPort(routers[int(r2)%len(routers)], int(d2)%tb.Net.NumNodes(), int(p2))

		sw := tb.Sweep()
		got, want := Check(sw), cdgReference(sw)
		if got.Free != want.Free || got.Deps != want.Deps || got.Vertices != want.Vertices ||
			!slices.Equal(got.Cycle, want.Cycle) || got.PhysicalCyclic != want.PhysicalCyclic {
			t.Fatalf("%s: Check free=%v deps=%d vertices=%d cycle=%v physical=%v, reference free=%v deps=%d vertices=%d cycle=%v physical=%v",
				spec, got.Free, got.Deps, got.Vertices, got.Cycle, got.PhysicalCyclic,
				want.Free, want.Deps, want.Vertices, want.Cycle, want.PhysicalCyclic)
		}
	})
}

// Routers wider than a bitmap word read their turn rows in 64-bit pieces:
// a ring of three 70-port routers with 68 nodes each, each router's
// clockwise cable on its last port, routed up*/down* (acyclic) and
// clockwise (a three-channel cycle through those ports).
func TestCheckWideRouters(t *testing.T) {
	net := topology.New("wide")
	var rs []topology.DeviceID
	for i := range 3 {
		rs = append(rs, net.AddRouter(fmt.Sprintf("r%d", i), 70))
	}
	for i, r := range rs {
		net.Connect(r, 69, rs[(i+1)%3], 0)
	}
	home := map[int]topology.PortRef{}
	for i, r := range rs {
		for p := 1; p < 69; p++ {
			home[net.NumNodes()] = topology.PortRef{Device: r, Port: p}
			net.Connect(net.AddNode(fmt.Sprintf("n%d.%d", i, p)), 0, r, p)
		}
	}
	clockwise := routing.Build(net, "clockwise", func(r topology.DeviceID, dst int) int {
		if home[dst].Device == r {
			return home[dst].Port
		}
		return 69
	})
	for _, tb := range []*routing.Tables{routing.UpDownGeneric(net, rs[0]), clockwise} {
		sw := tb.Sweep()
		got, want := Check(sw), cdgReference(sw)
		if got.Free != want.Free || got.Deps != want.Deps || !slices.Equal(got.Cycle, want.Cycle) {
			t.Errorf("%s: Check free=%v deps=%d cycle=%v, reference free=%v deps=%d cycle=%v",
				tb.Algorithm, got.Free, got.Deps, got.Cycle, want.Free, want.Deps, want.Cycle)
		}
		if cyclic := tb == clockwise; got.Free == cyclic || cyclic && len(got.Cycle) != 3 {
			t.Errorf("%s: free=%v cycle %v", tb.Algorithm, got.Free, got.Cycle)
		}
	}
}
