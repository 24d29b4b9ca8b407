package metrics

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

func TestHopsFullMesh(t *testing.T) {
	fm := topology.NewFullMesh(4, 6)
	st, err := Hops(routing.FullMesh(fm))
	if err != nil {
		t.Fatal(err)
	}
	if st.Max != 2 || st.Min != 1 {
		t.Errorf("hops min=%d max=%d, want 1..2", st.Min, st.Max)
	}
	if st.Pairs != 12*11 {
		t.Errorf("pairs = %d, want 132", st.Pairs)
	}
	// Per source: 2 same-router destinations at 1 hop, 9 at 2.
	if st.Histogram[1] != 12*2 || st.Histogram[2] != 12*9 {
		t.Errorf("histogram = %v", st.Histogram)
	}
	wantMean := float64(12*2*1+12*9*2) / 132
	if st.Mean != wantMean {
		t.Errorf("mean = %v, want %v", st.Mean, wantMean)
	}
}

// Table 2 both rows at once: hop averages for the two 64-node networks.
func TestHopsTable2(t *testing.T) {
	ft, _ := Hops(routing.FatTree(topology.NewFatTree(4, 2, 64)))
	fr, _ := Hops(routing.Fractahedron(topology.NewFractahedron(topology.Tetra(2, true))))
	if !(fr.Mean < ft.Mean) {
		t.Errorf("fractahedron mean %.3f not below fat tree mean %.3f", fr.Mean, ft.Mean)
	}
}

// §2.2: thin fractahedrons have bisection bandwidth fixed at four links.
func TestThinFractahedronBisection(t *testing.T) {
	for n := 1; n <= 2; n++ {
		f := topology.NewFractahedron(topology.Tetra(n, false))
		res := Bisection(f.Network, 2, 1)
		if res.Cut != 4 {
			t.Errorf("N=%d thin bisection = %d, want 4 (paper Table 1)", n, res.Cut)
		}
	}
}

// Table 1's fat column: the replicated layers multiply the bisection; the
// measured cut is 4^N (4, 16), the value consistent with the construction
// (the printed table's "4N" appears to have lost a superscript; see
// EXPERIMENTS.md).
func TestFatFractahedronBisection(t *testing.T) {
	for n := 1; n <= 2; n++ {
		f := topology.NewFractahedron(topology.Tetra(n, true))
		res := Bisection(f.Network, 2, 1)
		want := 1
		for i := 0; i < n; i++ {
			want *= 4
		}
		if res.Cut != want {
			t.Errorf("N=%d fat bisection = %d, want %d", n, res.Cut, want)
		}
	}
}

// §3.3: the 64-node 4-2 fat tree's bisection.
func TestFatTreeBisection(t *testing.T) {
	ft := topology.NewFatTree(4, 2, 64)
	res := Bisection(ft.Network, 3, 1)
	if res.Cut != 8 {
		t.Errorf("4-2 fat tree bisection = %d, want 8 (2 crossing links per top router)", res.Cut)
	}
}

// §2: a simple tree's bisection is the single link at the root.
func TestSimpleTreeBisectionBottleneck(t *testing.T) {
	tr := topology.NewFatTree(4, 1, 16)
	res := Bisection(tr.Network, 2, 1)
	if res.Cut != 2 {
		// Root has 4 down links to 4 subtrees; splitting 2-2 cuts 2 links.
		t.Errorf("tree bisection = %d, want 2", res.Cut)
	}
}

func TestHypercubeBisection(t *testing.T) {
	h := topology.NewHypercube(3, 1)
	res := Bisection(h.Network, 2, 1)
	if res.Cut != 4 {
		t.Errorf("3-cube bisection = %d, want 4 (2^(d-1))", res.Cut)
	}
}

func TestMeshBisection(t *testing.T) {
	m := topology.NewMesh(6, 6, 2)
	res := Bisection(m.Network, 2, 1)
	if res.Cut != 6 {
		t.Errorf("6x6 mesh bisection = %d, want 6 (one link per row)", res.Cut)
	}
}

// Table 2's cost row: 28 vs 48 routers for the two 64-node networks.
func TestCostTable2(t *testing.T) {
	ft := CostOf(topology.NewFatTree(4, 2, 64).Network)
	fr := CostOf(topology.NewFractahedron(topology.Tetra(2, true)).Network)
	if ft.Routers != 28 || fr.Routers != 48 {
		t.Errorf("routers = %d and %d, want 28 and 48", ft.Routers, fr.Routers)
	}
	if ft.RoutersPerNode >= fr.RoutersPerNode {
		t.Error("fat tree should be cheaper per node")
	}
	// Inter-router cables: fat tree 16*2 + 8*2 = 48; fractahedron
	// 8 tetras*6 + 4 layers*6 + 32 up links = 104.
	if ft.InterRouter != 48 {
		t.Errorf("fat tree inter-router links = %d, want 48", ft.InterRouter)
	}
	if fr.InterRouter != 104 {
		t.Errorf("fractahedron inter-router links = %d, want 104", fr.InterRouter)
	}
}

func TestAreaModel(t *testing.T) {
	m := DefaultAreaModel()
	// Doubling VCs adds exactly the buffer+control cost of the extra VC.
	a1 := m.RouterArea(6, 1, 4)
	a2 := m.RouterArea(6, 2, 4)
	wantDelta := m.GatesPerFlit*6*4 + m.ControlPerPort*6
	if a2-a1 != wantDelta {
		t.Errorf("VC delta = %v, want %v", a2-a1, wantDelta)
	}
	// Zero-depth router has zero buffer share.
	if m.BufferShare(6, 1, 0) != 0 {
		t.Error("zero-depth buffer share not zero")
	}
	if m.NetworkArea(10, 6, 1, 4) != 10*a1 {
		t.Error("network area not linear in router count")
	}
}

func TestAreaModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad shape accepted")
		}
	}()
	DefaultAreaModel().RouterArea(0, 1, 4)
}

// The paper's deterministic routings are minimal on their topologies;
// generic up*/down* pays a stretch penalty on cyclic irregular graphs.
func TestStretch(t *testing.T) {
	minimal := []*routing.Tables{
		routing.Fractahedron(topology.NewFractahedron(topology.Tetra(2, true))),
		routing.Fractahedron(topology.NewFractahedron(topology.Tetra(2, false))),
		routing.FatTree(topology.NewFatTree(4, 2, 64)),
		routing.MeshDimOrder(topology.NewMesh(4, 4, 1), true),
		routing.HypercubeECube(topology.NewHypercube(3, 1)),
	}
	for _, tb := range minimal {
		st, err := Stretch(tb)
		if err != nil {
			t.Fatal(err)
		}
		if st.Max != 1 || st.NonMinimal != 0 {
			t.Errorf("%s on %s: stretch max %.2f, %d non-minimal routes",
				tb.Algorithm, tb.Net.Name, st.Max, st.NonMinimal)
		}
	}
	ccc := topology.NewCCC(3)
	st, err := Stretch(routing.UpDownGeneric(ccc.Network, ccc.Routers[0][0]))
	if err != nil {
		t.Fatal(err)
	}
	if st.NonMinimal == 0 || st.Max <= 1 {
		t.Errorf("up*/down* on CCC reported minimal (max %.2f); expected detours", st.Max)
	}
}

// BenchmarkBisection measures the balanced min-cut search on the Table 1
// fractahedrons: the level-2 fat one with one random restart, and the
// level-3 fat and thin ones with the seed cuts alone, as
// core.System.Bisection runs networks above 128 end nodes.
func BenchmarkBisection(b *testing.B) {
	for _, c := range []struct {
		name           string
		levels         int
		fat            bool
		restarts, want int
	}{
		{"fat-fract:levels=2", 2, true, 1, 16},
		{"fat-fract:levels=3", 3, true, 0, 64},
		{"thin-fract:levels=3", 3, false, 0, 4},
	} {
		net := topology.NewFractahedron(topology.Tetra(c.levels, c.fat)).Network
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := Bisection(net, c.restarts, 1); res.Cut != c.want {
					b.Fatalf("cut = %d, want %d", res.Cut, c.want)
				}
			}
		})
	}
}
