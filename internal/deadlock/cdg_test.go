package deadlock

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/routing"
	"repro/internal/topology"
)

func analyze(t *testing.T, tb *routing.Tables) Report {
	t.Helper()
	rep, err := Analyze(tb)
	if err != nil {
		t.Fatalf("analyze %s: %v", tb.Algorithm, err)
	}
	return rep
}

// Figure 1: strictly clockwise routing on a ring has a cyclic CDG.
func TestRingClockwiseDeadlocks(t *testing.T) {
	r := topology.NewRing(4, 1)
	rep := analyze(t, routing.RingClockwise(r))
	if rep.Free {
		t.Fatal("clockwise ring reported deadlock-free")
	}
	if len(rep.Cycle) != 4 {
		t.Errorf("minimal cycle length = %d, want 4 (the four inter-router channels)", len(rep.Cycle))
	}
	// Each cycle member must be an inter-router channel.
	for _, v := range rep.Cycle {
		c := topology.ChannelID(v)
		src := r.ChannelSrc(c).Device
		dst := r.ChannelDst(c).Device
		if r.Device(src).Kind != topology.Router || r.Device(dst).Kind != topology.Router {
			t.Errorf("cycle includes node channel %s", r.ChannelString(c))
		}
	}
	if !strings.Contains(rep.String(), "DEADLOCK POSSIBLE") {
		t.Errorf("report text: %s", rep.String())
	}
}

// Breaking the seam (disabling one direction pair) makes the ring safe.
func TestRingSeamlessFree(t *testing.T) {
	r := topology.NewRing(4, 1)
	rep := analyze(t, routing.RingSeamless(r))
	if !rep.Free {
		t.Fatalf("seamless ring not deadlock-free: %s", rep)
	}
	if rep.Vertices != r.NumChannels() || rep.Cycle != nil {
		t.Errorf("verdict covers %d vertices with cycle %v, want %d and none", rep.Vertices, rep.Cycle, r.NumChannels())
	}
}

// §2: dimension-order routing avoids deadlock on the mesh...
func TestMeshDimOrderFree(t *testing.T) {
	m := topology.NewMesh(4, 4, 2)
	for _, yFirst := range []bool{false, true} {
		rep := analyze(t, routing.MeshDimOrder(m, yFirst))
		if !rep.Free {
			t.Errorf("mesh dim-order yFirst=%v not free: %s", yFirst, rep)
		}
	}
}

// ...but NOT on the torus: the wraparound rings keep their cycles, which is
// why Dally & Seitz needed virtual channels there.
func TestTorusDimOrderDeadlocks(t *testing.T) {
	m := topology.NewTorus(3, 3, 1)
	// Dimension-order works unchanged on the torus builder because the walk
	// still terminates (mesh-style greedy steps; wrap links used only when
	// they shorten... the mesh router never chooses them, so force use by a
	// clockwise unidirectional ring routing per dimension instead).
	tb := routing.Build(m.Network, "torus-unidir", func(router topology.DeviceID, dst int) int {
		x, y := m.Coord(router)
		dx, dy := m.NodeCoord(dst)
		if x != dx {
			return topology.MeshPortXPlus // always +X around the ring
		}
		if y != dy {
			return topology.MeshPortYPlus
		}
		return m.NodePort(dst)
	})
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, tb)
	if rep.Free {
		t.Error("unidirectional torus routing reported deadlock-free; wraparound rings must cycle")
	}
}

// §2: the hypercube with up*/down* path disables is deadlock-free, as is
// e-cube.
func TestHypercubeRoutingsFree(t *testing.T) {
	h := topology.NewHypercube(3, 1)
	for _, tb := range []*routing.Tables{routing.HypercubeECube(h), routing.HypercubeUpDown(h)} {
		rep := analyze(t, tb)
		if !rep.Free {
			t.Errorf("%s not free: %s", tb.Algorithm, rep)
		}
	}
}

// §3.3: tree routing is deadlock-free (trees have no loops; fat trees with
// up*/down* discipline keep that property).
func TestFatTreesFree(t *testing.T) {
	for _, du := range [][2]int{{4, 2}, {3, 3}, {4, 1}} {
		ft := topology.NewFatTree(du[0], du[1], 64)
		rep := analyze(t, routing.FatTree(ft))
		if !rep.Free {
			t.Errorf("%d-%d fat tree not free: %s", du[0], du[1], rep)
		}
	}
}

// §2.4: the fractahedral routing algorithm eliminates the loops that the
// fat variant's multiple layers introduce. Verified for thin and fat, with
// and without the fan-out stage, at N = 1..3 (N=3 only without fan-out to
// bound test time).
func TestFractahedronsFree(t *testing.T) {
	for n := 1; n <= 2; n++ {
		for _, fat := range []bool{false, true} {
			for _, fan := range []bool{false, true} {
				cfg := topology.Tetra(n, fat)
				cfg.Fanout = fan
				rep := analyze(t, routing.Fractahedron(topology.NewFractahedron(cfg)))
				if !rep.Free {
					t.Errorf("N=%d fat=%v fan=%v not free: %s", n, fat, fan, rep)
				}
			}
		}
	}
}

func TestFractahedronN3Free(t *testing.T) {
	if testing.Short() {
		t.Skip("512-node CDG in -short mode")
	}
	for _, fat := range []bool{false, true} {
		rep := analyze(t, routing.Fractahedron(topology.NewFractahedron(topology.Tetra(3, fat))))
		if !rep.Free {
			t.Errorf("N=3 fat=%v not free: %s", fat, rep)
		}
	}
}

// Generalized ensembles (§4: "the concepts easily generalize to other fully
// connected groups of N-port routers") stay deadlock-free.
func TestGeneralizedFractahedronFree(t *testing.T) {
	for _, g := range []int{3, 5} {
		cfg := topology.FractConfig{Group: g, Down: 2, Levels: 2, Fat: true}
		rep := analyze(t, routing.Fractahedron(topology.NewFractahedron(cfg)))
		if !rep.Free {
			t.Errorf("group=%d not free: %s", g, rep)
		}
	}
}

// A corrupted routing table that introduces a new turn breaks the
// equivalence the disables would catch.
func TestCorruptedTableBreaksFreedom(t *testing.T) {
	r := topology.NewRing(4, 1)
	tb := routing.RingSeamless(r)
	// Force traffic for node 1 to go the long way around, through the seam
	// and onward through router 0 — a through-route that closes the cycle.
	tb.SetOutPort(r.Routers[2], 1, topology.RingPortCW)
	tb.SetOutPort(r.Routers[3], 1, topology.RingPortCW)
	rep := analyze(t, tb)
	if rep.Free {
		t.Error("corrupted seamless routing still reported free; seam traffic must close the cycle")
	}
}

func TestReportStringFree(t *testing.T) {
	r := topology.NewRing(4, 1)
	rep := analyze(t, routing.RingSeamless(r))
	if !strings.Contains(rep.String(), "DEADLOCK-FREE") {
		t.Errorf("report: %s", rep)
	}
}

// The generic up*/down* routing is deadlock-free on every topology,
// including the cyclic irregular ones the per-topology algorithms cannot
// serve (CCC, shuffle-exchange) — the universal restriction scheme behind
// §2's per-topology disables.
func TestUpDownGenericFreeEverywhere(t *testing.T) {
	ccc := topology.NewCCC(3)
	se := topology.NewShuffleExchange(4)
	torus := topology.NewTorus(3, 3, 1)
	cases := []*routing.Tables{
		routing.UpDownGeneric(ccc.Network, ccc.Routers[0][0]),
		routing.UpDownGeneric(se.Network, se.Routers[0]),
		routing.UpDownGeneric(torus.Network, torus.RouterAt[0][0]),
	}
	for _, tb := range cases {
		rep := analyze(t, tb)
		if !rep.Free {
			t.Errorf("%s on %s not deadlock-free: %s", tb.Algorithm, tb.Net.Name, rep)
		}
	}
}

// Property: every random fractahedron configuration is deadlock-free under
// its own routing — the §2.4 claim across the whole design space, not just
// the paper's tetrahedral instance.
func TestFractahedronFreedomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := topology.FractConfig{
			Group:  3 + rng.Intn(3),
			Down:   1 + rng.Intn(2),
			Levels: 1 + rng.Intn(2),
			Fat:    rng.Intn(2) == 0,
			Fanout: rng.Intn(2) == 0,
		}
		rep, err := Analyze(routing.Fractahedron(topology.NewFractahedron(cfg)))
		if err != nil {
			t.Logf("cfg %+v: %v", cfg, err)
			return false
		}
		if !rep.Free {
			t.Logf("cfg %+v cyclic: %s", cfg, rep)
		}
		return rep.Free
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: generic up*/down* yields an acyclic CDG on random connected
// topologies (the Autonet guarantee).
func TestUpDownGenericFreedomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nr := 3 + rng.Intn(8)
		net := topology.New("random")
		routers := make([]topology.DeviceID, nr)
		for i := range routers {
			routers[i] = net.AddRouter("r", 8)
		}
		for i := 1; i < nr; i++ {
			net.ConnectNext(routers[i], routers[rng.Intn(i)])
		}
		for k := 0; k < rng.Intn(nr); k++ {
			a, b := rng.Intn(nr), rng.Intn(nr)
			if a == b || net.UsedPorts(routers[a]) >= 6 || net.UsedPorts(routers[b]) >= 6 {
				continue
			}
			net.ConnectNext(routers[a], routers[b])
		}
		for i := range routers {
			nd := net.AddNode("n")
			net.ConnectNext(routers[i], nd)
		}
		rep, err := Analyze(routing.UpDownGeneric(net, routers[0]))
		if err != nil {
			t.Logf("%v", err)
			return false
		}
		return rep.Free
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPartialFractahedronFreedom(t *testing.T) {
	for _, p := range []int{5, 12, 40} {
		cfg := topology.Tetra(2, true)
		cfg.Populate = p
		rep := analyze(t, routing.Fractahedron(topology.NewFractahedron(cfg)))
		if !rep.Free {
			t.Errorf("populate=%d not free: %s", p, rep)
		}
	}
}

func TestTwoLevelFanoutCDGFree(t *testing.T) {
	cfg := topology.Tetra(1, false)
	cfg.Fanout = true
	cfg.FanoutDepth = 2
	rep := analyze(t, routing.Fractahedron(topology.NewFractahedron(cfg)))
	if !rep.Free {
		t.Errorf("depth-2 fan-out not deadlock-free: %s", rep)
	}
}

func TestFatTreeCompactFree(t *testing.T) {
	ft := topology.NewFatTree(4, 2, 64)
	rep := analyze(t, routing.FatTreeCompact(ft))
	if !rep.Free {
		t.Errorf("compact fat tree routing not free: %s", rep)
	}
}

func TestVCReportStringForms(t *testing.T) {
	rg := topology.NewRing(4, 1)
	free := analyze(t, routing.RingDateline(rg))
	if !strings.Contains(free.String(), "2 VCs, 32 vc-channels") ||
		!strings.Contains(free.String(), "VC assignment breaks the loops") {
		t.Errorf("free report: %s", free)
	}
	cyclic := analyze(t, routing.RingClockwise(rg))
	if !strings.Contains(cyclic.String(), "DEADLOCK POSSIBLE") || strings.Contains(cyclic.String(), " vc0") {
		t.Errorf("cyclic report: %s", cyclic)
	}
}

// Check reads a sweep whose tables leave pairs unrouted — the fabric
// verifier's damaged tables — where Analyze refuses them with Verify's
// error.
func TestCheckToleratesUnroutedPairs(t *testing.T) {
	r := topology.NewRing(4, 1)
	tb := routing.RingClockwise(r)
	tb.SetOutPort(r.Routers[0], 2, -1)
	if _, err := Analyze(tb); err == nil || err.Error() != tb.Verify().Error() {
		t.Fatalf("Analyze error %v, want Verify's %v", err, tb.Verify())
	}
	rep := Check(tb.Sweep())
	if rep.Free || len(rep.Cycle) != 4 || rep.Vertices != r.NumChannels() {
		t.Errorf("holed clockwise ring: free=%v cycle %v over %d vertices", rep.Free, rep.CycleLines(), rep.Vertices)
	}
}

// BenchmarkCDGAnalysis measures channel-dependency-graph construction and
// cycle search on the 64-node fat fractahedron.
func BenchmarkCDGAnalysis(b *testing.B) {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	tb := routing.Fractahedron(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Analyze(tb)
		if err != nil || !rep.Free {
			b.Fatal(err, rep.Free)
		}
	}
}
