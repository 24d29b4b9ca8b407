package contention

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Figure 3: fully-connected groups of M 6-port routers have maximum link
// contention (7-M):1 — every node of one router aimed at nodes of another.
func TestFullMeshFigure3Contention(t *testing.T) {
	want := map[int]int{2: 5, 3: 4, 4: 3, 5: 2, 6: 1}
	for m, c := range want {
		fm := topology.NewFullMesh(m, 6)
		res, err := MaxLinkContention(routing.FullMesh(fm))
		if err != nil {
			t.Fatal(err)
		}
		if res.Max != c {
			t.Errorf("M=%d: contention %d:1, want %d:1 (paper Figure 3)", m, res.Max, c)
		}
	}
}

// A single router has no inter-router links: contention degenerates to 1:1.
func TestSingleRouterContention(t *testing.T) {
	fm := topology.NewFullMesh(1, 6)
	res, err := MaxLinkContention(routing.FullMesh(fm))
	if err != nil {
		t.Fatal(err)
	}
	if res.Max != 1 || res.WorstChannel != -1 {
		t.Errorf("contention = %d (channel %d), want 1 with no channel", res.Max, res.WorstChannel)
	}
}

// §3.1: the 6x6 mesh with two nodes per router and dimension-order routing
// has 10:1 worst-case contention (ten transfers turning the same corner).
func TestMesh66Contention(t *testing.T) {
	m := topology.NewMesh(6, 6, 2)
	res, err := MaxLinkContention(routing.MeshDimOrder(m, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Max != 10 {
		t.Errorf("contention = %d:1, want 10:1 (paper §3.1)", res.Max)
	}
}

// §3.3: the 64-node 4-2 fat tree with a static destination partition over
// the upward links has 12:1 worst-case contention.
func TestFatTree42Contention(t *testing.T) {
	ft := topology.NewFatTree(4, 2, 64)
	res, err := MaxLinkContention(routing.FatTree(ft))
	if err != nil {
		t.Fatal(err)
	}
	if res.Max != 12 {
		t.Errorf("contention = %d:1, want 12:1 (paper §3.3/Table 2)", res.Max)
	}
}

// §3.4/Table 2: on the links the paper analyzes — those within the second
// level tetrahedra — the 64-node fat fractahedron's worst contention is
// 4:1, on a diagonal link of a level-2 layer.
func TestFatFractahedron64IntraLevel2Contention(t *testing.T) {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	tb := routing.Fractahedron(f)
	intraL2 := func(ch topology.ChannelID) bool {
		src := f.Meta(f.ChannelSrc(ch).Device)
		dst := f.Meta(f.ChannelDst(ch).Device)
		return src.Level == 2 && dst.Level == 2
	}
	res, err := MaxLinkContentionFiltered(tb, intraL2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Max != 4 {
		t.Errorf("intra-level-2 contention = %d:1, want 4:1 (paper §3.4/Table 2)", res.Max)
	}
	src := f.Meta(f.ChannelSrc(res.WorstChannel).Device)
	dst := f.Meta(f.ChannelDst(res.WorstChannel).Device)
	if src.Layer != dst.Layer {
		t.Errorf("worst channel %s crosses layers", f.ChannelString(res.WorstChannel))
	}
}

// Over ALL links the fat fractahedron's worst case is 8:1, on a down link
// from a level-2 layer into a level-1 tetrahedron — a case the paper's
// analysis does not discuss (EXPERIMENTS.md records the discrepancy). The
// headline comparison survives: 8:1 still beats the fat tree's 12:1.
func TestFatFractahedron64AllLinksContention(t *testing.T) {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	res, err := MaxLinkContention(routing.Fractahedron(f))
	if err != nil {
		t.Fatal(err)
	}
	if res.Max != 8 {
		t.Errorf("all-links contention = %d:1, want 8:1", res.Max)
	}
	const want = "max link contention 8:1 on L2.e0.l0.r0[0] -> L1.e0.l0.r0[5]; witness transfers: 8->0 9->1 16->2 17->3 24->4 25->5 32->6 33->7"
	if got := res.String(f.Network); got != want {
		t.Errorf("result\n got %s\nwant %s", got, want)
	}
	src := f.Meta(f.ChannelSrc(res.WorstChannel).Device)
	dst := f.Meta(f.ChannelDst(res.WorstChannel).Device)
	if !(src.Level == 2 && dst.Level == 1) {
		t.Errorf("worst channel %s not a level-2 down link", f.ChannelString(res.WorstChannel))
	}
}

// The thin fractahedron funnels the traffic of two whole tetrahedra over
// each level-2 intra link (both tetras enter level 2 at the same router):
// 16:1 — worse than the fat tree, which is why the paper introduces layers.
func TestThinFractahedron64Contention(t *testing.T) {
	f := topology.NewFractahedron(topology.Tetra(2, false))
	res, err := MaxLinkContention(routing.Fractahedron(f))
	if err != nil {
		t.Fatal(err)
	}
	if res.Max != 16 {
		t.Errorf("contention = %d:1, want 16:1 (two 8-node ensembles per level-2 entry router)", res.Max)
	}
}

// Witness sets are valid: distinct sources, distinct destinations, and each
// transfer's route really crosses the worst channel.
func TestWitnessValidity(t *testing.T) {
	ft := topology.NewFatTree(4, 2, 64)
	tb := routing.FatTree(ft)
	res, err := MaxLinkContention(tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Witness) != res.Max {
		t.Fatalf("witness size %d != max %d", len(res.Witness), res.Max)
	}
	srcs := map[int]bool{}
	dsts := map[int]bool{}
	for _, w := range res.Witness {
		if srcs[w.Src] || dsts[w.Dst] {
			t.Fatalf("witness reuses a node: %+v", res.Witness)
		}
		srcs[w.Src], dsts[w.Dst] = true, true
		r, err := tb.Route(w.Src, w.Dst)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, ch := range r.Channels {
			if ch == res.WorstChannel {
				found = true
			}
		}
		if !found {
			t.Errorf("witness %d->%d does not cross the worst channel", w.Src, w.Dst)
		}
	}
}

// ContentionOfSet reproduces §3.4's hand-picked scenario exactly.
func TestContentionOfSetFractScenario(t *testing.T) {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	tb := routing.Fractahedron(f)
	set := []Transfer{{6, 54}, {7, 55}, {14, 62}, {15, 63}}
	c, ch, err := ContentionOfSet(tb, set)
	if err != nil {
		t.Fatal(err)
	}
	if c != 4 {
		t.Errorf("scenario contention = %d, want 4", c)
	}
	if ch < 0 {
		t.Error("no channel reported")
	}
}

// §2: uniform-load utilization under up*/down* hypercube routing is uneven —
// links at the root corner carry through traffic, links at the far corner
// only local traffic — while e-cube spreads perfectly evenly by symmetry.
func TestHypercubeUtilizationUnevenness(t *testing.T) {
	h := topology.NewHypercube(3, 1)

	ud, err := Utilization(routing.HypercubeUpDown(h))
	if err != nil {
		t.Fatal(err)
	}
	udRatio, ok := ud.ImbalanceRatio()
	if !ok {
		t.Fatal("up*/down* leaves channels unused")
	}
	ec, err := Utilization(routing.HypercubeECube(h))
	if err != nil {
		t.Fatal(err)
	}
	ecRatio, ok := ec.ImbalanceRatio()
	if !ok {
		t.Fatal("e-cube leaves channels unused")
	}
	if udRatio <= ecRatio {
		t.Errorf("up*/down* imbalance %.2f not worse than e-cube %.2f", udRatio, ecRatio)
	}
	if udRatio < 2 {
		t.Errorf("up*/down* imbalance %.2f, expected at least 2x", udRatio)
	}
}

func TestUtilizationConservation(t *testing.T) {
	// Total channel crossings equal the sum of route lengths minus the
	// injection/ejection channels (2 per route).
	m := topology.NewMesh(3, 3, 1)
	tb := routing.MeshDimOrder(m, true)
	p, err := Utilization(tb)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range p.PerChannel {
		total += c
	}
	want := 0
	for s := 0; s < 9; s++ {
		for d := 0; d < 9; d++ {
			if s == d {
				continue
			}
			r, _ := tb.Route(s, d)
			want += len(r.Channels) - 2
		}
	}
	if total != want {
		t.Errorf("total crossings %d, want %d", total, want)
	}
}

// The adversary cannot beat the static-partition pigeonhole bound: for the
// 4-2 fat tree any destination-based partition leaves some top path with at
// least ceil(48/4) = 12 remote destinations, and 16 pod sources cover them.
func TestFatTreeContentionLowerBoundHolds(t *testing.T) {
	ft := topology.NewFatTree(4, 2, 64)
	res, err := MaxLinkContention(routing.FatTree(ft))
	if err != nil {
		t.Fatal(err)
	}
	if res.Max < 12 {
		t.Errorf("contention %d below the pigeonhole bound 12", res.Max)
	}
}

// §3.3: "other static partitionings of traffic through the high-level links
// can do no better than the 12:1 contention ratio" — the compact partition
// included.
func TestFatTreeCompactStillTwelve(t *testing.T) {
	ft := topology.NewFatTree(4, 2, 64)
	res, err := MaxLinkContention(routing.FatTreeCompact(ft))
	if err != nil {
		t.Fatal(err)
	}
	if res.Max != 12 {
		t.Errorf("compact partition contention = %d:1, want 12:1", res.Max)
	}
}

// A network whose worst contention is 1:1 still reports a witness channel
// when inter-router links exist.
func TestUnitContentionStillReportsChannel(t *testing.T) {
	fm := topology.NewFullMesh(6, 6) // 1 node per router: contention 1:1
	res, err := MaxLinkContention(routing.FullMesh(fm))
	if err != nil {
		t.Fatal(err)
	}
	if res.Max != 1 {
		t.Fatalf("contention = %d", res.Max)
	}
	if res.WorstChannel < 0 || len(res.Witness) != 1 {
		t.Errorf("witness missing: channel=%d witness=%v", res.WorstChannel, res.Witness)
	}
}

func TestMaxLinkContentionPairs(t *testing.T) {
	fm := topology.NewFullMesh(3, 6)
	tb := routing.FullMesh(fm)
	// Only router-0 nodes to router-1 nodes: 4 transfers, all on one link.
	pairs := []Transfer{{0, 4}, {1, 5}, {2, 6}, {3, 7}, {0, 4} /* dup ignored */, {2, 2} /* self ignored */}
	res, err := MaxLinkContentionPairs(tb, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Max != 4 {
		t.Errorf("contention = %d, want 4", res.Max)
	}
	if got := res.String(fm.Network); got == "" || len(res.Witness) != 4 {
		t.Errorf("string/witness wrong: %q %v", got, res.Witness)
	}
	// Empty set degenerates to 1:1 with no channel.
	empty, err := MaxLinkContentionPairs(tb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Max != 1 || empty.WorstChannel != -1 {
		t.Errorf("empty set: %+v", empty)
	}
	if empty.String(fm.Network) == "" {
		t.Error("empty-set string missing")
	}
}
