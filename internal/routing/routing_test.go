package routing

import (
	"testing"

	"repro/internal/topology"
)

// maxHops routes all pairs and returns the maximum and total router hops.
func maxHops(t *testing.T, tb *Tables) (max int, total int, pairs int) {
	t.Helper()
	n := tb.Net.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			r, err := tb.Route(s, d)
			if err != nil {
				t.Fatalf("route %d->%d: %v", s, d, err)
			}
			if r.RouterHops() > max {
				max = r.RouterHops()
			}
			total += r.RouterHops()
			pairs++
		}
	}
	return max, total, pairs
}

func TestFullMeshRouting(t *testing.T) {
	fm := topology.NewFullMesh(4, 6)
	tb := FullMesh(fm)
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}
	max, _, _ := maxHops(t, tb)
	if max != 2 {
		t.Errorf("max hops = %d, want 2 (fully connected group)", max)
	}
}

func TestRouteStructure(t *testing.T) {
	fm := topology.NewFullMesh(4, 6)
	tb := FullMesh(fm)
	r, err := tb.Route(0, 11) // router 0 to router 3
	if err != nil {
		t.Fatal(err)
	}
	if r.RouterHops() != 2 {
		t.Fatalf("hops = %d, want 2", r.RouterHops())
	}
	if len(r.Channels) != len(r.Devices)-1 {
		t.Errorf("channels %d vs devices %d inconsistent", len(r.Channels), len(r.Devices))
	}
	// Endpoints are the nodes themselves.
	if r.Devices[0] != tb.Net.NodeByIndex(0) || r.Devices[len(r.Devices)-1] != tb.Net.NodeByIndex(11) {
		t.Errorf("route endpoints wrong: %v", r.Devices)
	}
	// Channels chain: dst of channel i is src of channel i+1.
	for i := 1; i < len(r.Channels); i++ {
		if tb.Net.ChannelDst(r.Channels[i-1]).Device != tb.Net.ChannelSrc(r.Channels[i]).Device {
			t.Errorf("channel chain broken at %d", i)
		}
	}
}

func TestRouteSameNodeRejected(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	tb := FullMesh(fm)
	if _, err := tb.Route(3, 3); err == nil {
		t.Error("src == dst accepted")
	}
}

// §3.1: a 6x6 mesh has a maximum latency of 11 router hops between opposite
// corners.
func TestMeshDimOrderMaxHops(t *testing.T) {
	m := topology.NewMesh(6, 6, 2)
	tb := MeshDimOrder(m, true)
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}
	max, _, _ := maxHops(t, tb)
	if max != 11 {
		t.Errorf("max hops = %d, want 11 (paper §3.1)", max)
	}
}

func TestMeshDimOrderTurnsOnce(t *testing.T) {
	m := topology.NewMesh(4, 4, 1)
	tb := MeshDimOrder(m, true)
	// YX routing: row corrected before column; once moving in X, never Y.
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			r, err := tb.Route(s, d)
			if err != nil {
				t.Fatal(err)
			}
			movedX := false
			for _, ch := range r.Channels[1 : len(r.Channels)-1] {
				p := tb.Net.ChannelSrc(ch).Port
				switch p {
				case topology.MeshPortXPlus, topology.MeshPortXMinus:
					movedX = true
				case topology.MeshPortYPlus, topology.MeshPortYMinus:
					if movedX {
						t.Fatalf("route %d->%d moves Y after X", s, d)
					}
				}
			}
		}
	}
}

func TestHypercubeECube(t *testing.T) {
	h := topology.NewHypercube(3, 1)
	tb := HypercubeECube(h)
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}
	max, _, _ := maxHops(t, tb)
	if max != 4 {
		t.Errorf("max hops = %d, want 4 (3 dims + entry router)", max)
	}
}

func TestHypercubeUpDownMinimal(t *testing.T) {
	h := topology.NewHypercube(4, 1)
	ec := HypercubeECube(h)
	ud := HypercubeUpDown(h)
	if err := ud.Verify(); err != nil {
		t.Fatal(err)
	}
	// Up*/down* on the hypercube is still minimal: clear-then-set visits
	// exactly Hamming-distance routers beyond the first.
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			r1, err1 := ec.Route(s, d)
			r2, err2 := ud.Route(s, d)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if r1.RouterHops() != r2.RouterHops() {
				t.Errorf("%d->%d: ecube %d hops, updown %d", s, d, r1.RouterHops(), r2.RouterHops())
			}
		}
	}
}

func TestHypercubeUpDownPhaseDiscipline(t *testing.T) {
	h := topology.NewHypercube(3, 1)
	tb := HypercubeUpDown(h)
	// No route sets a bit before it has finished clearing: popcount along
	// the router path first decreases, then increases.
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s == d {
				continue
			}
			r, _ := tb.Route(s, d)
			ascending := false
			prev := -1
			for _, dev := range r.Devices[1 : len(r.Devices)-1] {
				w := 0
				for i, rt := range h.Routers {
					if rt == dev {
						w = popcount(i)
						break
					}
				}
				if prev >= 0 {
					if w > prev {
						ascending = true
					} else if ascending {
						t.Fatalf("%d->%d descends after ascending", s, d)
					}
				}
				prev = w
			}
		}
	}
}

func TestRingRouting(t *testing.T) {
	r := topology.NewRing(4, 1)
	cw := RingClockwise(r)
	if err := cw.Verify(); err != nil {
		t.Fatal(err)
	}
	seam := RingSeamless(r)
	if err := seam.Verify(); err != nil {
		t.Fatal(err)
	}
	// Seamless routing never uses the seam link between routers 3 and 0.
	seamLink, _ := r.LinkAt(r.Routers[3], topology.RingPortCW)
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if s == d {
				continue
			}
			rt, _ := seam.Route(s, d)
			for _, ch := range rt.Channels {
				if r.ChannelLink(ch) == seamLink {
					t.Errorf("seamless route %d->%d crosses the seam", s, d)
				}
			}
		}
	}
}

// Table 2: the 64-node 4-2 fat tree averages 4.4 router hops.
func TestFatTree64Hops(t *testing.T) {
	ft := topology.NewFatTree(4, 2, 64)
	tb := FatTree(ft)
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}
	max, total, pairs := maxHops(t, tb)
	if max != 5 {
		t.Errorf("max hops = %d, want 5 (leaf-mid-top-mid-leaf)", max)
	}
	avg := float64(total) / float64(pairs)
	if avg < 4.42 || avg > 4.44 {
		t.Errorf("avg hops = %.3f, want 4.43 (paper Table 2 rounds to 4.4)", avg)
	}
}

// §3.4: a 64-node 3-3 fat tree averages 5.9 router hops.
func TestFatTree33Hops(t *testing.T) {
	ft := topology.NewFatTree(3, 3, 64)
	tb := FatTree(ft)
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}
	_, total, pairs := maxHops(t, tb)
	avg := float64(total) / float64(pairs)
	if avg < 5.7 || avg > 6.1 {
		t.Errorf("avg hops = %.3f, want about 5.9 (paper §3.4)", avg)
	}
}

// Table 2: the 64-node fat fractahedron averages 4.3 router hops with a
// maximum of 5 (3N-1 for N=2).
func TestFatFractahedron64Hops(t *testing.T) {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	tb := Fractahedron(f)
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}
	max, total, pairs := maxHops(t, tb)
	if max != 5 {
		t.Errorf("max hops = %d, want 5 = 3N-1", max)
	}
	avg := float64(total) / float64(pairs)
	if avg < 4.29 || avg > 4.31 {
		t.Errorf("avg hops = %.3f, want 4.30 (paper Table 2 rounds to 4.3)", avg)
	}
}

// Table 1 delay formulas: thin 4N-2, fat 3N-1 (fan-out stage excluded).
func TestFractahedronDelayFormulas(t *testing.T) {
	for n := 1; n <= 3; n++ {
		for _, fat := range []bool{false, true} {
			f := topology.NewFractahedron(topology.Tetra(n, fat))
			tb := Fractahedron(f)
			max, _, _ := maxHops(t, tb)
			want := 4*n - 2
			if fat {
				want = 3*n - 1
			}
			if n == 1 {
				want = 2 // a single tetrahedron either way
			}
			if max != want {
				t.Errorf("N=%d fat=%v: max hops = %d, want %d", n, fat, max, want)
			}
		}
	}
}

// §2.2: a 16-CPU system (N=1 with fan-out) has a maximum delay of four
// router hops; extended to 1024 CPUs (N=3 thin) the maximum is twelve, and
// the fat variant cuts it to ten.
func TestFractahedronFanoutDelays(t *testing.T) {
	cfg := topology.Tetra(1, false)
	cfg.Fanout = true
	tb := Fractahedron(topology.NewFractahedron(cfg))
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}
	max, _, _ := maxHops(t, tb)
	if max != 4 {
		t.Errorf("16-CPU max hops = %d, want 4 (paper §2.2)", max)
	}
}

func TestFractahedron1024CPUDelays(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-CPU construction in -short mode")
	}
	for _, c := range []struct {
		fat  bool
		want int
	}{{false, 12}, {true, 10}} {
		cfg := topology.Tetra(3, c.fat)
		cfg.Fanout = true
		f := topology.NewFractahedron(cfg)
		if f.NumNodes() != 1024 {
			t.Fatalf("nodes = %d, want 1024", f.NumNodes())
		}
		tb := Fractahedron(f)
		// Sample instead of all 1024*1023 pairs: every pair of fan-out
		// groups is symmetric, so stride the sources.
		max := 0
		for s := 0; s < 1024; s += 37 {
			for d := 0; d < 1024; d += 11 {
				if s == d {
					continue
				}
				r, err := tb.Route(s, d)
				if err != nil {
					t.Fatal(err)
				}
				if r.RouterHops() > max {
					max = r.RouterHops()
				}
			}
		}
		if max != c.want {
			t.Errorf("fat=%v: max hops = %d, want %d (paper §2.2/§2.3)", c.fat, max, c.want)
		}
	}
}

// §3.4's adversarial scenario: transfers 6->54, 7->55, 14->62, 15->63 all
// cross the same diagonal link of the same level-2 layer.
func TestFatFractahedronDiagonalContention(t *testing.T) {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	tb := Fractahedron(f)
	pairs := [][2]int{{6, 54}, {7, 55}, {14, 62}, {15, 63}}
	shared := make(map[topology.LinkID]int)
	for _, p := range pairs {
		r, err := tb.Route(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[topology.LinkID]bool)
		for _, ch := range r.Channels {
			l := f.ChannelLink(ch)
			if !seen[l] {
				seen[l] = true
				shared[l]++
			}
		}
	}
	max := 0
	for _, c := range shared {
		if c > max {
			max = c
		}
	}
	if max != 4 {
		t.Errorf("max shared-link count = %d, want 4 (paper §3.4)", max)
	}
}

func TestUsedTurnsNeverReversePort(t *testing.T) {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	tb := Fractahedron(f)
	sw := tb.Sweep()
	if err := sw.Err(); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Devices() {
		if d.Kind != topology.Router {
			continue
		}
		turns := 0
		row := make([]bool, d.Ports)
		for in := 0; in < d.Ports; in++ {
			sw.TurnRow(row, d.ID, in)
			for out, used := range row {
				if used {
					turns++
					if in == out {
						t.Errorf("router %s u-turns on port %d", d.Name, in)
					}
				}
			}
		}
		if turns == 0 {
			t.Errorf("router %s takes no turns", d.Name)
		}
	}
}

func TestSetOutPortCreatesLoop(t *testing.T) {
	fm := topology.NewFullMesh(3, 6)
	tb := FullMesh(fm)
	// Corrupt router 0's entry for node 11 (router 2's last node) to point
	// back toward router 1, and router 1's to point to router 0.
	tb.SetOutPort(fm.Routers[0], 11, fm.IntraPort(0, 1))
	tb.SetOutPort(fm.Routers[1], 11, fm.IntraPort(1, 0))
	if _, err := tb.Route(0, 11); err == nil {
		t.Error("routing loop not detected")
	}
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// §2.1/§2.3: fractahedral routing tables stay tiny regardless of machine
// size — the address digits drive the port choice, so a 512-node
// fractahedron router's table collapses into at most ~7 contiguous regions.
// Dimension-ordered meshes with row-major addresses share that property,
// but hypercube e-cube tables degenerate to one region per destination
// (the output port is the lowest differing address bit, which flips on
// every increment), and the irregular topologies routed by generic
// up*/down* need tables an order of magnitude larger.
func TestRegionTableCompactness(t *testing.T) {
	fract := Fractahedron(topology.NewFractahedron(topology.Tetra(3, true))).RegionSizes()
	mesh := MeshDimOrder(topology.NewMesh(12, 12, 2), true).RegionSizes()
	cube := HypercubeECube(topology.NewHypercube(6, 1)).RegionSizes()
	ccc := topology.NewCCC(4)
	cccUD := UpDownGeneric(ccc.Network, ccc.Routers[0][0]).RegionSizes()

	if fract.Max > 16 {
		t.Errorf("fractahedron max regions = %d, want a small constant", fract.Max)
	}
	if mesh.Max > 16 {
		t.Errorf("mesh max regions = %d, want a small constant", mesh.Max)
	}
	if cube.Max != 64 {
		t.Errorf("hypercube-6 e-cube regions = %d, want 64 (one per destination)", cube.Max)
	}
	if cccUD.Max <= 2*fract.Max {
		t.Errorf("CCC up*/down* regions %d not clearly larger than fractahedron %d",
			cccUD.Max, fract.Max)
	}
	if fract.Routers != 448 || fract.Min < 1 || fract.Mean < 1 {
		t.Errorf("degenerate fractahedron stats %+v", fract)
	}
}

// Region counts stay bounded as the fractahedron deepens: the table size is
// O(children * levels), not O(nodes).
func TestRegionsScaleWithDepthNotSize(t *testing.T) {
	r2 := Fractahedron(topology.NewFractahedron(topology.Tetra(2, true))).RegionSizes()
	r3 := Fractahedron(topology.NewFractahedron(topology.Tetra(3, true))).RegionSizes()
	// 8x the nodes, at most ~1.5x the worst-case table.
	if r3.Max > 2*r2.Max {
		t.Errorf("regions grew from %d to %d across one level", r2.Max, r3.Max)
	}
}

// Partially populated fractahedrons (§4: "the topology scales to any number
// of nodes") route completely and stay deadlock-free.
func TestPartialFractahedronRouting(t *testing.T) {
	for _, p := range []int{5, 12, 40} {
		for _, fat := range []bool{false, true} {
			cfg := topology.Tetra(2, fat)
			cfg.Populate = p
			f := topology.NewFractahedron(cfg)
			tb := Fractahedron(f)
			if err := tb.Verify(); err != nil {
				t.Errorf("populate=%d fat=%v: %v", p, fat, err)
			}
			max, _, _ := maxHops(t, tb)
			bound := 4*2 - 2
			if fat {
				bound = 3*2 - 1
			}
			if max > bound {
				t.Errorf("populate=%d fat=%v: max hops %d > %d", p, fat, max, bound)
			}
		}
	}
}

// Thin fractahedron at N=4 (4096 addresses): the 4N-2 delay formula still
// holds at the worst structural pair, and sampled routes verify.
func TestThinFractahedronN4Formula(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-address construction in -short mode")
	}
	f := topology.NewFractahedron(topology.Tetra(4, false))
	if f.NumNodes() != 4096 {
		t.Fatalf("nodes = %d", f.NumNodes())
	}
	tb := Fractahedron(f)
	// Worst pair: all-sevens source, all-fours destination (the derivation
	// is at the §2.2 1024-CPU claim in internal/experiments/claims.go).
	worstSrc, worstDst := 0, 0
	for k := 0; k < 4; k++ {
		worstSrc = worstSrc*8 + 7
		worstDst = worstDst*8 + 4
	}
	r, err := tb.Route(worstSrc, worstDst)
	if err != nil {
		t.Fatal(err)
	}
	if r.RouterHops() != 4*4-2 {
		t.Errorf("worst pair hops = %d, want 14", r.RouterHops())
	}
	// Strided sample: every route stays within the bound.
	for s := 0; s < 4096; s += 257 {
		for d := 0; d < 4096; d += 129 {
			if s == d {
				continue
			}
			rr, err := tb.Route(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if rr.RouterHops() > 14 {
				t.Fatalf("route %d->%d takes %d hops", s, d, rr.RouterHops())
			}
		}
	}
}

// §2.2: "one or two added router levels are typically needed to fan out to
// the devices" — a depth-2 fan-out stage adds two hops each way on top of
// the core delay and quadruples capacity per level-1 port.
func TestTwoLevelFanout(t *testing.T) {
	cfg := topology.Tetra(1, false)
	cfg.Fanout = true
	cfg.FanoutDepth = 2
	f := topology.NewFractahedron(cfg)
	// 8 addresses x 2^2 nodes = 32 CPUs on one tetrahedron.
	if f.NumNodes() != 32 {
		t.Fatalf("nodes = %d, want 32", f.NumNodes())
	}
	// 4 tetra routers + 8 depth-2 roots + 16 depth-1 fan-outs.
	if f.NumRouters() != 28 {
		t.Errorf("routers = %d, want 28", f.NumRouters())
	}
	tb := Fractahedron(f)
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}
	max, _, _ := maxHops(t, tb)
	// Core max 2 + two fan-out routers each way = 6.
	if max != 6 {
		t.Errorf("max hops = %d, want 6", max)
	}
}

func TestTwoLevelFanoutDeadlockFree(t *testing.T) {
	cfg := topology.Tetra(2, true)
	cfg.Fanout = true
	cfg.FanoutDepth = 2
	cfg.Populate = 16 // keep the build small: 16 addresses x 4 nodes
	f := topology.NewFractahedron(cfg)
	if f.NumNodes() != 64 {
		t.Fatalf("nodes = %d, want 64", f.NumNodes())
	}
	tb := Fractahedron(f)
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}
}

// The compact fat-tree partition keeps the 12:1 worst case but shrinks the
// region tables by an order of magnitude.
func TestFatTreeCompactPartition(t *testing.T) {
	ft := topology.NewFatTree(4, 2, 64)
	compact := FatTreeCompact(ft)
	if err := compact.Verify(); err != nil {
		t.Fatal(err)
	}
	baseline := FatTree(ft)
	cr := compact.RegionSizes()
	br := baseline.RegionSizes()
	if cr.Max >= br.Max {
		t.Errorf("compact regions %d not below baseline %d", cr.Max, br.Max)
	}
	if cr.Max > 20 {
		t.Errorf("compact max regions = %d, want a several-fold reduction from %d", cr.Max, br.Max)
	}
	// Same hop structure.
	m1, _, _ := maxHops(t, compact)
	if m1 != 5 {
		t.Errorf("max hops = %d", m1)
	}
}

// The src-hashed fat-tree variant (the §3.3 ablation) keeps per-pair paths
// fixed — packets for one pair always take the same route — so each
// per-source table still verifies.
func TestFatTreeAdaptiveUnsafePerSource(t *testing.T) {
	ft := topology.NewFatTree(4, 2, 16)
	for src := 0; src < 16; src += 5 {
		tb := FatTreeAdaptiveUnsafe(ft, src)
		for d := 0; d < 16; d++ {
			if d == src {
				continue
			}
			if _, err := tb.Route(src, d); err != nil {
				t.Fatalf("src %d dst %d: %v", src, d, err)
			}
		}
	}
	// Different sources may route the same destination differently.
	a := FatTreeAdaptiveUnsafe(ft, 0)
	b := FatTreeAdaptiveUnsafe(ft, 1)
	differ := false
	for d := 4; d < 16; d++ {
		ra, _ := a.Route(0, d)
		rb, _ := b.Route(1, d)
		if len(ra.Channels) == len(rb.Channels) {
			for i := range ra.Channels[1 : len(ra.Channels)-1] {
				if a.Net.ChannelSrc(ra.Channels[i+1]).Device != b.Net.ChannelSrc(rb.Channels[i+1]).Device {
					differ = true
				}
			}
		}
	}
	if !differ {
		t.Log("note: hashed paths coincided for all sampled pairs (acceptable)")
	}
}

func TestFatTreeShiftedVerifies(t *testing.T) {
	ft := topology.NewFatTree(4, 2, 64)
	for shift := 0; shift < 2; shift++ {
		if err := FatTreeShifted(ft, shift).Verify(); err != nil {
			t.Errorf("shift %d: %v", shift, err)
		}
	}
}

// Dateline routes carry a VC per hop and follow the discipline: VC never
// drops from 1 back to 0.
func TestRingDatelineVCs(t *testing.T) {
	rg := topology.NewRing(5, 1)
	tb := RingDateline(rg)
	if tb.NumVC() != 2 {
		t.Fatalf("NumVC = %d", tb.NumVC())
	}
	for s := 0; s < 5; s++ {
		for d := 0; d < 5; d++ {
			if s == d {
				continue
			}
			r, err := tb.Route(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.VCs) != len(r.Channels) {
				t.Fatalf("VCs %d != channels %d", len(r.VCs), len(r.Channels))
			}
			onOne := false
			for i := range r.Channels {
				switch r.VCAt(i) {
				case 1:
					onOne = true
				case 0:
					if onOne {
						t.Fatalf("route %d->%d returns to VC 0 after the dateline", s, d)
					}
				}
			}
			// Wrap routes (s > d) must switch to VC 1.
			if s > d && !onOne {
				t.Errorf("wrap route %d->%d never used VC 1", s, d)
			}
		}
	}
}

func TestTorusDatelineRejectsMesh(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mesh accepted by TorusDateline")
		}
	}()
	TorusDateline(topology.NewMesh(3, 3, 1))
}

func TestWithVCsValidation(t *testing.T) {
	rg := topology.NewRing(4, 1)
	tb := RingClockwise(rg)
	defer func() {
		if recover() == nil {
			t.Error("single-VC WithVCs accepted")
		}
	}()
	tb.WithVCs(1, func(topology.DeviceID, int) int { return 0 })
}

func TestVCRangePanics(t *testing.T) {
	rg := topology.NewRing(4, 1)
	tb := RingClockwise(rg).WithVCs(2, func(topology.DeviceID, int) int { return 5 })
	defer func() {
		if recover() == nil {
			t.Error("out-of-range VC accepted")
		}
	}()
	tb.Route(0, 2)
}
