package topology

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

func TestNetworkConnectAndChannels(t *testing.T) {
	n := New("t")
	r0 := n.AddRouter("r0", 3)
	r1 := n.AddRouter("r1", 3)
	nd := n.AddNode("n0")
	l := n.Connect(r0, 0, r1, 1)
	n.Connect(r0, 1, nd, 0)

	if n.NumLinks() != 2 || n.NumChannels() != 4 {
		t.Fatalf("links=%d channels=%d", n.NumLinks(), n.NumChannels())
	}
	c, ok := n.ChannelFromPort(r0, 0)
	if !ok {
		t.Fatal("no channel from r0.0")
	}
	if n.ChannelSrc(c).Device != r0 || n.ChannelDst(c).Device != r1 {
		t.Errorf("channel %d endpoints wrong: %v -> %v", c, n.ChannelSrc(c), n.ChannelDst(c))
	}
	rev := n.Reverse(c)
	if n.ChannelSrc(rev).Device != r1 || n.ChannelDst(rev).Device != r0 {
		t.Errorf("reverse channel wrong")
	}
	if n.ChannelLink(c) != l || n.ChannelLink(rev) != l {
		t.Errorf("ChannelLink mismatch")
	}
	if got := n.OtherEnd(l, r0); got.Device != r1 || got.Port != 1 {
		t.Errorf("OtherEnd = %v", got)
	}
	if n.PortOf(l, r1) != 1 {
		t.Errorf("PortOf = %d", n.PortOf(l, r1))
	}
}

func TestNetworkDoubleWirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double-wiring a port did not panic")
		}
	}()
	n := New("t")
	r0 := n.AddRouter("r0", 2)
	r1 := n.AddRouter("r1", 2)
	r2 := n.AddRouter("r2", 2)
	n.Connect(r0, 0, r1, 0)
	n.Connect(r0, 0, r2, 0)
}

func TestNodeIndexing(t *testing.T) {
	n := New("t")
	r := n.AddRouter("r", 4)
	var ids []DeviceID
	for i := 0; i < 3; i++ {
		nd := n.AddNode("n")
		n.ConnectNext(r, nd)
		ids = append(ids, nd)
	}
	for i, id := range ids {
		if n.NodeIndex(id) != i {
			t.Errorf("NodeIndex(%d) = %d, want %d", id, n.NodeIndex(id), i)
		}
		if n.NodeByIndex(i) != id {
			t.Errorf("NodeByIndex(%d) = %d, want %d", i, n.NodeByIndex(i), id)
		}
	}
	if n.NumNodes() != 3 || n.NumRouters() != 1 {
		t.Errorf("NumNodes=%d NumRouters=%d", n.NumNodes(), n.NumRouters())
	}
}

func TestValidateDisconnected(t *testing.T) {
	n := New("t")
	n.AddRouter("a", 2)
	n.AddRouter("b", 2)
	if err := n.Validate(); err == nil {
		t.Error("disconnected network passed validation")
	}
}

func TestValidateUnwiredNode(t *testing.T) {
	n := New("t")
	r := n.AddRouter("r", 2)
	nd := n.AddNode("n")
	n.ConnectNext(r, nd)
	n.AddNode("orphan") // unwired: must fail validation (also disconnects)
	if err := n.Validate(); err == nil {
		t.Error("unwired node passed validation")
	}
}

// Figure 3: fully-connected groups of 6-port routers. M routers expose
// M*(7-M) node ports; the paper's figure lists 10, 12, 12, 10, 6 ports for
// M = 2..6.
func TestFullMeshFigure3PortCounts(t *testing.T) {
	want := map[int]int{1: 6, 2: 10, 3: 12, 4: 12, 5: 10, 6: 6}
	for m, ports := range want {
		fm := NewFullMesh(m, 6)
		if fm.NumNodes() != ports {
			t.Errorf("M=%d: %d node ports, want %d", m, fm.NumNodes(), ports)
		}
		if fm.NumRouters() != m {
			t.Errorf("M=%d: %d routers", m, fm.NumRouters())
		}
		wantLinks := m*(m-1)/2 + ports
		if fm.NumLinks() != wantLinks {
			t.Errorf("M=%d: %d links, want %d", m, fm.NumLinks(), wantLinks)
		}
	}
}

func TestFullMeshIntraPortSymmetry(t *testing.T) {
	fm := NewFullMesh(4, 6)
	for r := 0; r < 4; r++ {
		for s := 0; s < 4; s++ {
			if r == s {
				continue
			}
			// Port IntraPort(r,s) of router r must be linked to router s.
			l, ok := fm.LinkAt(fm.Routers[r], fm.IntraPort(r, s))
			if !ok {
				t.Fatalf("router %d port to %d unwired", r, s)
			}
			if fm.OtherEnd(l, fm.Routers[r]).Device != fm.Routers[s] {
				t.Errorf("IntraPort(%d,%d) leads to wrong router", r, s)
			}
		}
	}
}

func TestMeshStructure(t *testing.T) {
	m := NewMesh(6, 6, 2)
	if m.NumRouters() != 36 || m.NumNodes() != 72 {
		t.Fatalf("routers=%d nodes=%d", m.NumRouters(), m.NumNodes())
	}
	// 2*6*5 internal links + 72 node links.
	if m.NumLinks() != 60+72 {
		t.Errorf("links = %d, want 132", m.NumLinks())
	}
	// Corner router uses 2 directions + 2 nodes.
	if got := m.UsedPorts(m.RouterAt[0][0]); got != 4 {
		t.Errorf("corner ports used = %d, want 4", got)
	}
	// Center router uses all 6.
	if got := m.UsedPorts(m.RouterAt[3][3]); got != 6 {
		t.Errorf("center ports used = %d, want 6", got)
	}
	x, y := m.NodeCoord(13) // node 13 = router 6 (x=0,y=1), second node
	if x != 0 || y != 1 {
		t.Errorf("NodeCoord(13) = (%d,%d), want (0,1)", x, y)
	}
}

func TestTorusStructure(t *testing.T) {
	m := NewTorus(4, 4, 1)
	// Every router uses all 4 direction ports.
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			if got := m.UsedPorts(m.RouterAt[x][y]); got != 5 {
				t.Errorf("(%d,%d) ports used = %d, want 5", x, y, got)
			}
		}
	}
	if m.NumLinks() != 32+16 {
		t.Errorf("links = %d, want 48", m.NumLinks())
	}
}

func TestHypercubeStructure(t *testing.T) {
	h := NewHypercube(3, 1)
	if h.NumRouters() != 8 || h.NumNodes() != 8 {
		t.Fatalf("routers=%d nodes=%d", h.NumRouters(), h.NumNodes())
	}
	if h.NumLinks() != 12+8 {
		t.Errorf("links = %d, want 20", h.NumLinks())
	}
	// Dimension-k port of router i reaches i^(1<<k).
	for i := 0; i < 8; i++ {
		for k := 0; k < 3; k++ {
			l, ok := h.LinkAt(h.Routers[i], k)
			if !ok {
				t.Fatalf("router %d dim %d unwired", i, k)
			}
			got := h.OtherEnd(l, h.Routers[i]).Device
			if got != h.Routers[i^(1<<k)] {
				t.Errorf("router %d dim %d leads to %d, want %d", i, k, got, h.Routers[i^(1<<k)])
			}
		}
	}
}

// §3.2: a 64-node hypercube needs 7-port routers — one more than ServerNet has.
func TestHypercubePortsNeeded(t *testing.T) {
	if got := HypercubePortsNeeded(6, 1); got != 7 {
		t.Errorf("6-D hypercube ports = %d, want 7", got)
	}
}

func TestRingStructure(t *testing.T) {
	r := NewRing(4, 1)
	if r.NumRouters() != 4 || r.NumNodes() != 4 || r.NumLinks() != 8 {
		t.Fatalf("routers=%d nodes=%d links=%d", r.NumRouters(), r.NumNodes(), r.NumLinks())
	}
	for i := 0; i < 4; i++ {
		l, _ := r.LinkAt(r.Routers[i], RingPortCW)
		if r.OtherEnd(l, r.Routers[i]).Device != r.Routers[(i+1)%4] {
			t.Errorf("CW port of %d misrouted", i)
		}
	}
}

// Figure 6: the 64-node 4-2 fat tree has 16 + 8 + 4 = 28 routers.
func TestFatTree42Figure6(t *testing.T) {
	ft := NewFatTree(4, 2, 64)
	if ft.Levels != 3 {
		t.Fatalf("levels = %d, want 3", ft.Levels)
	}
	if ft.NumRouters() != 28 {
		t.Errorf("routers = %d, want 28 (paper Table 2)", ft.NumRouters())
	}
	for l, want := range map[int]int{1: 16, 2: 8, 3: 4} {
		if got := ft.RouterCountAtLevel(l); got != want {
			t.Errorf("level %d routers = %d, want %d", l, got, want)
		}
	}
	if ft.NumNodes() != 64 {
		t.Errorf("nodes = %d", ft.NumNodes())
	}
	// Top-level routers leave their up ports free (expansion headroom).
	top := ft.RouterAt(3, 0, 0)
	if got := ft.UsedPorts(top); got != 4 {
		t.Errorf("top router uses %d ports, want 4", got)
	}
}

// §3.4: a 3-3 fat tree for 64 nodes requires 100 routers.
func TestFatTree33HundredRouters(t *testing.T) {
	ft := NewFatTree(3, 3, 64)
	if ft.Levels != 4 {
		t.Fatalf("levels = %d, want 4", ft.Levels)
	}
	if ft.NumRouters() != 100 {
		t.Errorf("routers = %d, want 100 (paper §3.4)", ft.NumRouters())
	}
	for l, want := range map[int]int{1: 22, 2: 24, 3: 27, 4: 27} {
		if got := ft.RouterCountAtLevel(l); got != want {
			t.Errorf("level %d routers = %d, want %d", l, got, want)
		}
	}
}

// A (D,1) fat tree is a simple tree: one root, bisection bottleneck at the top.
func TestFatTreeU1IsTree(t *testing.T) {
	ft := NewFatTree(4, 1, 16)
	if ft.NumRouters() != 4+1 {
		t.Errorf("routers = %d, want 5", ft.NumRouters())
	}
	if got := ft.RouterCountAtLevel(2); got != 1 {
		t.Errorf("roots = %d, want 1", got)
	}
}

func TestFatTreeCommonLevel(t *testing.T) {
	ft := NewFatTree(4, 2, 64)
	cases := []struct{ a, b, want int }{
		{0, 1, 1},   // same leaf
		{0, 5, 2},   // same pod
		{0, 17, 3},  // different pods
		{63, 62, 1}, // same leaf at the end
	}
	for _, c := range cases {
		if got := ft.CommonLevel(c.a, c.b); got != c.want {
			t.Errorf("CommonLevel(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFatTreeWiring(t *testing.T) {
	ft := NewFatTree(4, 2, 64)
	// Router (1, t, 0) up port v must reach (2, t/4, v) down port t%4.
	for tIdx := 0; tIdx < 16; tIdx++ {
		for v := 0; v < 2; v++ {
			leaf := ft.RouterAt(1, tIdx, 0)
			l, ok := ft.LinkAt(leaf, 4+v)
			if !ok {
				t.Fatalf("leaf %d up port %d unwired", tIdx, v)
			}
			far := ft.OtherEnd(l, leaf)
			wantDev := ft.RouterAt(2, tIdx/4, v)
			if far.Device != wantDev || far.Port != tIdx%4 {
				t.Errorf("leaf %d up %d lands at %v, want dev %d port %d",
					tIdx, v, far, wantDev, tIdx%4)
			}
		}
	}
}

// Table 1: fractahedral node capacity is 2*8^N with the fan-out stage.
func TestFractahedronTable1Capacity(t *testing.T) {
	for n := 1; n <= 3; n++ {
		for _, fat := range []bool{false, true} {
			cfg := Tetra(n, fat)
			cfg.Fanout = true
			want := 2 * pow(8, n)
			if got := cfg.MaxNodes(); got != want {
				t.Errorf("N=%d fat=%v MaxNodes = %d, want %d", n, fat, got, want)
			}
			if n <= 2 { // keep the built sizes modest
				f := NewFractahedron(cfg)
				if f.NumNodes() != want {
					t.Errorf("N=%d fat=%v built nodes = %d, want %d", n, fat, f.NumNodes(), want)
				}
			}
		}
	}
}

// Figure 7: the 64-node fat fractahedron (N=2, no fan-out) has 48 routers:
// 8 level-1 tetrahedra (32 routers) + 4 level-2 layers (16 routers).
func TestFatFractahedron64Figure7(t *testing.T) {
	f := NewFractahedron(Tetra(2, true))
	if f.NumNodes() != 64 {
		t.Fatalf("nodes = %d, want 64", f.NumNodes())
	}
	if f.NumRouters() != 48 {
		t.Errorf("routers = %d, want 48 (paper Table 2)", f.NumRouters())
	}
}

func TestThinFractahedronRouters(t *testing.T) {
	f := NewFractahedron(Tetra(2, false))
	// 8 level-1 tetrahedra + 1 level-2 tetrahedron = 36 routers.
	if f.NumRouters() != 36 {
		t.Errorf("routers = %d, want 36", f.NumRouters())
	}
	// Thin: only router 0 of each level-1 ensemble uses its up port.
	for e := 0; e < 8; e++ {
		for r := 0; r < 4; r++ {
			_, wired := f.LinkAt(f.RouterAt(FractRouter{1, e, 0, r}), f.UpPort())
			if wired != (r == 0) {
				t.Errorf("ensemble %d router %d up port wired=%v", e, r, wired)
			}
		}
	}
}

func TestFractahedronFatWiring(t *testing.T) {
	f := NewFractahedron(Tetra(2, true))
	// Level-2 layer m router r down port p must reach level-1 ensemble
	// (r*2+p) router m's up port ("each layer connects to a different corner
	// of the level 1 tetrahedrons").
	for m := 0; m < 4; m++ {
		for r := 0; r < 4; r++ {
			for p := 0; p < 2; p++ {
				up := f.RouterAt(FractRouter{2, 0, m, r})
				l, ok := f.LinkAt(up, p)
				if !ok {
					t.Fatalf("L2 layer %d router %d port %d unwired", m, r, p)
				}
				far := f.OtherEnd(l, up)
				want := f.RouterAt(FractRouter{1, r*2 + p, 0, m})
				if far.Device != want || far.Port != f.UpPort() {
					t.Errorf("L2.%d.%d.%d lands at %v, want router %d up", m, r, p, far, want)
				}
			}
		}
	}
	// Every level-1 router's up port is wired in the fat variant.
	for e := 0; e < 8; e++ {
		for r := 0; r < 4; r++ {
			if _, ok := f.LinkAt(f.RouterAt(FractRouter{1, e, 0, r}), f.UpPort()); !ok {
				t.Errorf("fat: ensemble %d router %d up port unwired", e, r)
			}
		}
	}
}

func TestFractahedronDigitsAndLevels(t *testing.T) {
	f := NewFractahedron(Tetra(2, true))
	// Address 54 = digit2 6, digit1 6 (base 8).
	if f.Digit(54, 2) != 6 || f.Digit(54, 1) != 6 {
		t.Errorf("digits of 54 = %d,%d; want 6,6", f.Digit(54, 2), f.Digit(54, 1))
	}
	if f.CommonLevel(6, 7) != 1 {
		t.Errorf("CommonLevel(6,7) = %d, want 1", f.CommonLevel(6, 7))
	}
	if f.CommonLevel(6, 14) != 2 {
		t.Errorf("CommonLevel(6,14) = %d, want 2", f.CommonLevel(6, 14))
	}
	if f.AddrOfNode(5) != 5 {
		t.Errorf("AddrOfNode without fanout should be identity")
	}
}

func TestFractahedronFanoutAddressing(t *testing.T) {
	cfg := Tetra(1, false)
	cfg.Fanout = true
	f := NewFractahedron(cfg)
	if f.NumNodes() != 16 {
		t.Fatalf("nodes = %d, want 16", f.NumNodes())
	}
	// 4 tetra routers + 8 fan-out routers.
	if f.NumRouters() != 12 {
		t.Errorf("routers = %d, want 12", f.NumRouters())
	}
	if f.AddrOfNode(15) != 7 {
		t.Errorf("AddrOfNode(15) = %d, want 7", f.AddrOfNode(15))
	}
	// Fan-out router metadata reports level 0.
	m := f.Meta(f.Fanout(3))
	if m.Level != 0 || m.Ensemble != 3 {
		t.Errorf("fanout meta = %+v", m)
	}
}

// The generalization of §4: fully-connected groups of other radix routers.
func TestFractahedronGeneralizedRadix(t *testing.T) {
	cfg := FractConfig{Group: 3, Down: 2, Levels: 2, Fat: true}
	if cfg.RouterPorts() != 5 {
		t.Fatalf("ports = %d, want 5", cfg.RouterPorts())
	}
	f := NewFractahedron(cfg)
	if f.NumNodes() != 36 { // (3*2)^2
		t.Errorf("nodes = %d, want 36", f.NumNodes())
	}
	// Level-2 layers = Group^(2-1) = 3; routers = 6 ensembles*3 + 3*3 = 27.
	if f.NumRouters() != 27 {
		t.Errorf("routers = %d, want 27", f.NumRouters())
	}
}

func TestWriteDOT(t *testing.T) {
	var sb strings.Builder
	r := NewRing(3, 1)
	if err := r.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "graph") || !strings.Contains(out, "--") {
		t.Errorf("DOT output malformed:\n%s", out)
	}
}

func TestAccessorHelpers(t *testing.T) {
	fm := NewFullMesh(3, 6)
	if fm.RouterOfNode(7) != 1 || fm.NodePort(7) != 2+3 {
		t.Errorf("fullmesh accessors: router=%d port=%d", fm.RouterOfNode(7), fm.NodePort(7))
	}
	h := NewHypercube(3, 2)
	if h.RouterOfNode(5) != 2 || h.NodePort(5) != 3+1 {
		t.Errorf("hypercube accessors: router=%d port=%d", h.RouterOfNode(5), h.NodePort(5))
	}
	ft := NewFatTree(4, 2, 64)
	if ft.Leaf(17) != ft.RouterAt(1, 4, 0) {
		t.Error("Leaf wrong")
	}
	if ft.InstAt(17, 2) != 1 {
		t.Errorf("InstAt = %d", ft.InstAt(17, 2))
	}
	if m := ft.Meta(ft.RouterAt(2, 1, 1)); m.Level != 2 || m.Inst != 1 || m.J != 1 {
		t.Errorf("fat tree meta %+v", m)
	}
	f := NewFractahedron(Tetra(2, true))
	if f.EnsembleAt(54, 1) != 6 {
		t.Errorf("EnsembleAt = %d", f.EnsembleAt(54, 1))
	}
	c := NewCCC(3)
	if w, i := c.Position(17); w != 5 || i != 2 {
		t.Errorf("CCC position (%d,%d)", w, i)
	}
	cfg := Tetra(1, false)
	cfg.Fanout = true
	ff := NewFractahedron(cfg)
	lo, hi := ff.FanoutSpan(ff.Fanout(3))
	if lo != 6 || hi != 8 {
		t.Errorf("fanout span [%d,%d)", lo, hi)
	}
}

func TestFractConfigValidation(t *testing.T) {
	for _, cfg := range []FractConfig{
		{Group: 1, Down: 2, Levels: 1},
		{Group: 4, Down: 0, Levels: 1},
		{Group: 4, Down: 2, Levels: 0},
		{Group: 4, Down: 2, Levels: 1, Populate: 100},
		{Group: 4, Down: 2, Levels: 1, Fanout: true, FanoutNodes: 9},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			NewFractahedron(cfg)
		}()
	}
}

func TestFatTreeLevelsExplicit(t *testing.T) {
	// Build a taller-than-needed tree explicitly: 2 levels for 4 nodes.
	ft := NewFatTreeLevels(4, 2, 2, 4)
	if ft.Levels != 2 {
		t.Fatalf("levels = %d", ft.Levels)
	}
	if ft.NumRouters() != 1+2 {
		t.Errorf("routers = %d, want 3 (1 leaf + 2 roots)", ft.NumRouters())
	}
	defer func() {
		if recover() == nil {
			t.Error("undersized tree accepted")
		}
	}()
	NewFatTreeLevels(2, 1, 2, 100)
}

// Induced is the incremental build of the kept devices and live links —
// AddRouter/AddNode in order, then Connect in link order — allocated at
// exact sizes: a router fault (its links die with it) and a link fault of
// the fat fractahedron.
func TestInducedMatchesIncrementalBuild(t *testing.T) {
	net := NewFractahedron(Tetra(2, true)).Network
	var r0 DeviceID = -1
	var interRouter LinkID = -1
	for _, l := range net.Links() {
		if net.Device(l.A.Device).Kind == Router && net.Device(l.B.Device).Kind == Router {
			r0, interRouter = l.A.Device, l.ID
			break
		}
	}
	for _, c := range []struct {
		name string
		keep func(DeviceID) bool
		dead func(LinkID) bool
	}{
		{"router", func(d DeviceID) bool { return d != r0 }, nil},
		{"link", func(DeviceID) bool { return true }, func(l LinkID) bool { return l == interRouter }},
	} {
		var devices []DeviceID
		want := New("sub")
		newID := make([]DeviceID, net.NumDevices())
		for _, d := range net.Devices() {
			newID[d.ID] = -1
			if !c.keep(d.ID) {
				continue
			}
			devices = append(devices, d.ID)
			if d.Kind == Router {
				newID[d.ID] = want.AddRouter(d.Name, d.Ports)
			} else {
				newID[d.ID] = want.AddNode(d.Name)
			}
		}
		for _, l := range net.Links() {
			if a, b := newID[l.A.Device], newID[l.B.Device]; a >= 0 && b >= 0 && (c.dead == nil || !c.dead(l.ID)) {
				want.Connect(a, l.A.Port, b, l.B.Port)
			}
		}

		got, ids := net.Induced("sub", devices, c.dead)
		if !slices.Equal(ids, newID) || got.Name != want.Name || !slices.Equal(got.devices, want.devices) ||
			!slices.Equal(got.links, want.links) || !slices.Equal(got.nodes, want.nodes) ||
			!maps.Equal(got.nodeIdx, want.nodeIdx) || !slices.EqualFunc(got.portLink, want.portLink, slices.Equal) {
			t.Errorf("%s fault: Induced differs from the incremental build", c.name)
		}
		if cap(got.devices) != len(got.devices) || cap(got.links) != len(got.links) || cap(got.nodes) != len(got.nodes) {
			t.Errorf("%s fault: capacities %d/%d/%d for %d devices, %d links, %d nodes", c.name,
				cap(got.devices), cap(got.links), cap(got.nodes), len(got.devices), len(got.links), len(got.nodes))
		}
		for d, ports := range got.portLink {
			if cap(ports) != got.devices[d].Ports {
				t.Errorf("%s fault: device %d port row has capacity %d", c.name, d, cap(ports))
			}
		}
	}
}

func TestConnectRejectsSelfLink(t *testing.T) {
	n := New("t")
	r := n.AddRouter("r", 4)
	defer func() {
		if recover() == nil {
			t.Error("self-link accepted")
		}
	}()
	n.Connect(r, 0, r, 1)
}

func TestChannelStringFormat(t *testing.T) {
	fm := NewFullMesh(2, 6)
	ch, _ := fm.ChannelFromPort(fm.Routers[0], 0)
	s := fm.ChannelString(ch)
	if s != "R0[0] -> R1[0]" {
		t.Errorf("ChannelString = %q", s)
	}
	if (PortRef{Device: 3, Port: 2}).String() != "3.2" {
		t.Error("PortRef string wrong")
	}
	if Router.String() != "router" || Node.String() != "node" || Kind(9).String() == "" {
		t.Error("Kind strings wrong")
	}
}

// BenchmarkBuildFatFractahedron measures topology construction alone.
func BenchmarkBuildFatFractahedron(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := NewFractahedron(Tetra(2, true))
		if f.NumRouters() != 48 {
			b.Fatal("bad build")
		}
	}
}
