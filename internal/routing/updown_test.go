package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// upDownTargets enumerates (network, name) pairs the generic routing must
// handle: regular, irregular, and cyclic topologies alike.
func upDownTargets() []struct {
	name string
	net  *topology.Network
	root topology.DeviceID
} {
	ccc := topology.NewCCC(3)
	se := topology.NewShuffleExchange(4)
	torus := topology.NewTorus(3, 3, 1)
	mesh := topology.NewMesh(3, 3, 1)
	fract := topology.NewFractahedron(topology.Tetra(2, true))
	return []struct {
		name string
		net  *topology.Network
		root topology.DeviceID
	}{
		{"ccc-3", ccc.Network, ccc.Routers[0][0]},
		{"shuffle-exchange-4", se.Network, se.Routers[0]},
		{"torus-3x3", torus.Network, torus.RouterAt[0][0]},
		{"mesh-3x3", mesh.Network, mesh.RouterAt[1][1]},
		{"fat-fract-2", fract.Network, fract.RouterAt(topology.FractRouter{Level: 2, Ensemble: 0, Layer: 0, R: 0})},
	}
}

func TestUpDownGenericRoutesEverything(t *testing.T) {
	for _, tc := range upDownTargets() {
		tb := UpDownGeneric(tc.net, tc.root)
		if err := tb.Verify(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// The defining invariant: no route ever takes an up step after a down step.
func TestUpDownGenericPhaseInvariant(t *testing.T) {
	for _, tc := range upDownTargets() {
		tb := UpDownGeneric(tc.net, tc.root)
		// Recompute the BFS levels to classify steps.
		lvl := routerLevels(tc.net, tc.root)
		n := tc.net.NumNodes()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				r, err := tb.Route(s, d)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				descended := false
				for i := 1; i < len(r.Channels)-1; i++ {
					u := tc.net.ChannelSrc(r.Channels[i]).Device
					v := tc.net.ChannelDst(r.Channels[i]).Device
					upstep := lvl[v] < lvl[u] || (lvl[v] == lvl[u] && v < u)
					if upstep && descended {
						t.Fatalf("%s: route %d->%d turns upward after descending", tc.name, s, d)
					}
					if !upstep {
						descended = true
					}
				}
			}
		}
	}
}

func routerLevels(net *topology.Network, root topology.DeviceID) map[topology.DeviceID]int {
	lvl := map[topology.DeviceID]int{root: 0}
	queue := []topology.DeviceID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for p := 0; p < net.Device(u).Ports; p++ {
			l, ok := net.LinkAt(u, p)
			if !ok {
				continue
			}
			v := net.OtherEnd(l, u).Device
			if net.Device(v).Kind != topology.Router {
				continue
			}
			if _, seen := lvl[v]; !seen {
				lvl[v] = lvl[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return lvl
}

func TestCCCStructure(t *testing.T) {
	c := topology.NewCCC(3)
	if c.NumRouters() != 24 || c.NumNodes() != 24 {
		t.Fatalf("routers=%d nodes=%d, want 24/24", c.NumRouters(), c.NumNodes())
	}
	// Links: cycles 8*3 + cube 3*8/2 + nodes 24 = 24+12+24 = 60.
	if c.NumLinks() != 60 {
		t.Errorf("links = %d, want 60", c.NumLinks())
	}
	// Cube link of (w, i) reaches (w^(1<<i), i).
	for w := 0; w < 8; w++ {
		for i := 0; i < 3; i++ {
			l, ok := c.LinkAt(c.Routers[w][i], topology.CCCPortCube)
			if !ok {
				t.Fatalf("(%d,%d) cube port unwired", w, i)
			}
			got := c.OtherEnd(l, c.Routers[w][i]).Device
			if got != c.Routers[w^(1<<i)][i] {
				t.Errorf("(%d,%d) cube link wrong", w, i)
			}
		}
	}
	w, i := c.Position(17)
	if w != 5 || i != 2 {
		t.Errorf("Position(17) = (%d,%d), want (5,2)", w, i)
	}
}

func TestShuffleExchangeStructure(t *testing.T) {
	se := topology.NewShuffleExchange(4)
	if se.NumRouters() != 16 || se.NumNodes() != 16 {
		t.Fatalf("routers=%d nodes=%d", se.NumRouters(), se.NumNodes())
	}
	// Exchange partner of w is w^1; shuffle of 0b0011 is 0b0110.
	if se.Rotl(0b0011) != 0b0110 {
		t.Errorf("Rotl(0011) = %04b", se.Rotl(0b0011))
	}
	// Fixed points have no shuffle link: only exchange + node wired.
	for _, w := range []int{0, 15} {
		if got := se.UsedPorts(se.Routers[w]); got != 2 {
			t.Errorf("router %04b uses %d ports, want 2", w, got)
		}
	}
	// 2-cycle routers (0101 <-> 1010) share a single shuffle cable.
	l1, ok1 := se.LinkAt(se.Routers[0b0101], topology.SEPortShuffle)
	l2, ok2 := se.LinkAt(se.Routers[0b1010], topology.SEPortShuffle)
	if !ok1 || !ok2 || l1 != l2 {
		t.Errorf("2-cycle shuffle cable wrong: %v/%v %d/%d", ok1, ok2, l1, l2)
	}
}

// §2 lists CCC and shuffle-exchange among MPP topologies; with up*/down*
// tables both are serviceable but pay in hop count against a fractahedron
// of comparable size.
func TestBackgroundTopologyHops(t *testing.T) {
	ccc := topology.NewCCC(3)
	tb := UpDownGeneric(ccc.Network, ccc.Routers[0][0])
	max, total, pairs := maxHops(t, tb)
	if max < 6 {
		t.Errorf("CCC-3 max hops = %d, expected at least the diameter", max)
	}
	avg := float64(total) / float64(pairs)
	if avg < 3 || avg > 9 {
		t.Errorf("CCC-3 avg hops = %.2f out of plausible range", avg)
	}
}

// refUpDown is the per-destination up*/down* builder upDown replaced, kept
// verbatim as its oracle: it runs the down and up passes once per
// destination node and compiles the result through Build. upDown must
// produce the same table entry for entry, and the same panic text in
// strict mode.
func refUpDown(net *topology.Network, root topology.DeviceID, algorithm string,
	linkDead func(topology.LinkID) bool,
	routerDead func(topology.DeviceID) bool, strict bool) *Tables {

	// Breadth-first levels over routers only. Dense device-indexed slices
	// throughout: the fabric verifier rebuilds these tables once per fault
	// inside its single-fault enumeration, so the per-destination loops are
	// hot. level < 0 marks "not a (reached, live) router".
	nDev := net.NumDevices()
	level := make([]int, nDev)
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	queue := []topology.DeviceID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for p := 0; p < net.Device(u).Ports; p++ {
			l, ok := net.LinkAt(u, p)
			if !ok || (linkDead != nil && linkDead(l)) {
				continue
			}
			v := net.OtherEnd(l, u).Device
			if net.Device(v).Kind != topology.Router {
				continue
			}
			if routerDead != nil && routerDead(v) {
				continue
			}
			if level[v] < 0 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}

	// higher reports whether v is "above" u (closer to the root).
	higher := func(v, u topology.DeviceID) bool {
		lv, lu := level[v], level[u]
		if lv != lu {
			return lv < lu
		}
		return v < u
	}

	var routers []topology.DeviceID
	for d := topology.DeviceID(0); int(d) < nDev; d++ {
		if level[d] >= 0 {
			routers = append(routers, d)
		}
	}
	// Order from the root outward (the order down-distances propagate in,
	// and the reverse order for up-distances).
	sort.Slice(routers, func(i, j int) bool { return higher(routers[i], routers[j]) })

	type hop struct {
		dist int
		port int
	}

	// Per destination node, compute for every router the best pure-down
	// distance and the best up*/down* distance with consistent next hops.
	// hop.dist == 0 marks "no such path yet" (real distances start at 1).
	nNodes := net.NumNodes()
	downPort := make([][]int, nDev)
	upPort := make([][]int, nDev)
	for _, r := range routers {
		downPort[r] = make([]int, nNodes)
		upPort[r] = make([]int, nNodes)
	}

	down := make([]hop, nDev)
	up := make([]hop, nDev)
	for dst := 0; dst < nNodes; dst++ {
		for _, r := range routers {
			down[r] = hop{}
			up[r] = hop{}
		}
		dstDev := net.NodeByIndex(dst)
		l, wired := net.LinkAt(dstDev, 0)
		if !wired {
			panic(fmt.Sprintf("routing: node %d unwired", dst))
		}
		// The router holding the destination node "reaches it downward"
		// through the node port — unless the node's own link is down or its
		// router is outside the surviving component, which severs the node
		// entirely (every router gets a hole for it).
		far := net.OtherEnd(l, dstDev)
		if (linkDead == nil || !linkDead(l)) && level[far.Device] >= 0 {
			down[far.Device] = hop{dist: 1, port: far.Port}
		}

		// Pure-down distances propagate from routers above to routers
		// below... a down step at u goes to a LOWER router v (higher(u, v)
		// false... v below u) with down[v] known. Process routers from the
		// bottom up? A down path u -> v -> ... descends, so down[u] depends
		// on down[v] for v BELOW u: iterate routers in reverse root-outward
		// order (deepest first).
		for i := len(routers) - 1; i >= 0; i-- {
			u := routers[i]
			best := down[u]
			for p := 0; p < net.Device(u).Ports; p++ {
				l, wired := net.LinkAt(u, p)
				if !wired || (linkDead != nil && linkDead(l)) {
					continue
				}
				v := net.OtherEnd(l, u).Device
				if net.Device(v).Kind != topology.Router || level[v] < 0 || higher(v, u) {
					continue // only true down steps to live routers
				}
				if hv := down[v]; hv.dist > 0 {
					if best.dist == 0 || hv.dist+1 < best.dist {
						best = hop{dist: hv.dist + 1, port: p}
					}
				}
			}
			if best.dist > 0 {
				down[u] = best
			}
		}
		// Up-capable distance: either pure down, or one up step then the
		// neighbor's best. Process from the root outward so up[parent] is
		// final before children consult it.
		for _, u := range routers {
			best := down[u]
			for p := 0; p < net.Device(u).Ports; p++ {
				l, wired := net.LinkAt(u, p)
				if !wired || (linkDead != nil && linkDead(l)) {
					continue
				}
				v := net.OtherEnd(l, u).Device
				if net.Device(v).Kind != topology.Router || level[v] < 0 || !higher(v, u) {
					continue // only true up steps within the live component
				}
				if hv := up[v]; hv.dist > 0 {
					if best.dist == 0 || hv.dist+1 < best.dist {
						best = hop{dist: hv.dist + 1, port: p}
					}
				}
			}
			if best.dist == 0 && strict {
				panic(fmt.Sprintf("routing: up*/down* cannot reach node %d from router %d (disconnected?)", dst, u))
			}
			up[u] = best
		}
		for _, u := range routers {
			if h := down[u]; h.dist > 0 {
				downPort[u][dst] = h.port
			} else {
				downPort[u][dst] = -1
			}
			if h := up[u]; h.dist > 0 {
				upPort[u][dst] = h.port
			} else {
				upPort[u][dst] = -1 // degraded: dst severed from this component
			}
		}
	}

	return Build(net, algorithm, func(r topology.DeviceID, dst int) int {
		if downPort[r] == nil {
			// The router is dead or outside the root component; its table
			// cannot say anything useful.
			if strict {
				panic(fmt.Sprintf("routing: up*/down* router %d unreachable from root %d", r, root))
			}
			return -1
		}
		if p := downPort[r][dst]; p >= 0 {
			return p // pure-down reachable: stay in the down phase
		}
		return upPort[r][dst]
	})
}

// RefUpDownGeneric is the reference for UpDownGeneric, exported to the
// external test package, which alone may import core's built-in specs.
func RefUpDownGeneric(net *topology.Network, root topology.DeviceID) *Tables {
	return refUpDown(net, root, "updown-generic", nil, nil, true)
}

// sameTables reports the first entry where two tables differ.
func sameTables(got, want *Tables) error {
	if got.Algorithm != want.Algorithm || !slices.Equal(got.routers, want.routers) || got.nodes != want.nodes {
		return fmt.Errorf("algorithm %q over %d routers, want %q over %d",
			got.Algorithm, len(got.routers), want.Algorithm, len(want.routers))
	}
	for _, r := range got.routers {
		for dst := 0; dst < got.nodes; dst++ {
			if g, w := got.OutPort(r, dst), want.OutPort(r, dst); g != w {
				return fmt.Errorf("device %d entry for %d is %d, want %d", r, dst, g, w)
			}
		}
	}
	return nil
}

func TestUpDownGenericMatchesReference(t *testing.T) {
	for _, tc := range upDownTargets() {
		if err := sameTables(UpDownGeneric(tc.net, tc.root), RefUpDownGeneric(tc.net, tc.root)); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, routers, err := randomRouterNet(rng)
		if err != nil {
			t.Logf("builder bug: %v", err)
			return false
		}
		root := routers[rng.Intn(len(routers))]
		if err := sameTables(UpDownGeneric(net, root), RefUpDownGeneric(net, root)); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Degraded tables match the reference under random dead links and routers,
// always including one dead node link, so severed nodes and routers cut
// off from the root both get their holes.
func TestUpDownDegradedMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, routers, err := randomRouterNet(rng)
		if err != nil {
			t.Logf("builder bug: %v", err)
			return false
		}
		root := routers[rng.Intn(len(routers))]
		deadLink := map[topology.LinkID]bool{}
		for range 1 + rng.Intn(3) {
			deadLink[topology.LinkID(rng.Intn(net.NumLinks()))] = true
		}
		nodeLink, _ := net.LinkAt(net.NodeByIndex(rng.Intn(net.NumNodes())), 0)
		deadLink[nodeLink] = true
		deadRouter := map[topology.DeviceID]bool{}
		for range rng.Intn(3) {
			if r := routers[rng.Intn(len(routers))]; r != root {
				deadRouter[r] = true
			}
		}
		linkDead := func(l topology.LinkID) bool { return deadLink[l] }
		routerDead := func(d topology.DeviceID) bool { return deadRouter[d] }
		got, err := UpDownDegraded(net, root, linkDead, routerDead)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := refUpDown(net, root, "updown-degraded", linkDead, routerDead, false)
		if err := sameTables(got, want); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// On a disconnected network strict mode panics with the reference's text:
// the first destination some reached router cannot reach, named with that
// router, and otherwise the first router outside the root's component.
func TestUpDownGenericPanicMatchesReference(t *testing.T) {
	panicText := func(build func() *Tables) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		build()
		return "no panic"
	}
	// island builds two router islands; the second holds nodes only when
	// withNodes is set.
	island := func(withNodes bool) (*topology.Network, topology.DeviceID) {
		net := topology.New("islands")
		a0, a1 := net.AddRouter("a0", 4), net.AddRouter("a1", 4)
		b0, b1 := net.AddRouter("b0", 4), net.AddRouter("b1", 4)
		net.ConnectNext(a0, a1)
		net.ConnectNext(b0, b1)
		for _, r := range []topology.DeviceID{a0, b1, a1, b0} {
			if withNodes || r == a0 || r == a1 {
				net.ConnectNext(r, net.AddNode("n"))
			}
		}
		return net, a1
	}
	for _, withNodes := range []bool{true, false} {
		net, root := island(withNodes)
		got := panicText(func() *Tables { return UpDownGeneric(net, root) })
		want := panicText(func() *Tables { return RefUpDownGeneric(net, root) })
		if got != want || got == "no panic" {
			t.Errorf("nodes on the far island %v: panic %q, want %q", withNodes, got, want)
		}
	}
}

// benchTables keeps benchmarked tables live so the builds are not elided.
var benchTables *Tables

// BenchmarkUpDownGeneric measures up*/down* table construction on the
// two- and three-level fat fractahedra, rooted at the lowest-numbered
// router as the fabric verifier roots each degraded fabric it re-routes.
func BenchmarkUpDownGeneric(b *testing.B) {
	for _, levels := range []int{2, 3} {
		net := topology.NewFractahedron(topology.Tetra(levels, true)).Network
		root := topology.DeviceID(-1)
		for _, d := range net.Devices() {
			if d.Kind == topology.Router {
				root = d.ID
				break
			}
		}
		b.Run(fmt.Sprintf("fat-fract-%d", levels), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				benchTables = UpDownGeneric(net, root)
			}
		})
	}
}
