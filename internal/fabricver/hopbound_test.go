package fabricver

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// refRouterDiameter is the map-based all-pairs BFS that routerGraph's
// diameter replaced, kept as its oracle.
func refRouterDiameter(net *topology.Network) int {
	routers := make([]topology.DeviceID, 0, net.NumRouters())
	for _, d := range net.Devices() {
		if d.Kind == topology.Router {
			routers = append(routers, d.ID)
		}
	}
	dist := make(map[topology.DeviceID]int, len(routers))
	diameter := 0
	for _, src := range routers {
		for k := range dist {
			delete(dist, k)
		}
		dist[src] = 0
		queue := []topology.DeviceID{src}
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
				if _, seen := dist[v]; !seen {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
					if dist[v] > diameter {
						diameter = dist[v]
					}
				}
			}
		}
	}
	return diameter
}

// randomRouterNet builds a random connected topology: a random spanning
// tree over 2..16 sixteen-port routers plus chords, one node per router.
func randomRouterNet(rng *rand.Rand) *topology.Network {
	net := topology.New("random")
	nr := 2 + rng.Intn(15)
	routers := make([]topology.DeviceID, nr)
	for i := range routers {
		routers[i] = net.AddRouter("r", 16)
		net.ConnectNext(routers[i], net.AddNode("n"))
	}
	for i := 1; i < nr; i++ {
		net.ConnectNext(routers[i], routers[rng.Intn(i)])
	}
	for range rng.Intn(nr) {
		if a, b := routers[rng.Intn(nr)], routers[rng.Intn(nr)]; a != b && net.UsedPorts(a) < 16 && net.UsedPorts(b) < 16 {
			net.ConnectNext(a, b)
		}
	}
	return net
}

// The dense router BFS gives the map BFS's diameter on every built-in
// spec and on random topologies, and no router's eccentricity exceeds it.
func TestRouterDiameterMatchesMapBFS(t *testing.T) {
	check := func(name string, net *topology.Network) {
		t.Helper()
		g := newRouterGraph(net)
		d := g.diameter()
		if want := refRouterDiameter(net); d != want {
			t.Fatalf("%s: diameter %d, map BFS %d", name, d, want)
		}
		dist, queue := make([]int32, g.routers()), make([]int32, 0, g.routers())
		for r := range g.routers() {
			if e := g.eccentricity(int32(r), dist, queue); e > d {
				t.Fatalf("%s: router %d eccentricity %d exceeds diameter %d", name, r, e, d)
			}
		}
	}
	for _, spec := range core.BuiltinSpecs() {
		sys, _, err := core.ParseSystem(spec)
		if err != nil {
			t.Fatal(err)
		}
		check(spec, sys.Net)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range 200 {
		check(fmt.Sprintf("random %d", i), randomRouterNet(rng))
	}
}

// The degraded hop check passes a route within the bound over the root's
// eccentricity without the exact diameter, falls back to the exact
// diameter beyond it, and renders the violation only when the route also
// exceeds that.
func TestDegradedHopViolation(t *testing.T) {
	// A five-router line rooted in the middle: eccentricity L = 2 (bound
	// 2L+1 = 5), diameter D = 4 (bound 2D+1 = 9).
	net := topology.New("line")
	var line []topology.DeviceID
	for i := range 5 {
		line = append(line, net.AddRouter("r", 3))
		net.ConnectNext(line[i], net.AddNode("n"))
		if i > 0 {
			net.ConnectNext(line[i-1], line[i])
		}
	}
	g := newRouterGraph(net)
	root := g.index[line[2]]
	for _, tc := range []struct {
		maxHops int
		want    string
	}{
		{5, ""}, // within hopBound(L)
		{9, ""}, // beyond hopBound(L), within hopBound(D)
		{10, "link x down: degraded route takes 10 router hops, exceeding the up*/down* bound 9"},
	} {
		if got := degradedHopViolation("link x down", "updown-generic", g, root, tc.maxHops); got != tc.want {
			t.Errorf("max hops %d: %q, want %q", tc.maxHops, got, tc.want)
		}
	}
}
