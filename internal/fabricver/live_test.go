package fabricver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestOnlineMatchesFaultEnumeration cross-checks the two damaged-fabric
// routings under every single link and router fault. The online path
// (Components → LiveTarget → UpDownDegraded on the whole network →
// CertifyLive) must certify its tables acyclic with exactly the expected
// pairs reached, and every pair inside the rerouted component must take
// the hop count the fault enumeration's rebuilt sub-network gives it.
// That equivalence is what lets the enumeration keep its cheaper
// per-component rebuilds while the live simulator, which needs tables
// over the original network, routes with masks.
func TestOnlineMatchesFaultEnumeration(t *testing.T) {
	for _, spec := range []string{"fat-fract:levels=2", "fat-fract:levels=2,fanout"} {
		t.Run(spec, func(t *testing.T) {
			sys, _, err := core.ParseSystem(spec)
			if err != nil {
				t.Fatal(err)
			}
			net := sys.Net
			faults := 0
			for _, l := range net.Links() {
				checkOnline(t, net, func(id topology.LinkID) bool { return id == l.ID })
				faults++
			}
			for _, d := range net.Devices() {
				if d.Kind != topology.Router {
					continue
				}
				checkOnline(t, net, func(id topology.LinkID) bool {
					l := net.Link(id)
					return l.A.Device == d.ID || l.B.Device == d.ID
				})
				faults++
			}
			if faults != net.NumLinks()+net.NumRouters() {
				t.Fatalf("%d faults tried, want %d", faults, net.NumLinks()+net.NumRouters())
			}
		})
	}
}

func checkOnline(t *testing.T, net *topology.Network, dead func(topology.LinkID) bool) {
	t.Helper()
	root, pairs := LiveTarget(net, dead)
	if root < 0 {
		t.Fatal("no component with a router survives a single fault")
	}
	tb, err := routing.UpDownDegraded(net, root, dead, nil)
	if err != nil {
		t.Fatal(err)
	}
	lc, _ := CertifyLive(tb)
	if !lc.Acyclic || lc.Reached != pairs {
		t.Fatalf("root %s: acyclic %v, reached %d pairs, want %d (cycle %v)",
			net.Device(root).Name, lc.Acyclic, lc.Reached, pairs, lc.MinimalCycle)
	}

	var c *Component
	for _, cc := range Components(net, dead) {
		if len(cc.Routers) > 0 && cc.Routers[0] == root {
			c = &cc
		}
	}
	if c == nil {
		t.Fatalf("root %s roots no component", net.Device(root).Name)
	}
	sub, newID := net.Induced(net.Name+" (degraded)", c.Devices, dead)
	want := routing.UpDownGeneric(sub, newID[root]).Sweep()
	got := tb.Sweep()
	for _, a := range c.Nodes {
		for _, b := range c.Nodes {
			if a == b {
				continue
			}
			src, dst := net.NodeIndex(a), net.NodeIndex(b)
			g := got.Hops(src, dst)
			w := want.Hops(sub.NodeIndex(newID[a]), sub.NodeIndex(newID[b]))
			if g != w {
				t.Fatalf("root %s: %s -> %s takes %d hops online, %d in the rebuilt component",
					net.Device(root).Name, net.Device(a).Name, net.Device(b).Name, g, w)
			}
		}
	}
}
