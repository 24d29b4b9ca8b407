package routing

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// UpDownGeneric builds deadlock-free destination-based tables for an
// ARBITRARY connected topology using the up*/down* discipline (the scheme
// Autonet introduced, and the natural generalization of the per-topology
// restrictions §2 of the paper surveys): orient every inter-router link
// toward the router closer to a root (breadth-first level, ties by device
// ID); a legal route climbs zero or more "up" links and then descends zero
// or more "down" links, never turning upward again.
//
// Table-expressibility is preserved by a greedy rule that keeps the walk
// consistent: a router that can reach the destination by a pure-down path
// always takes the best down step (its successor then also can), otherwise
// it takes the best up step. Dependencies therefore run only up->up
// (strictly toward the root), up->down and down->down (strictly away), so
// the channel dependency graph is acyclic on any topology — the price, as
// with Figure 2's hypercube disables, is uneven link utilization near the
// root.
func UpDownGeneric(net *topology.Network, root topology.DeviceID) *Tables {
	if net.Device(root).Kind != topology.Router {
		panic(fmt.Sprintf("routing: up*/down* root %d is not a router", root))
	}
	return upDown(net, root, "updown-generic", nil, nil, true)
}

// UpDownDegraded builds up*/down* tables for a topology with failed
// elements, for online reconfiguration: linkDead and routerDead (either may
// be nil) mask out faulty hardware, and destinations unreachable from a
// router in the surviving root component get table holes (-1) instead of a
// panic — Route/Next surface those as errors, which is what a recovery
// controller wants when the fabric has split. The walk discipline, tie
// breaks, and table expressibility are identical to UpDownGeneric, so the
// same §2.4 argument applies: the swept turn set of the degraded tables is
// acyclic, and minimal disables derived from it keep even stale-route
// traffic deadlock-free.
func UpDownDegraded(net *topology.Network, root topology.DeviceID,
	linkDead func(topology.LinkID) bool,
	routerDead func(topology.DeviceID) bool) (*Tables, error) {
	if net.Device(root).Kind != topology.Router {
		return nil, fmt.Errorf("routing: up*/down* root %d is not a router", root)
	}
	if routerDead != nil && routerDead(root) {
		return nil, fmt.Errorf("routing: up*/down* root %d is itself dead", root)
	}
	return upDown(net, root, "updown-degraded", linkDead, routerDead, false), nil
}

// upDown is the shared up*/down* table builder. strict mode panics when any
// reached router cannot reach a destination (UpDownGeneric's historical
// contract, which the fabric verifier traps); degraded mode records holes.
//
// The fabric verifier rebuilds these tables once per fault inside its
// single-fault enumeration, so the work is arranged around the observation
// that every node hanging off one router yields the same distances: the
// down and up passes run once per destination router, over neighbour lists
// precomputed in port order, and only that router's own entry (the node's
// port) differs between its nodes.
func upDown(net *topology.Network, root topology.DeviceID, algorithm string,
	linkDead func(topology.LinkID) bool,
	routerDead func(topology.DeviceID) bool, strict bool) *Tables {

	live := func(l topology.LinkID) bool { return linkDead == nil || !linkDead(l) }

	// Breadth-first levels over routers only. level < 0 marks "not a
	// (reached, live) router".
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
			if !ok || !live(l) {
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
	// Order from the root outward: the order up-distances propagate in, and
	// the reverse of the order down-distances propagate in. Everything below
	// indexes routers by their position in this order.
	sort.Slice(routers, func(i, j int) bool { return higher(routers[i], routers[j]) })
	pos := make([]int32, nDev)
	for i, r := range routers {
		pos[r] = int32(i)
	}

	// Each router's down and up steps to live routers, in port order so
	// that the first port reaching the best distance wins ties. A down
	// neighbour always sits later in the order, an up neighbour earlier.
	type step struct{ at, port int32 }
	var downs, ups []step
	downOff := make([]int, len(routers)+1)
	upOff := make([]int, len(routers)+1)
	for i, u := range routers {
		for p := 0; p < net.Device(u).Ports; p++ {
			l, wired := net.LinkAt(u, p)
			if !wired || !live(l) {
				continue
			}
			v := net.OtherEnd(l, u).Device
			if net.Device(v).Kind != topology.Router || level[v] < 0 {
				continue
			}
			if higher(v, u) {
				ups = append(ups, step{pos[v], int32(p)})
			} else {
				downs = append(downs, step{pos[v], int32(p)})
			}
		}
		downOff[i+1], upOff[i+1] = len(downs), len(ups)
	}

	// Destination groups: the reached routers that hold nodes, each
	// numbered in the order its first node appears. home and group give
	// each destination node its router and that router's group, or -1 when
	// the node is severed (its link is down or its router is outside the
	// surviving component).
	nNodes := net.NumNodes()
	home := make([]topology.PortRef, nNodes)
	group := make([]int32, nNodes)
	groupOf := make([]int32, len(routers))
	for i := range groupOf {
		groupOf[i] = -1
	}
	groups := 0
	for dst := range home {
		group[dst] = -1
		dstDev := net.NodeByIndex(dst)
		l, wired := net.LinkAt(dstDev, 0)
		if !wired || !live(l) {
			continue
		}
		home[dst] = net.OtherEnd(l, dstDev)
		if level[home[dst].Device] < 0 {
			continue
		}
		at := pos[home[dst].Device]
		if groupOf[at] < 0 {
			groupOf[at] = int32(groups)
			groups++
		}
		group[dst] = groupOf[at]
	}

	// column computes, for the destination router at position at, every
	// router's best pure-down distance and best up*/down* distance with
	// consistent next hops, and stores each router's table entry in cols
	// (router-major, one column per group): the down port when a pure-down
	// path exists (the walk stays in the down phase), else the up port,
	// else -1. Distance 0 marks "no such path" (real distances start at 1).
	// dst only names the destination in the strict-mode panic.
	downDist := make([]int32, len(routers))
	downPort := make([]int32, len(routers))
	upDist := make([]int32, len(routers))
	cols := make([]int32, len(routers)*groups)
	column := func(at int32, dst int) {
		// A down path descends, so a router's down distance depends on
		// routers below it: deepest first. The destination router reaches
		// its node downward in one hop, which no neighbour can beat.
		for i := len(routers) - 1; i >= 0; i-- {
			var bd, bp int32
			if int32(i) == at {
				bd = 1
			}
			for _, s := range downs[downOff[i]:downOff[i+1]] {
				if hd := downDist[s.at]; hd > 0 && (bd == 0 || hd+1 < bd) {
					bd, bp = hd+1, s.port
				}
			}
			downDist[i], downPort[i] = bd, bp
		}
		// Up-capable distance: either pure down, or one up step then the
		// neighbour's best. Root outward, so a router's up neighbours are
		// final before it consults them.
		c := groupOf[at]
		for i := range routers {
			bd, bp := downDist[i], downPort[i]
			for _, s := range ups[upOff[i]:upOff[i+1]] {
				if hd := upDist[s.at]; hd > 0 && (bd == 0 || hd+1 < bd) {
					bd, bp = hd+1, s.port
				}
			}
			if bd == 0 && strict {
				panic(fmt.Sprintf("routing: up*/down* cannot reach node %d from router %d (disconnected?)", dst, routers[i]))
			}
			upDist[i] = bd
			entry := &cols[i*groups+int(c)]
			switch {
			case downDist[i] > 0:
				*entry = downPort[i]
			case bd > 0:
				*entry = bp
			default:
				*entry = -1 // degraded: dst severed from this component
			}
		}
	}

	// Destinations in ascending order, so strict mode panics on the first
	// one that fails; each group's column is computed at its first node.
	done := make([]bool, groups)
	for dst := range nNodes {
		if _, wired := net.LinkAt(net.NodeByIndex(dst), 0); !wired {
			panic(fmt.Sprintf("routing: node %d unwired", dst))
		}
		switch c := group[dst]; {
		case c < 0:
			// Severed: no router can reach it, starting with the root.
			if strict {
				panic(fmt.Sprintf("routing: up*/down* cannot reach node %d from router %d (disconnected?)", dst, root))
			}
		case !done[c]:
			done[c] = true
			column(pos[home[dst].Device], dst)
		}
	}

	// A router that is dead or outside the root component cannot say
	// anything useful about any destination, so its entries stay holes, as
	// do every router's entries for a severed destination.
	if strict {
		for _, d := range net.Devices() {
			if d.Kind == topology.Router && level[d.ID] < 0 {
				panic(fmt.Sprintf("routing: up*/down* router %d unreachable from root %d", d.ID, root))
			}
		}
	}
	t := newTables(net, algorithm)
	for dst, c := range group {
		if c < 0 {
			continue
		}
		col := dst * len(t.routers)
		for i, u := range routers {
			t.set(col+int(t.rix[u]), int(cols[i*groups+int(c)]))
		}
		// The destination router delivers through the node's own port.
		t.set(t.index(home[dst].Device, dst), home[dst].Port)
	}
	return t
}
