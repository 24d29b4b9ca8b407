package fabricver

import (
	"fmt"
	"slices"

	"repro/internal/routing"
	"repro/internal/topology"
)

// checkTables walks every (router, destination) entry of every routing
// table to termination, guarding against the corruption modes §2.4's
// path-disables defend against: missing entries (-1 holes), out-of-range
// ports, unwired ports, walks that eject into an end node that is not the
// destination ("dead" entries), and walks that revisit a router or never
// terminate ("looping" entries, including direct self-loops where an entry
// routes a packet straight back). Walks must also respect the analytical
// hop bound: a table entry no node-to-node route exercises is still part
// of the fabric's state and must obey the same discipline.
//
// The walk count is routers × destinations, so every table entry is read
// at least once from its own router — a stronger property than all-pairs
// reachability, which only reads the entries that lie on some node route.
//
// Destination-indexed tables make a walk's outcome a function of (router,
// destination) alone, so, as in routing's Sweep, each destination's walks
// are memoized: a walk stops at the first router whose verdict is already
// sealed (terminates in h hops, dead, or looping) and inherits it. Paths
// are rendered only for the reported entries, the first maxDetail in
// (router, destination) order, by re-walking each of them alone.
func checkTables(tb *routing.Tables, bound int, violate func(check, format string, args ...any)) TableCheck {
	net := tb.Net
	var routers []topology.DeviceID
	for _, d := range net.Devices() {
		if d.Kind == topology.Router {
			routers = append(routers, d.ID)
		}
	}
	nNodes := net.NumNodes()
	tc := TableCheck{Routers: len(routers), Entries: len(routers) * nNodes}

	// Per-destination verdicts, invalidated by stamping (stamp == dst+1) so
	// no clearing pass is needed between destinations.
	nd := net.NumDevices()
	stamp := make([]int, nd)
	verdict := make([]entryVerdict, nd)
	hops := make([]int, nd) // routers visited by a terminating walk
	seen := make([]int, nd) // walk counter, for on-path loop detection
	walkID := 0
	path := make([]topology.DeviceID, 0, nd)

	walk := func(r topology.DeviceID, dst, ds int, dstDev topology.DeviceID) {
		walkID++
		path = path[:0]
		v, h := entryDead, 0
		for cur := r; ; {
			if stamp[cur] == ds {
				v, h = verdict[cur], hops[cur]
				break
			}
			if seen[cur] == walkID {
				v = entryLoop
				break
			}
			seen[cur] = walkID
			path = append(path, cur)
			port := tb.OutPort(cur, dst)
			if port < 0 || port >= net.Device(cur).Ports {
				break
			}
			ch, wired := net.ChannelFromPort(cur, port)
			if !wired {
				break
			}
			next := net.ChannelDst(ch).Device
			if net.Device(next).Kind == topology.Node {
				if next == dstDev {
					v = entryOK
				}
				break
			}
			cur = next
		}
		for i := len(path) - 1; i >= 0; i-- {
			d := path[i]
			stamp[d], verdict[d] = ds, v
			if v == entryOK {
				h++
				hops[d] = h
			}
		}
	}

	// The violating entries, counted in detail; the first maxDetail of them
	// in (router, destination) order are kept as router*nNodes+dst keys.
	detail := 0
	var first []int
	for dst := 0; dst < nNodes; dst++ {
		ds := dst + 1
		dstDev := net.NodeByIndex(dst)
		for ri, r := range routers {
			if stamp[r] != ds {
				walk(r, dst, ds, dstDev)
			}
			switch verdict[r] {
			case entryDead:
				tc.Dead++
			case entryLoop:
				tc.Loops++
			case entryOK:
				tc.MaxWalk = max(tc.MaxWalk, hops[r])
				if hops[r] <= bound {
					continue
				}
			}
			detail++
			if key := ri*nNodes + dst; len(first) < maxDetail || key < first[len(first)-1] {
				i, _ := slices.BinarySearch(first, key)
				first = slices.Insert(first, i, key)
				if len(first) > maxDetail {
					first = first[:maxDetail]
				}
			}
		}
	}
	for _, key := range first {
		violate("tables", "%s", entryViolation(tb, routers[key/nNodes], key%nNodes, bound))
	}
	if detail > maxDetail {
		violate("tables", "table consistency:%s", capNote(detail))
	}
	tc.OK = detail == 0
	return tc
}

// entryVerdict is a sealed walk outcome in checkTables' per-destination
// memo.
type entryVerdict uint8

const (
	entryOK entryVerdict = iota + 1
	entryDead
	entryLoop
)

// entryViolation walks one (router, destination) entry to termination and
// renders why it fails checkTables: a dead entry, a loop, or a walk beyond
// the analytical hop bound. It returns "" for an entry that passes.
func entryViolation(tb *routing.Tables, dev topology.DeviceID, dst, bound int) string {
	net := tb.Net
	devName := net.Device(dev).Name
	dstName := net.Device(net.NodeByIndex(dst)).Name
	dstDev := net.NodeByIndex(dst)
	hops := 0
	cur := dev
	visited := map[topology.DeviceID]bool{}
	var path []string
	for {
		if visited[cur] {
			return fmt.Sprintf("entry (%s, %s): walk revisits %s (self-looping entry; path %v)",
				devName, dstName, net.Device(cur).Name, path)
		}
		visited[cur] = true
		path = append(path, net.Device(cur).Name)
		hops++
		port := tb.OutPort(cur, dst)
		if port < 0 {
			return fmt.Sprintf("entry (%s, %s): table hole at %s (no entry for the destination)",
				devName, dstName, net.Device(cur).Name)
		}
		if port >= net.Device(cur).Ports {
			return fmt.Sprintf("entry (%s, %s): %s routes out port %d but has only %d ports",
				devName, dstName, net.Device(cur).Name, port, net.Device(cur).Ports)
		}
		ch, wired := net.ChannelFromPort(cur, port)
		if !wired {
			return fmt.Sprintf("entry (%s, %s): %s port %d is unwired (dead entry)",
				devName, dstName, net.Device(cur).Name, port)
		}
		next := net.ChannelDst(ch).Device
		if net.Device(next).Kind == topology.Node {
			if next != dstDev {
				return fmt.Sprintf("entry (%s, %s): walk ejects into wrong end node %s (dead entry)",
					devName, dstName, net.Device(next).Name)
			}
			break // ejected at the destination
		}
		cur = next
	}
	if hops > bound {
		return fmt.Sprintf("entry (%s, %s): walk visits %d routers, exceeding the analytical bound %d (path %v)",
			devName, dstName, hops, bound, path)
	}
	return ""
}
