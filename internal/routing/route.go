// Package routing implements deterministic, destination-based routing for
// every topology in the repository, in the style of ServerNet: each router
// holds a table mapping destination node address to output port, and a
// packet's path is the walk those tables induce. All algorithms here are
// per-router functions of the destination only, which is exactly the class
// of algorithms ServerNet's table-lookup hardware can express, and it
// guarantees the fixed per-pair paths that §3.3 of the paper requires for
// in-order delivery.
package routing

import (
	"fmt"

	"repro/internal/topology"
)

// Route is the deterministic path of a packet from one end node to another.
type Route struct {
	Src, Dst int // node addresses
	// Channels are the unidirectional channels crossed, in order, including
	// the injection channel (node to first router) and the ejection channel
	// (last router to node).
	Channels []topology.ChannelID
	// Devices are the devices visited: src node, routers, dst node.
	Devices []topology.DeviceID
	// VCs holds the virtual channel used on each entry of Channels. It is
	// nil for single-VC routings (everything travels on VC 0).
	VCs []int
}

// VCAt returns the virtual channel used on hop i of the route (0 when the
// routing has no VC assignment).
func (r Route) VCAt(i int) int {
	if r.VCs == nil {
		return 0
	}
	return r.VCs[i]
}

// RouterHops reports the number of routers the route traverses — the
// paper's "router delays" metric.
func (r Route) RouterHops() int { return len(r.Devices) - 2 }

// Tables is a full set of per-router routing tables plus the network they
// route. Entry (router, dst) gives the output port a packet for node
// address dst must take; -1 marks table holes (which Verify rejects).
type Tables struct {
	Net       *topology.Network
	Algorithm string
	out       [][]int // per device: the router's row over destinations; nil for end nodes

	// Virtual-channel assignment (see vc.go); zero-valued for single-VC
	// routings.
	numVC int
	vc    VCFunc
}

// NextPortFunc computes the output port a router uses toward a destination
// node address. Algorithms are defined by such functions and compiled into
// Tables by Build.
type NextPortFunc func(router topology.DeviceID, dst int) int

// Build compiles a next-port function into concrete tables for every router
// of the network.
func Build(net *topology.Network, algorithm string, next NextPortFunc) *Tables {
	t := newTables(net, algorithm)
	for dev, row := range t.out {
		for dst := range row {
			row[dst] = next(topology.DeviceID(dev), dst)
		}
	}
	return t
}

// newTables allocates one zeroed row per router.
func newTables(net *topology.Network, algorithm string) *Tables {
	t := &Tables{Net: net, Algorithm: algorithm, out: make([][]int, net.NumDevices())}
	for _, d := range net.Devices() {
		if d.Kind == topology.Router {
			t.out[d.ID] = make([]int, net.NumNodes())
		}
	}
	return t
}

// OutPort returns the table entry of a router for a destination address.
func (t *Tables) OutPort(router topology.DeviceID, dst int) int {
	if router < 0 || int(router) >= len(t.out) || t.out[router] == nil {
		panic(fmt.Sprintf("routing: device %d has no table", router))
	}
	return t.out[router][dst]
}

// SetOutPort overrides one table entry. The fault-injection experiments use
// it to model the corrupted routing tables §2.4 of the paper defends
// against with path-disable logic.
func (t *Tables) SetOutPort(router topology.DeviceID, dst, port int) {
	t.out[router][dst] = port
}

// Route walks the tables from node address src to node address dst and
// returns the resulting path. It fails if a table entry is missing, leads
// through an unwired port, or the walk exceeds the device count (a routing
// loop).
func (t *Tables) Route(src, dst int) (Route, error) {
	if src == dst {
		return Route{}, fmt.Errorf("routing: src == dst == %d", src)
	}
	r := Route{Src: src, Dst: dst}
	cur := t.Net.NodeByIndex(src)
	dstDev := t.Net.NodeByIndex(dst)
	port := 0 // end nodes have a single port
	for steps := 0; ; steps++ {
		if steps > t.Net.NumDevices() {
			return Route{}, fmt.Errorf("routing[%s]: loop routing %d -> %d (path %v)",
				t.Algorithm, src, dst, r.Devices)
		}
		r.Devices = append(r.Devices, cur)
		if cur == dstDev {
			return r, nil
		}
		if steps > 0 {
			// Routers consult their table; the source node injected on its
			// only port (port 0) at step zero.
			if t.Net.Device(cur).Kind != topology.Router {
				return Route{}, fmt.Errorf("routing[%s]: walked into end node %s while routing %d -> %d",
					t.Algorithm, t.Net.Device(cur).Name, src, dst)
			}
			port = t.OutPort(cur, dst)
			if port < 0 {
				return Route{}, fmt.Errorf("routing[%s]: no table entry at %s for dst %d",
					t.Algorithm, t.Net.Device(cur).Name, dst)
			}
		}
		ch, ok := t.Net.ChannelFromPort(cur, port)
		if !ok {
			return Route{}, fmt.Errorf("routing[%s]: %s port %d unwired (dst %d)",
				t.Algorithm, t.Net.Device(cur).Name, port, dst)
		}
		r.Channels = append(r.Channels, ch)
		if t.vc != nil {
			r.VCs = append(r.VCs, t.vcAt(cur, dst))
		}
		cur = t.Net.ChannelDst(ch).Device
	}
}

// Next performs a single step of the walk Route performs: the channel (and
// virtual channel) a packet at dev takes toward destination address dst.
// Destination-indexed routing makes the step a function of (dev, dst)
// alone — no source, no history — which is what lets whole-fabric sweeps
// memoize walks per destination instead of re-walking every source (see
// Sweep). End nodes inject on their only port; routers consult
// their table. Unlike Route, Next rejects out-of-range ports with an error
// instead of panicking, so it is safe on arbitrarily corrupted tables.
func (t *Tables) Next(dev topology.DeviceID, dst int) (topology.ChannelID, int, error) {
	port := 0
	d := t.Net.Device(dev)
	if d.Kind == topology.Router {
		port = t.OutPort(dev, dst)
		if port < 0 {
			return -1, 0, fmt.Errorf("no table entry at %s for destination %d", d.Name, dst)
		}
		if port >= d.Ports {
			return -1, 0, fmt.Errorf("%s routes out port %d but has only %d ports", d.Name, port, d.Ports)
		}
	}
	ch, ok := t.Net.ChannelFromPort(dev, port)
	if !ok {
		return -1, 0, fmt.Errorf("%s port %d unwired (destination %d)", d.Name, port, dst)
	}
	return ch, t.vcAt(dev, dst), nil
}

// AllRoutes returns routes for every ordered pair of distinct node
// addresses.
func (t *Tables) AllRoutes() ([]Route, error) {
	n := t.Net.NumNodes()
	routes := make([]Route, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			r, err := t.Route(s, d)
			if err != nil {
				return nil, err
			}
			routes = append(routes, r)
		}
	}
	return routes, nil
}

// Verify routes every ordered pair and reports the first failure, if any.
// It is the all-pairs reachability check builders and tests rely on.
func (t *Tables) Verify() error {
	n := t.Net.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if _, err := t.Route(s, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// Turn is a (input port, output port) pair at a router.
type Turn struct{ In, Out int }

// UsedTurns computes, for every router, the set of turns any route actually
// takes. Its complement is the path-disable configuration of §2.4: ServerNet
// routers can disable all unused turns so that even a corrupted routing
// table cannot re-introduce a dependency loop.
func (t *Tables) UsedTurns() (map[topology.DeviceID]map[Turn]bool, error) {
	sw := t.Sweep()
	if err := sw.Err(); err != nil {
		return nil, err
	}
	return sw.Turns(), nil
}
