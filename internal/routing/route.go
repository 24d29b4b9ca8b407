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
	"sync"

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
//
// Entries are stored destination-major, one byte per (destination,
// router): each destination's column holds its routers' entries in device
// order, which is the order the all-pairs sweep reads them in. A byte is
// port+1, so 0 is a hole; ports outside [-1, maxBytePort] hold escByte and
// live in a side map, so any int written by SetOutPort reads back.
type Tables struct {
	Net       *topology.Network
	Algorithm string

	nodes   int
	routers []topology.DeviceID // ascending; a column's router order
	rix     []int32             // per device: its position in routers; -1 for end nodes
	cols    []byte              // [dst*len(routers) + rix[router]]: port+1, 0 = hole, escByte = escaped
	escaped map[int]int         // cols index -> port, for the escByte entries

	// Virtual-channel assignment (see vc.go); zero-valued for single-VC
	// routings.
	numVC int
	vc    VCFunc

	// mu guards memo, the Sweep of the current table contents; every
	// table write drops it.
	mu   sync.Mutex
	memo *PairSweep
}

const (
	escByte     = 0xff        // the entry's port is in Tables.escaped
	maxBytePort = escByte - 2 // largest port stored inline as port+1
)

// NextPortFunc computes the output port a router uses toward a destination
// node address. Algorithms are defined by such functions and compiled into
// Tables by Build.
type NextPortFunc func(router topology.DeviceID, dst int) int

// Build compiles a next-port function into concrete tables for every router
// of the network.
func Build(net *topology.Network, algorithm string, next NextPortFunc) *Tables {
	t := newTables(net, algorithm)
	for ri, dev := range t.routers {
		for dst := 0; dst < t.nodes; dst++ {
			t.set(dst*len(t.routers)+ri, next(dev, dst))
		}
	}
	return t
}

// newTables allocates tables whose every entry is a hole.
func newTables(net *topology.Network, algorithm string) *Tables {
	t := &Tables{Net: net, Algorithm: algorithm, nodes: net.NumNodes(), rix: make([]int32, net.NumDevices())}
	for _, d := range net.Devices() {
		t.rix[d.ID] = -1
		if d.Kind == topology.Router {
			t.rix[d.ID] = int32(len(t.routers))
			t.routers = append(t.routers, d.ID)
		}
	}
	t.cols = make([]byte, t.nodes*len(t.routers))
	return t
}

// index returns the storage index of entry (router, dst), panicking when
// the device has no table or the destination is out of range.
func (t *Tables) index(router topology.DeviceID, dst int) int {
	if router < 0 || int(router) >= len(t.rix) || t.rix[router] < 0 {
		panic(fmt.Sprintf("routing: device %d has no table", router))
	}
	if dst < 0 || dst >= t.nodes {
		panic(fmt.Sprintf("routing: destination %d out of range [0,%d)", dst, t.nodes))
	}
	return dst*len(t.routers) + int(t.rix[router])
}

// port decodes the entry at storage index i.
func (t *Tables) port(i int) int {
	if b := t.cols[i]; b != escByte {
		return int(b) - 1
	}
	return t.escaped[i]
}

// set encodes port into the entry at storage index i.
func (t *Tables) set(i, port int) {
	if port >= -1 && port <= maxBytePort {
		t.cols[i] = byte(port + 1)
		delete(t.escaped, i)
		return
	}
	if t.escaped == nil {
		t.escaped = make(map[int]int)
	}
	t.cols[i] = escByte
	t.escaped[i] = port
}

// OutPort returns the table entry of a router for a destination address.
func (t *Tables) OutPort(router topology.DeviceID, dst int) int {
	return t.port(t.index(router, dst))
}

// SetOutPort overrides one table entry. The fault-injection experiments use
// it to model the corrupted routing tables §2.4 of the paper defends
// against with path-disable logic.
func (t *Tables) SetOutPort(router topology.DeviceID, dst, port int) {
	i := t.index(router, dst)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.set(i, port)
	t.memo = nil
}

// Route walks the tables from node address src to node address dst and
// returns the resulting path. It fails if a table entry is missing, leads
// through an unwired port, or the walk exceeds the device count (a routing
// loop). It is AppendRoute's walk, with Devices derived from the channels.
func (t *Tables) Route(src, dst int) (Route, error) {
	chs, vcs, err := t.AppendRoute(nil, nil, src, dst)
	if err != nil {
		return Route{}, err
	}
	return Route{Src: src, Dst: dst, Channels: chs, Devices: t.devicesOf(src, chs), VCs: vcs}, nil
}

// AppendRoute is the route walker: it walks the tables from node address
// src to node address dst, appends the channels crossed to chs and, when
// the tables carry a VC assignment, each channel's virtual channel to vcs
// (left untouched otherwise), and returns both. It allocates nothing when
// the slices have room, so a caller routing many packets can walk them all
// into one arena. On failure it returns the slices as they were passed,
// with Route's error.
func (t *Tables) AppendRoute(chs []topology.ChannelID, vcs []int, src, dst int) ([]topology.ChannelID, []int, error) {
	if src == dst {
		return chs, vcs, fmt.Errorf("routing: src == dst == %d", src)
	}
	c0, v0 := len(chs), len(vcs)
	fail := func(format string, args ...any) ([]topology.ChannelID, []int, error) {
		return chs[:c0], vcs[:v0], fmt.Errorf(format, args...)
	}
	cur := t.Net.NodeByIndex(src)
	dstDev := t.Net.NodeByIndex(dst)
	port := 0 // end nodes have a single port
	for steps := 0; ; steps++ {
		if steps > t.Net.NumDevices() {
			// The path so far: every device entered, less the one the
			// last channel leads to.
			return fail("routing[%s]: loop routing %d -> %d (path %v)",
				t.Algorithm, src, dst, t.devicesOf(src, chs[c0:len(chs)-1]))
		}
		if cur == dstDev {
			return chs, vcs, nil
		}
		if steps > 0 {
			// Routers consult their table; the source node injected on its
			// only port (port 0) at step zero.
			ri := t.rix[cur]
			if ri < 0 {
				return fail("routing[%s]: walked into end node %s while routing %d -> %d",
					t.Algorithm, t.Net.Device(cur).Name, src, dst)
			}
			port = t.port(dst*len(t.routers) + int(ri))
			if port < 0 {
				return fail("routing[%s]: no table entry at %s for dst %d",
					t.Algorithm, t.Net.Device(cur).Name, dst)
			}
		}
		ch, ok := t.Net.ChannelFromPort(cur, port)
		if !ok {
			return fail("routing[%s]: %s port %d unwired (dst %d)",
				t.Algorithm, t.Net.Device(cur).Name, port, dst)
		}
		chs = append(chs, ch)
		if t.vc != nil {
			vcs = append(vcs, t.vcAt(cur, dst))
		}
		cur = t.Net.ChannelDst(ch).Device
	}
}

// devicesOf returns the devices a walk from node address src over chs
// visits: the source node, then the device each channel leads to.
func (t *Tables) devicesOf(src int, chs []topology.ChannelID) []topology.DeviceID {
	devs := make([]topology.DeviceID, 0, len(chs)+1)
	devs = append(devs, t.Net.NodeByIndex(src))
	for _, ch := range chs {
		devs = append(devs, t.Net.ChannelDst(ch).Device)
	}
	return devs
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
