// Package topology models interconnection networks built from routers with a
// fixed number of ports, end nodes (CPUs, I/O adapters), and full-duplex
// links (cables) joining two ports. It provides builders for every topology
// discussed in Horst's IPPS'96 paper: fully-connected router groups,
// 2-D meshes and tori, hypercubes, rings, trees, 4-2 and 3-3 fat trees, and
// thin/fat fractahedrons.
//
// A link is a full-duplex cable and consists of two unidirectional channels;
// channels are the unit of deadlock analysis (channel dependency graphs) and
// of contention measurement.
package topology

import (
	"fmt"

	"repro/internal/graph"
)

// DeviceID identifies a device (router or end node) within a Network.
type DeviceID int

// LinkID identifies a full-duplex link (cable) within a Network.
type LinkID int

// ChannelID identifies one unidirectional half of a link: channel 2l carries
// traffic from link l's A port to its B port, channel 2l+1 the reverse.
type ChannelID int

// Kind distinguishes routers from end nodes.
type Kind uint8

const (
	// Router is a packet switch with multiple ports.
	Router Kind = iota
	// Node is an end node (CPU or peripheral adapter) with a single port.
	Node
)

// String names the device kind for display.
func (k Kind) String() string {
	switch k {
	case Router:
		return "router"
	case Node:
		return "node"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Device is a router or end node.
type Device struct {
	ID    DeviceID
	Kind  Kind
	Name  string
	Ports int
}

// PortRef addresses one port of one device.
type PortRef struct {
	Device DeviceID
	Port   int
}

// String renders the port reference as "device.port".
func (p PortRef) String() string { return fmt.Sprintf("%d.%d", p.Device, p.Port) }

// Link is a full-duplex cable between two ports.
type Link struct {
	ID   LinkID
	A, B PortRef
}

// Network is a set of devices wired by links. The zero value is not usable;
// create networks with New.
type Network struct {
	Name string

	devices  []Device
	links    []Link
	portLink [][]LinkID // per device, per port: link or -1
	nodes    []DeviceID // end nodes in creation order; index = node address
	nodeIdx  map[DeviceID]int
	seedCuts [][]bool // structural bisection seeds, per device
}

// New returns an empty network with the given name.
func New(name string) *Network {
	return &Network{Name: name, nodeIdx: make(map[DeviceID]int)}
}

// AddRouter adds a router with the given port count and returns its ID.
func (n *Network) AddRouter(name string, ports int) DeviceID {
	if ports <= 0 {
		panic(fmt.Sprintf("topology: router %q with %d ports", name, ports))
	}
	return n.addDevice(Device{Kind: Router, Name: name, Ports: ports})
}

// AddNode adds a single-ported end node and returns its ID. End nodes are
// numbered in creation order; that number is the node's network address
// (see NodeIndex).
func (n *Network) AddNode(name string) DeviceID {
	id := n.addDevice(Device{Kind: Node, Name: name, Ports: 1})
	n.nodeIdx[id] = len(n.nodes)
	n.nodes = append(n.nodes, id)
	return id
}

func (n *Network) addDevice(d Device) DeviceID {
	d.ID = DeviceID(len(n.devices))
	n.devices = append(n.devices, d)
	pl := make([]LinkID, d.Ports)
	for i := range pl {
		pl[i] = -1
	}
	n.portLink = append(n.portLink, pl)
	return d.ID
}

// Connect wires port aPort of device a to port bPort of device b with a new
// full-duplex link and returns the link's ID. It panics if either port is
// out of range or already wired, or if a == b.
func (n *Network) Connect(a DeviceID, aPort int, b DeviceID, bPort int) LinkID {
	if a == b {
		panic(fmt.Sprintf("topology: self-link on device %d", a))
	}
	n.claimPort(a, aPort)
	n.claimPort(b, bPort)
	id := LinkID(len(n.links))
	n.links = append(n.links, Link{ID: id, A: PortRef{a, aPort}, B: PortRef{b, bPort}})
	n.portLink[a][aPort] = id
	n.portLink[b][bPort] = id
	return id
}

// Induced returns the subnetwork named name on the given devices and the
// links among them that dead (nil for none) does not report failed — a
// degraded fabric's surviving piece. Devices keep their kinds, names and
// port counts and are renumbered in the order given (so end nodes keep
// their relative addresses when devices ascend), and links keep their
// ports and relative order. Everything is allocated at its exact size. The
// returned slice maps each device of n to its ID in the subnetwork, or -1.
func (n *Network) Induced(name string, devices []DeviceID, dead func(LinkID) bool) (*Network, []DeviceID) {
	newID := make([]DeviceID, len(n.devices))
	for i := range newID {
		newID[i] = -1
	}
	ports, nodes := 0, 0
	for i, id := range devices {
		newID[id] = DeviceID(i)
		ports += n.devices[id].Ports
		if n.devices[id].Kind == Node {
			nodes++
		}
	}
	live := func(l Link) bool {
		return (dead == nil || !dead(l.ID)) && newID[l.A.Device] >= 0 && newID[l.B.Device] >= 0
	}
	links := 0
	for _, l := range n.links {
		if live(l) {
			links++
		}
	}

	sub := &Network{
		Name:     name,
		devices:  make([]Device, len(devices)),
		links:    make([]Link, 0, links),
		portLink: make([][]LinkID, len(devices)),
		nodes:    make([]DeviceID, 0, nodes),
		nodeIdx:  make(map[DeviceID]int, nodes),
	}
	slots := make([]LinkID, ports)
	for i := range slots {
		slots[i] = -1
	}
	for i, id := range devices {
		d := n.devices[id]
		d.ID = DeviceID(i)
		sub.devices[i] = d
		sub.portLink[i], slots = slots[:d.Ports:d.Ports], slots[d.Ports:]
		if d.Kind == Node {
			sub.nodeIdx[d.ID] = len(sub.nodes)
			sub.nodes = append(sub.nodes, d.ID)
		}
	}
	for _, l := range n.links {
		if !live(l) {
			continue
		}
		id := LinkID(len(sub.links))
		a, b := PortRef{newID[l.A.Device], l.A.Port}, PortRef{newID[l.B.Device], l.B.Port}
		sub.links = append(sub.links, Link{ID: id, A: a, B: b})
		sub.portLink[a.Device][a.Port] = id
		sub.portLink[b.Device][b.Port] = id
	}
	return sub, newID
}

// ConnectNext wires the lowest free port of a to the lowest free port of b.
func (n *Network) ConnectNext(a, b DeviceID) LinkID {
	return n.Connect(a, n.FreePort(a), b, n.FreePort(b))
}

// FreePort returns the lowest unwired port of the device, or panics if all
// ports are in use.
func (n *Network) FreePort(d DeviceID) int {
	for p, l := range n.portLink[d] {
		if l == -1 {
			return p
		}
	}
	panic(fmt.Sprintf("topology: device %d (%s) has no free port", d, n.devices[d].Name))
}

func (n *Network) claimPort(d DeviceID, port int) {
	if int(d) < 0 || int(d) >= len(n.devices) {
		panic(fmt.Sprintf("topology: device %d out of range", d))
	}
	if port < 0 || port >= n.devices[d].Ports {
		panic(fmt.Sprintf("topology: port %d out of range on device %d (%s, %d ports)",
			port, d, n.devices[d].Name, n.devices[d].Ports))
	}
	if n.portLink[d][port] != -1 {
		panic(fmt.Sprintf("topology: port %d of device %d (%s) already wired",
			port, d, n.devices[d].Name))
	}
}

// NumDevices reports the number of devices.
func (n *Network) NumDevices() int { return len(n.devices) }

// NumLinks reports the number of full-duplex links.
func (n *Network) NumLinks() int { return len(n.links) }

// NumChannels reports the number of unidirectional channels (2 per link).
func (n *Network) NumChannels() int { return 2 * len(n.links) }

// NumNodes reports the number of end nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumRouters reports the number of routers.
func (n *Network) NumRouters() int { return len(n.devices) - len(n.nodes) }

// Device returns the device record for id.
func (n *Network) Device(id DeviceID) Device { return n.devices[id] }

// Devices returns all devices. The slice is shared and must not be modified.
func (n *Network) Devices() []Device { return n.devices }

// Links returns all links. The slice is shared and must not be modified.
func (n *Network) Links() []Link { return n.links }

// Link returns the link record for id.
func (n *Network) Link(id LinkID) Link { return n.links[id] }

// Nodes returns the end nodes in address order. The slice is shared and must
// not be modified.
func (n *Network) Nodes() []DeviceID { return n.nodes }

// NodeIndex returns the network address of an end node (its position in
// creation order). It panics if id is not an end node.
func (n *Network) NodeIndex(id DeviceID) int {
	idx, ok := n.nodeIdx[id]
	if !ok {
		panic(fmt.Sprintf("topology: device %d is not an end node", id))
	}
	return idx
}

// NodeByIndex returns the end node with the given network address.
func (n *Network) NodeByIndex(i int) DeviceID { return n.nodes[i] }

// LinkAt returns the link wired to the given port, if any.
func (n *Network) LinkAt(d DeviceID, port int) (LinkID, bool) {
	l := n.portLink[d][port]
	return l, l != -1
}

// PortOf returns which port of device d link l terminates on. It panics if
// the link does not touch d.
func (n *Network) PortOf(l LinkID, d DeviceID) int {
	lk := n.links[l]
	switch d {
	case lk.A.Device:
		return lk.A.Port
	case lk.B.Device:
		return lk.B.Port
	}
	panic(fmt.Sprintf("topology: link %d does not touch device %d", l, d))
}

// OtherEnd returns the far end of link l as seen from device d.
func (n *Network) OtherEnd(l LinkID, d DeviceID) PortRef {
	lk := n.links[l]
	switch d {
	case lk.A.Device:
		return lk.B
	case lk.B.Device:
		return lk.A
	}
	panic(fmt.Sprintf("topology: link %d does not touch device %d", l, d))
}

// ChannelFromPort returns the outbound channel leaving device d through the
// given port.
func (n *Network) ChannelFromPort(d DeviceID, port int) (ChannelID, bool) {
	l, ok := n.LinkAt(d, port)
	if !ok {
		return -1, false
	}
	if n.links[l].A.Device == d {
		return ChannelID(2 * l), true
	}
	return ChannelID(2*l + 1), true
}

// ChannelSrc returns the port a channel leaves from.
func (n *Network) ChannelSrc(c ChannelID) PortRef {
	l := n.links[c/2]
	if c%2 == 0 {
		return l.A
	}
	return l.B
}

// ChannelDst returns the port a channel arrives at.
func (n *Network) ChannelDst(c ChannelID) PortRef {
	l := n.links[c/2]
	if c%2 == 0 {
		return l.B
	}
	return l.A
}

// ChannelLink returns the link a channel belongs to.
func (n *Network) ChannelLink(c ChannelID) LinkID { return LinkID(c / 2) }

// Reverse returns the opposite channel of the same link.
func (n *Network) Reverse(c ChannelID) ChannelID { return c ^ 1 }

// ChannelString renders a channel as "name[port] -> name[port]" for
// diagnostics.
func (n *Network) ChannelString(c ChannelID) string {
	s, d := n.ChannelSrc(c), n.ChannelDst(c)
	return fmt.Sprintf("%s[%d] -> %s[%d]",
		n.devices[s.Device].Name, s.Port, n.devices[d.Device].Name, d.Port)
}

// UsedPorts reports how many ports of the device are wired.
func (n *Network) UsedPorts(d DeviceID) int {
	used := 0
	for _, l := range n.portLink[d] {
		if l != -1 {
			used++
		}
	}
	return used
}

// Ugraph returns the undirected device connectivity graph (one edge per
// link; parallel links yield parallel edges).
func (n *Network) Ugraph() *graph.Ugraph {
	g := graph.NewUgraph(len(n.devices))
	for _, l := range n.links {
		g.AddEdge(int(l.A.Device), int(l.B.Device))
	}
	return g
}

// AddSeedCut registers a structural bisection candidate: side[d] gives the
// suggested side per device. Builders register the cuts their structure
// makes natural; the bisection search uses them as starting points.
func (n *Network) AddSeedCut(side []bool) {
	if len(side) != len(n.devices) {
		panic("topology: seed cut length mismatch")
	}
	n.seedCuts = append(n.seedCuts, side)
}

// SeedCuts returns the registered structural cuts.
func (n *Network) SeedCuts() [][]bool { return n.seedCuts }
