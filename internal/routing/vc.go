package routing

import (
	"fmt"

	"repro/internal/topology"
)

// Virtual-channel support. The paper's §2 discusses Dally & Seitz's
// alternative to topology-based deadlock avoidance: add virtual channels to
// each physical link and break dependency loops by assigning packets to
// VCs as they progress. ServerNet deliberately rejects this for router
// cost; the repository implements it anyway as the comparison baseline.
//
// A VC assignment is destination-indexed per router, exactly like the
// output-port tables, so real table-lookup hardware could hold it: the VC
// used on the output channel chosen at a router is VCFunc(router, dst).

// VCFunc selects the virtual channel for the output channel a router picks
// toward a destination.
type VCFunc func(router topology.DeviceID, dst int) int

// WithVCs attaches a virtual-channel assignment and VC count to tables.
// Routes produced afterwards carry a parallel VCs slice.
func (t *Tables) WithVCs(numVC int, f VCFunc) *Tables {
	if numVC < 2 {
		panic(fmt.Sprintf("routing: WithVCs needs >= 2 virtual channels, got %d", numVC))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.numVC = numVC
	t.vc = f
	t.memo = nil
	return t
}

// NumVC reports the virtual channel count of the routing (1 when no VC
// assignment is attached).
func (t *Tables) NumVC() int {
	if t.numVC == 0 {
		return 1
	}
	return t.numVC
}

// vcAt evaluates the VC assignment at a device (end nodes inject on VC 0).
func (t *Tables) vcAt(dev topology.DeviceID, dst int) int {
	if t.vc == nil || t.Net.Device(dev).Kind != topology.Router {
		return 0
	}
	v := t.vc(dev, dst)
	if v < 0 || v >= t.numVC {
		panic(fmt.Sprintf("routing: VC %d out of range [0,%d) at device %d", v, t.numVC, dev))
	}
	return v
}

// RingDateline routes a ring strictly clockwise like RingClockwise, but
// with the Dally–Seitz dateline discipline over two virtual channels:
// packets travel on VC 0 until they cross the wrap link between router
// Size-1 and router 0, then continue on VC 1. The physical channel cycle
// remains, but the (channel, VC) dependency graph is acyclic, so the
// network is deadlock-free at the price of doubling the router buffers —
// the cost §2 of the paper objects to.
func RingDateline(r *topology.Ring) *Tables {
	idx := make(map[topology.DeviceID]int, len(r.Routers))
	for i, rt := range r.Routers {
		idx[rt] = i
	}
	t := Build(r.Network, "ring-dateline", func(router topology.DeviceID, dst int) int {
		w := idx[router]
		d := r.RouterOfNode(dst)
		if w == d {
			return r.NodePort(dst)
		}
		return topology.RingPortCW
	})
	return t.WithVCs(2, func(router topology.DeviceID, dst int) int {
		w := idx[router]
		d := r.RouterOfNode(dst)
		// Still upstream of the dateline: the route has yet to wrap iff the
		// destination lies clockwise beyond it (w > d means the wrap link
		// is still ahead). After the wrap, w <= d.
		if w > d {
			return 0
		}
		return 1
	})
}

// TorusDateline routes a 2-D torus dimension-order (X rings first, then Y
// rings), each unidirectional ring carrying the dateline discipline on two
// virtual channels. Wrap links are crossed exactly when the destination
// coordinate is behind the current one.
func TorusDateline(m *topology.Mesh) *Tables {
	if !m.Wrap {
		panic("routing: TorusDateline needs a torus")
	}
	t := Build(m.Network, "torus-dateline", func(router topology.DeviceID, dst int) int {
		x, y := m.Coord(router)
		dx, dy := m.NodeCoord(dst)
		if x != dx {
			return topology.MeshPortXPlus
		}
		if y != dy {
			return topology.MeshPortYPlus
		}
		return m.NodePort(dst)
	})
	return t.WithVCs(2, func(router topology.DeviceID, dst int) int {
		x, y := m.Coord(router)
		dx, dy := m.NodeCoord(dst)
		if x != dx {
			if x > dx {
				return 0 // wrap in X still ahead
			}
			return 1
		}
		if y > dy {
			return 0
		}
		return 1
	})
}
