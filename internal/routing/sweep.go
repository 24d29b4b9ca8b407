package routing

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/topology"
)

// PairSweep is the outcome of routing every ordered node pair through the
// tables exactly once: each pair's router-hop count or failure reason, and
// the dependency structure the successful routes induce. Because every
// dependency between consecutive channels is a turn at the router joining
// them, that structure is kept as one dense bitmap per router, indexed by
// (in port, in VC, out port, out VC); with a single VC that is the
// in*ports+out turn bitmap itself. The used turns (§2.4's path-disable
// configuration) and the channel dependency graph are both read from it.
//
// A PairSweep is shared by every caller that sweeps the same table state
// (see Tables.Sweep), so it is read-only: callers must not modify it,
// Failures included.
type PairSweep struct {
	tables *Tables
	n      int
	numVC  int
	hops   []int32 // [dst*n+src]: router hops; -1 when the pair fails and on the diagonal

	// Failures lists every pair that does not route, in (dst, src) order.
	Failures []PairFailure

	turnBase []int // per device: first bit of its dependency block; -1 for end nodes
	stride   []int // per device: ports × VCs, the row length of its block
	inRow    []int // per channel: the bit row of its (entry port, VC 0) in the entered device's block
	outCol   []int // per channel: its (exit port, VC 0) column in the block of the device it leaves
	bits     []uint64
}

// PairFailure is one ordered node pair the tables cannot route.
type PairFailure struct {
	Src, Dst int
	Reason   string
}

// walk statuses in the per-destination memo.
const (
	swUnknown = iota
	swOK
	swBad
)

// Sweep routes all ordered pairs through the tables. Route failures
// (holes, out-of-range or unwired ports, loops) are collected, not fatal:
// the fabric verifier's fault enumeration and fuzzed-table checks must keep
// going to count the damage. Callers that need every route to exist check
// Err.
//
// The result is memoized on the tables: every later call returns the same
// read-only *PairSweep until a table write (SetOutPort, WithVCs) drops it.
// Concurrent callers are safe and share one sweep.
func (t *Tables) Sweep() *PairSweep {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.memo == nil {
		t.memo = t.sweep()
	}
	return t.memo
}

// wiring is the network's port and channel structure as flat arrays, the
// form the sweep's inner walk reads.
type wiring struct {
	portBase []int32              // per device, plus one: the device's first slot in portCh
	portCh   []topology.ChannelID // per (device, port) slot: the channel leaving it; -1 unwired
	dstDev   []topology.DeviceID  // per channel: the device it enters
}

func newWiring(net *topology.Network) *wiring {
	nd, nc := net.NumDevices(), net.NumChannels()
	w := &wiring{portBase: make([]int32, nd+1), dstDev: make([]topology.DeviceID, nc)}
	for i, d := range net.Devices() {
		w.portBase[i+1] = w.portBase[i] + int32(d.Ports)
	}
	w.portCh = make([]topology.ChannelID, w.portBase[nd])
	for i := range w.portCh {
		w.portCh[i] = -1
	}
	for c := range nc {
		src := net.ChannelSrc(topology.ChannelID(c))
		w.portCh[w.portBase[src.Device]+int32(src.Port)] = topology.ChannelID(c)
		w.dstDev[c] = net.ChannelDst(topology.ChannelID(c)).Device
	}
	return w
}

// step is Next at router dev, reading the entry from dst's column through
// the wiring arrays. A hole, an escaped, out-of-range or unwired port goes
// to Next itself, which gives the verdict and its error text.
func (t *Tables) step(w *wiring, dev topology.DeviceID, dst int, col []byte) (topology.ChannelID, int, error) {
	if b := col[t.rix[dev]]; b != 0 && b != escByte {
		if slot := w.portBase[dev] + int32(b) - 1; slot < w.portBase[dev+1] {
			if ch := w.portCh[slot]; ch >= 0 {
				if t.vc == nil {
					return ch, 0, nil
				}
				return ch, t.vcAt(dev, dst), nil
			}
		}
	}
	return t.Next(dev, dst)
}

// sweep is Sweep without the memo.
//
// Destination-indexed routing means the step taken at a device depends on
// (device, destination) only, so the sweep walks each destination's
// in-tree once with memoization: a walk stops at the first device whose
// verdict toward the destination is already known and inherits it. That
// turns the all-pairs cost from O(N² · path) into O(N² + N · routers).
// Pairs are visited in ascending (dst, src) order, so every derived
// field, including the order of Failures, is deterministic.
func (t *Tables) sweep() *PairSweep {
	net := t.Net
	v := t.NumVC()
	n := net.NumNodes()
	nd := net.NumDevices()
	w := newWiring(net)

	sw := &PairSweep{
		tables:   t,
		n:        n,
		numVC:    v,
		hops:     make([]int32, n*n),
		turnBase: make([]int, nd),
		stride:   make([]int, nd),
	}
	for i := range sw.hops {
		sw.hops[i] = -1
	}
	nbits := 0
	for _, d := range net.Devices() {
		sw.turnBase[d.ID] = -1
		if d.Kind == topology.Router {
			sw.turnBase[d.ID] = nbits
			sw.stride[d.ID] = d.Ports * v
			nbits += sw.stride[d.ID] * sw.stride[d.ID]
		}
	}
	sw.bits = make([]uint64, (nbits+63)/64)
	sw.inRow = make([]int, net.NumChannels())
	sw.outCol = make([]int, net.NumChannels())
	for c := range sw.inRow {
		at := net.ChannelDst(topology.ChannelID(c))
		sw.inRow[c] = sw.turnBase[at.Device] + at.Port*v*sw.stride[at.Device]
		sw.outCol[c] = net.ChannelSrc(topology.ChannelID(c)).Port * v
	}

	// Per-destination memo, invalidated by stamping (stamp == dst+1) so no
	// per-destination clearing pass is needed.
	stamp := make([]int, nd)
	status := make([]uint8, nd)
	hops := make([]int32, nd)                // router hops from the device to dst
	outCh := make([]topology.ChannelID, nd)  // channel the device forwards on
	outVC := make([]int, nd)                 // and its virtual channel
	failDev := make([]topology.DeviceID, nd) // device originating the failure
	why := make([]string, nd)                // reason, set on the originating device

	seen := make([]int, nd) // walk counter, for on-path loop detection
	walkID := 0
	path := make([]topology.DeviceID, 0, nd)

	// walk explores from router r until it reaches a memoized device, a
	// routing failure, or a loop, then seals the verdict onto every device
	// it visited. On success it also marks the newly discovered
	// dependencies: each device's out-channel is recorded once per
	// destination, in the walk that first reaches it.
	walk := func(r topology.DeviceID, dst, ds int, col []byte) {
		walkID++
		path = path[:0]
		cur := r
		loopAt := -1
		for stamp[cur] != ds {
			if seen[cur] == walkID {
				loopAt = slices.Index(path, cur)
				break
			}
			seen[cur] = walkID
			path = append(path, cur)
			var sealWhy string
			if t.rix[cur] < 0 {
				// A walk only ever enters a node by mis-routing: the
				// destination node is pre-memoized and sources inject
				// outside walk.
				sealWhy = fmt.Sprintf("walk enters foreign end node %s", net.Device(cur).Name)
			} else if ch, vc, err := t.step(w, cur, dst, col); err != nil {
				sealWhy = err.Error()
			} else {
				outCh[cur], outVC[cur] = ch, vc
				cur = w.dstDev[ch]
				continue
			}
			stamp[cur] = ds
			status[cur] = swBad
			failDev[cur] = cur
			why[cur] = sealWhy
			path = path[:len(path)-1]
			break
		}
		if loopAt >= 0 {
			// Every device from the loop entry onward fails at the loop.
			entry := path[loopAt]
			why[entry] = fmt.Sprintf("routing loop through %s", net.Device(entry).Name)
			for _, d := range path[loopAt:] {
				stamp[d] = ds
				status[d] = swBad
				failDev[d] = entry
			}
			cur = entry
			path = path[:loopAt]
		}
		// cur is now sealed; unwind the explored prefix against its verdict.
		bst, bfail := status[cur], failDev[cur]
		h := hops[cur]
		for i := len(path) - 1; i >= 0; i-- {
			d := path[i]
			stamp[d] = ds
			status[d] = bst
			if bst == swBad {
				failDev[d] = bfail
				continue
			}
			h++ // every unsealed path device on an OK walk is a router
			hops[d] = h
		}
		if bst != swOK {
			return
		}
		// The newly sealed segment's dependencies: consecutive path
		// devices, plus the junction into the memoized base (whose own
		// downstream dependencies were marked when it was first sealed).
		for i := 1; i < len(path); i++ {
			p := path[i-1]
			sw.mark(path[i], outCh[p], outVC[p], outCh[path[i]], outVC[path[i]])
		}
		if len(path) > 0 && t.rix[cur] >= 0 {
			last := path[len(path)-1]
			sw.mark(cur, outCh[last], outVC[last], outCh[cur], outVC[cur])
		}
	}

	// injOut holds, per source, the (channel, VC) out of its first router
	// whose injection turn it marked last. Successive destinations mostly
	// leave a router the same way, and a turn is marked once.
	injOut := make([]int, n)
	for i := range injOut {
		injOut[i] = -1
	}
	for dst := 0; dst < n; dst++ {
		ds := dst + 1
		col := t.cols[dst*len(t.routers) : (dst+1)*len(t.routers)]
		dstDev := net.NodeByIndex(dst)
		stamp[dstDev] = ds
		status[dstDev] = swOK
		hops[dstDev] = 0

		for s, src := range net.Nodes() {
			if s == dst {
				continue
			}
			// Injection: sources always take their single port, on VC 0;
			// a node's verdict as a walk victim (mis-routed into) differs
			// from its verdict as a source, so sources are never memo-read.
			ch := w.portCh[w.portBase[src]]
			if ch < 0 {
				_, _, err := t.Next(src, dst)
				sw.Failures = append(sw.Failures, PairFailure{s, dst, err.Error()})
				continue
			}
			r0 := w.dstDev[ch]
			if stamp[r0] != ds {
				walk(r0, dst, ds, col)
			}
			if status[r0] == swBad {
				sw.Failures = append(sw.Failures, PairFailure{s, dst, why[failDev[r0]]})
				continue
			}
			sw.hops[dst*n+s] = hops[r0]
			if out := int(outCh[r0])*v + outVC[r0]; r0 != dstDev && out != injOut[s] {
				// The injection dependency at the first router; the rest of
				// the path was marked when the walk sealed it.
				sw.mark(r0, ch, 0, outCh[r0], outVC[r0])
				injOut[s] = out
			}
		}
	}
	return sw
}

// mark records the dependency inCh(inVC) -> outCh(outVC) at router dev.
func (sw *PairSweep) mark(dev topology.DeviceID, inCh topology.ChannelID, inVC int, outCh topology.ChannelID, outVC int) {
	i := sw.inRow[inCh] + inVC*sw.stride[dev] + sw.outCol[outCh] + outVC
	sw.bits[i/64] |= 1 << (i % 64)
}

func (sw *PairSweep) bit(i int) bool { return sw.bits[i/64]&(1<<(i%64)) != 0 }

// Err reports whether every pair routed. When one did not, it returns the
// error of the source-major route walk (exactly what Tables.Verify
// returns), so callers that require full reachability fail the same way
// whichever analysis ran first; that walk runs only on this error path.
func (sw *PairSweep) Err() error {
	if len(sw.Failures) == 0 {
		return nil
	}
	if err := sw.tables.Verify(); err != nil {
		return err
	}
	f := sw.Failures[0] // unreachable: the sweep and Route agree on failures
	return fmt.Errorf("routing[%s]: %d -> %d: %s", sw.tables.Algorithm, f.Src, f.Dst, f.Reason)
}

// Tables returns the tables the sweep routed.
func (sw *PairSweep) Tables() *Tables { return sw.tables }

// Pairs reports the number of ordered node pairs swept.
func (sw *PairSweep) Pairs() int { return sw.n * (sw.n - 1) }

// Reached reports the number of pairs that route end to end.
func (sw *PairSweep) Reached() int { return sw.Pairs() - len(sw.Failures) }

// Hops returns the router hops of the route from node src to node dst
// (Route.RouterHops), or -1 when the pair does not route.
func (sw *PairSweep) Hops(src, dst int) int { return int(sw.hops[dst*sw.n+src]) }

// MaxHops returns the largest router-hop count over the routed pairs and
// the first pair, in (dst, src) order, that takes it. src and dst are 0
// when no pair takes a router hop.
func (sw *PairSweep) MaxHops() (hops, src, dst int) {
	for i, h := range sw.hops {
		if int(h) > hops {
			hops, src, dst = int(h), i%sw.n, i/sw.n
		}
	}
	return hops, src, dst
}

// TurnUsed reports whether some route turns from port in to port out at
// router dev (on any virtual channels). The turns no route uses are §2.4's
// path-disable set.
func (sw *PairSweep) TurnUsed(dev topology.DeviceID, in, out int) bool {
	v := sw.numVC
	base, stride := sw.turnBase[dev], sw.stride[dev]
	for vi := 0; vi < v; vi++ {
		for vo := 0; vo < v; vo++ {
			if sw.bit(base + (in*v+vi)*stride + out*v + vo) {
				return true
			}
		}
	}
	return false
}

// NumTurns reports the number of distinct (router, in port, out port)
// turns the routes use.
func (sw *PairSweep) NumTurns() int {
	n := 0
	for _, d := range sw.tables.Net.Devices() {
		if d.Kind != topology.Router {
			continue
		}
		for in := 0; in < d.Ports; in++ {
			for out := 0; out < d.Ports; out++ {
				if sw.TurnUsed(d.ID, in, out) {
					n++
				}
			}
		}
	}
	return n
}

// Deps returns the distinct channel dependencies of the routed pairs as
// (from, to) edges over (channel, VC) vertices (vertex = channel*NumVC +
// vc), sorted ascending so a graph built from them, and any cycle taken
// from it, is reproducible. Each (in-channel, VC) vertex is one row of the
// bitmap of the router the channel enters, so walking in-channels in
// ascending order emits the edges grouped by ascending from, and only each
// short row needs sorting.
func (sw *PairSweep) Deps() [][2]int {
	net := sw.tables.Net
	v := sw.numVC
	n := 0
	for _, w := range sw.bits {
		n += bits.OnesCount64(w)
	}
	deps := make([][2]int, 0, n)
	for in := 0; in < net.NumChannels(); in++ {
		at := net.ChannelDst(topology.ChannelID(in))
		base, stride := sw.turnBase[at.Device], sw.stride[at.Device]
		if base < 0 {
			continue // ejection into an end node: no turn follows
		}
		for vi := 0; vi < v; vi++ {
			row, start := base+(at.Port*v+vi)*stride, len(deps)
			for col := 0; col < stride; col++ {
				if sw.bit(row + col) {
					outCh, _ := net.ChannelFromPort(at.Device, col/v)
					deps = append(deps, [2]int{in*v + vi, int(outCh)*v + col%v})
				}
			}
			slices.SortFunc(deps[start:], CompareEdges)
		}
	}
	return deps
}

// CompareEdges orders (from, to) edges by from, then to.
func CompareEdges(a, b [2]int) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
}

// CDG returns the channel dependency graph over (channel, VC) vertices,
// with Deps inserted in order so the graph, and any cycle taken from it,
// is reproducible.
func (sw *PairSweep) CDG() *graph.Digraph {
	g := graph.NewDigraph(sw.tables.Net.NumChannels() * sw.numVC)
	for _, e := range sw.Deps() {
		g.AddEdge(e[0], e[1])
	}
	return g
}
