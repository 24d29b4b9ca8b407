package sim

// Dense simulator state. The per-cycle hot path never touches a map: every
// lookup the old implementation answered with map-of-slices buffers,
// map-keyed ownership/arbitration, and whole-network scans is answered here
// by a slice indexed with the buffer key (channel*VirtualChannels + vc), a
// precomputed per-channel table, or a per-packet counter maintained
// incrementally as flits move. See EXPERIMENTS.md "Simulator internals &
// performance" for the design.

import (
	"fmt"
	"slices"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Simulator runs one workload over one network. Create with New, add
// packets, then Run.
type Simulator struct {
	net *topology.Network
	dis *router.Disables
	cfg Config

	packets []*packet
	queues  [][]*packet // per source node address, FIFO injection order
	seqs    map[[2]int]int

	depth int // cfg.FIFODepth, hoisted

	// Per-channel lookup tables, indexed by ChannelID.
	chDstIsNode []bool            // channel ends at an end node (ejection)
	chSrcPort   []int32           // upstream output port number driving the channel
	chLink      []topology.LinkID // physical link the channel belongs to
	chAllowed   [][]bool          // disable row for (dst router, dst port); nil for ejection channels
	chOutPort   []int32           // global (device, port)-ordered index of the source port

	// Flat ring-buffer FIFOs: buffer key k occupies bufFlits[k*depth :
	// (k+1)*depth], with bufHead/bufLen tracking the ring window. space()
	// guarantees occupancy never exceeds depth.
	bufFlits []flit
	bufHead  []int32
	bufLen   []int32

	inflight []int32 // wire occupancy per destination buffer key
	owner    []int32 // owning packet id per output-VC buffer key; -1 when free
	// deadCount holds, per LinkID, the number of currently-active failures
	// on the link. A counter rather than a bool so overlapping flap windows
	// compose: a link is down while any failure covers it, and event order
	// within one cycle cannot matter.
	deadCount []int32
	busyCh    []int // flit crossings per channel

	// Non-empty input buffers, one bit per buffer key. Scanning the words
	// in order with bits.TrailingZeros64 visits candidates in ascending key
	// order, the order the round-robin arbiter state depends on, with no
	// sort.
	activeBits    []uint64
	totalBuffered int

	// Wake-on-change scan. A waiter is a buffer key's head flit (waiter id
	// = key) or a source node's queue front (id = srcBase + node). A head
	// or front that fails its space or ownership check parks on the buffer
	// key it needs: its bit in parked is set and it joins that key's
	// intrusive wait list. planMoves skips parked waiters, and every event
	// that could let one move clears its bit again (see the callers of
	// wake, unpark and wakeAll). A parked key is always non-empty, and
	// appending to a queue never unblocks its front, so neither bufPush
	// nor AddPacket touches this state.
	parked   []uint64
	srcBase  int     // first source waiter id: the number of buffer keys
	waitHead []int32 // per buffer key: first waiter parked on it, -1 when none
	waitNext []int32 // per waiter: next waiter on the same list, -1 at the end
	waitOn   []int32 // per waiter: the key it is parked on, -1 when not parked

	// pend is a circular FIFO of flits propagating on wires. Every wire
	// has the same delay (LinkLatency), so landing order equals push order
	// and arrivals pop off the front.
	pend     []pendingFlit
	pendHead int
	pendLen  int

	outstanding int

	// events is the unified fault timeline: one +1 entry per link failure
	// and one -1 entry per scheduled repair, sorted by cycle. The step loop
	// walks evCursor over it; deadCount aggregates the deltas. faultRev
	// increments whenever a link's up/down state actually flips, so an
	// external recovery controller can cheaply detect "the dead-set
	// changed since I last reconfigured".
	events   []linkEvent
	evCursor int
	faultRev int

	// corruptThreshold, when non-zero, enables probabilistic flit
	// corruption: each flit-channel crossing is killed when a hash of
	// (corruptSeed, packet id, retry attempt, flit index, hop) falls below
	// the threshold. Hash-based rather than a stream RNG so the decision
	// for a given crossing is independent of event interleaving — the
	// determinism contract extends to chaos runs.
	corruptThreshold uint64
	corruptSeed      uint64

	rs *runState // nil until Start; carries accumulators across Step calls

	activePkts []*packet // timeout bookkeeping: injected, not yet resolved
	dirty      []*packet // dropped packets whose flits are not fully reaped

	// Per-output-port arbitration scratch, reused every cycle (see
	// arbiter.go). arbBits holds one bit per global output port, set while
	// the port has requests this cycle.
	arb     []arbPort
	arbLast []int32
	arbBits []uint64

	moves []move // planMoves scratch, reused every cycle

	// Due-cycle sources. A source whose queue front may inject (its
	// InjectCycle has come) has its bit, by node address, in due; one
	// whose front is not yet due waits on srcHeap until planMoves moves it
	// into due, and the fast-forward reads the heap's minimum; an empty
	// source is in neither. Only a new front changes this, so arm files a
	// source again at exactly the sites that give it one: its front
	// finished injecting, a reap cut its front, or a retry or AddPacket
	// filled its empty queue.
	due     []uint64
	srcHeap []srcWait

	// hook, when set, runs after a packet's tail flit is delivered. It may
	// call AddPacket to inject follow-up traffic (acknowledgments, read
	// responses, interrupts) — the mechanism the ServerNet transaction
	// layer in internal/servernet builds on.
	hook func(spec PacketSpec, now int)
	// dropHook, when set, runs after a packet is discarded (disable
	// violation, fault, or retry exhaustion). It may call AddPacket to
	// re-issue the transfer — e.g. over the other fabric of a dual
	// configuration.
	dropHook func(spec PacketSpec, now int)
}

// OnDelivered installs a delivery hook invoked after each packet's tail
// arrives; the hook may schedule new packets with AddPacket (their
// InjectCycle must not be in the past).
func (s *Simulator) OnDelivered(hook func(spec PacketSpec, now int)) { s.hook = hook }

// OnDropped installs a hook invoked after a packet is permanently discarded
// (path-disable violation, link fault, or retry exhaustion); it may
// re-issue the transfer with AddPacket, e.g. over a standby fabric.
func (s *Simulator) OnDropped(hook func(spec PacketSpec, now int)) { s.dropHook = hook }

// srcWait is a source whose queue front is not yet due, on the min-heap
// ordered by (cycle, src): the front's InjectCycle, then node address.
type srcWait struct{ cycle, src int }

func (a srcWait) less(b srcWait) bool {
	return a.cycle < b.cycle || a.cycle == b.cycle && a.src < b.src
}

// arm files source src by its queue front at cycle now: due when the
// front's InjectCycle has come, on the heap when it has not, in neither
// when the queue is empty. The source must be on no heap entry, which
// holds at every caller: its front just changed or its queue was empty.
func (s *Simulator) arm(src, now int) {
	q := s.queues[src]
	if len(q) == 0 || q[0].spec.InjectCycle > now {
		s.due[src>>6] &^= 1 << (src & 63)
		if len(q) > 0 {
			s.pushWait(srcWait{cycle: q[0].spec.InjectCycle, src: src})
		}
		return
	}
	s.due[src>>6] |= 1 << (src & 63)
}

func (s *Simulator) pushWait(w srcWait) {
	h := append(s.srcHeap, w)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.srcHeap = h
}

// popWait removes the heap's minimum and returns its source.
func (s *Simulator) popWait() int {
	h := s.srcHeap
	src := h[0].src
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		min, l := i, 2*i+1
		if l < last && h[l].less(h[min]) {
			min = l
		}
		if r := l + 1; r < last && h[r].less(h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	s.srcHeap = h
	return src
}

// linkEvent is one edge of the fault timeline: delta +1 downs the link at
// cycle, delta -1 repairs one prior failure. deadCount sums the deltas, so
// overlapping flap windows compose and same-cycle ordering cannot matter.
type linkEvent struct {
	cycle int
	link  topology.LinkID
	delta int8
}

// insertEvent keeps the timeline sorted by cycle (insertion after equal
// cycles, preserving schedule order) so the step loop advances a cursor
// instead of rescanning the list every cycle.
func (s *Simulator) insertEvent(e linkEvent) {
	i := len(s.events)
	for i > 0 && s.events[i-1].cycle > e.cycle {
		i--
	}
	s.events = append(s.events, linkEvent{})
	copy(s.events[i+1:], s.events[i:])
	s.events[i] = e
}

// ScheduleFault arranges for a link to fail at the given cycle. The cycle
// must lie inside the simulation horizon [0, MaxCycles) and the link must
// exist: out-of-range faults used to be accepted silently and then never
// fire, which made fault-injection experiments impossible to misconfigure
// loudly. A non-zero RepairCycle (strictly after Cycle, inside the horizon)
// makes the fault transient: the link flaps down at Cycle and carries
// traffic again from RepairCycle on. Faults are kept sorted by cycle so the
// run advances a cursor instead of rescanning the list every cycle; a fault
// scheduled mid-run for a cycle that already elapsed never fires (as
// before).
func (s *Simulator) ScheduleFault(f LinkFault) error {
	if f.Cycle < 0 || f.Cycle >= s.cfg.MaxCycles {
		return fmt.Errorf("sim: fault cycle %d outside the simulation horizon [0, %d)",
			f.Cycle, s.cfg.MaxCycles)
	}
	if f.Link < 0 || int(f.Link) >= s.net.NumLinks() {
		return fmt.Errorf("sim: fault link %d out of range (network has %d links)",
			f.Link, s.net.NumLinks())
	}
	if f.RepairCycle != 0 {
		if f.RepairCycle <= f.Cycle {
			return fmt.Errorf("sim: repair cycle %d does not follow fault cycle %d",
				f.RepairCycle, f.Cycle)
		}
		if f.RepairCycle >= s.cfg.MaxCycles {
			return fmt.Errorf("sim: repair cycle %d outside the simulation horizon [0, %d)",
				f.RepairCycle, s.cfg.MaxCycles)
		}
	}
	s.insertEvent(linkEvent{cycle: f.Cycle, link: f.Link, delta: +1})
	if f.RepairCycle != 0 {
		s.insertEvent(linkEvent{cycle: f.RepairCycle, link: f.Link, delta: -1})
	}
	return nil
}

// ScheduleRouterFault downs every link attached to the router at the given
// cycle, atomically and permanently — the whole-router failure mode §1's
// dual-fabric architecture exists to survive. Validation mirrors
// ScheduleFault: the cycle must lie inside the horizon and the device must
// be a router (killing an end node would just strand its own traffic).
func (s *Simulator) ScheduleRouterFault(dev topology.DeviceID, cycle int) error {
	if cycle < 0 || cycle >= s.cfg.MaxCycles {
		return fmt.Errorf("sim: fault cycle %d outside the simulation horizon [0, %d)",
			cycle, s.cfg.MaxCycles)
	}
	if int(dev) < 0 || int(dev) >= s.net.NumDevices() {
		return fmt.Errorf("sim: fault device %d out of range (network has %d devices)",
			dev, s.net.NumDevices())
	}
	d := s.net.Device(dev)
	if d.Kind != topology.Router {
		return fmt.Errorf("sim: fault device %d (%s) is not a router", dev, d.Name)
	}
	for port := 0; port < d.Ports; port++ {
		if l, ok := s.net.LinkAt(dev, port); ok {
			s.insertEvent(linkEvent{cycle: cycle, link: l, delta: +1})
		}
	}
	return nil
}

// EnableCorruption turns on probabilistic flit corruption: every
// flit-channel crossing is independently killed with the given probability,
// decided by a hash keyed on the seed and the crossing's identity (packet,
// retry attempt, flit, hop). Corrupted worms die exactly like fault-killed
// ones — body flits are reaped, the drop surfaces through OnDropped — so a
// retry layer above the simulator sees a CRC-style transmission error.
func (s *Simulator) EnableCorruption(rate float64, seed uint64) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("sim: corruption rate %v outside [0, 1]", rate)
	}
	switch {
	case rate == 0:
		s.corruptThreshold = 0
	case rate == 1:
		s.corruptThreshold = ^uint64(0)
	default:
		s.corruptThreshold = uint64(rate * float64(1<<32) * float64(1<<32))
	}
	s.corruptSeed = seed
	return nil
}

// mix64 is the SplitMix64 finalizer — the same bijective mixer
// internal/runner seeds workers with.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// corrupted decides whether one flit-channel crossing is killed. Pure in
// (seed, id, retries, idx, hop): re-running the same schedule reproduces
// the same corruption pattern regardless of what else the run interleaves.
func (s *Simulator) corrupted(id, retries, idx, hop int) bool {
	h := mix64(s.corruptSeed + 0x9E3779B97F4A7C15*uint64(id+1))
	h = mix64(h ^ uint64(retries)<<42 ^ uint64(idx)<<21 ^ uint64(hop))
	return h < s.corruptThreshold
}

// SetDisables hot-swaps the path-disable matrix, e.g. after an external
// recovery controller recomputes routing for a degraded topology. It is
// the only way to change disables mid-run. Safe between cycles: the
// per-channel rows are re-aliased in place, every parked head is woken,
// and from the next planMoves every header decision consults the new
// matrix (worms already holding outputs keep them — §2.4's argument covers
// old-route traffic as long as the new enabled-turn set is acyclic).
func (s *Simulator) SetDisables(dis *router.Disables) {
	s.dis = dis
	for c := 0; c < s.net.NumChannels(); c++ {
		if !s.chDstIsNode[c] {
			dst := s.net.ChannelDst(topology.ChannelID(c))
			s.chAllowed[c] = dis.Row(dst.Device, dst.Port)
		}
	}
	s.wakeAll()
}

// FaultRevision counts up/down state flips applied so far: it changes
// exactly when the set of dead links changes. A recovery controller
// snapshots it to detect new damage (or repairs) without diffing link
// states.
func (s *Simulator) FaultRevision() int { return s.faultRev }

// DeadLinks returns the currently-failed links in ascending order.
func (s *Simulator) DeadLinks() []topology.LinkID {
	var out []topology.LinkID
	for l, n := range s.deadCount {
		if n > 0 {
			out = append(out, topology.LinkID(l))
		}
	}
	return out
}

// New creates a simulator over a network with the given disable matrix
// (use router.AllowAll for an unrestricted crossbar). The matrix must not
// change while the simulator runs: parked headers would not see the
// change. Use SetDisables to swap in a new one mid-run.
func New(net *topology.Network, dis *router.Disables, cfg Config) *Simulator {
	cfg = cfg.withDefaults()
	numCh := net.NumChannels()
	numKeys := numCh * cfg.VirtualChannels
	waiters := numKeys + net.NumNodes()
	s := &Simulator{
		net:         net,
		dis:         dis,
		cfg:         cfg,
		depth:       cfg.FIFODepth,
		queues:      make([][]*packet, net.NumNodes()),
		seqs:        make(map[[2]int]int),
		chDstIsNode: make([]bool, numCh),
		chSrcPort:   make([]int32, numCh),
		chLink:      make([]topology.LinkID, numCh),
		chAllowed:   make([][]bool, numCh),
		chOutPort:   make([]int32, numCh),
		bufFlits:    make([]flit, numKeys*cfg.FIFODepth),
		bufHead:     make([]int32, numKeys),
		bufLen:      make([]int32, numKeys),
		inflight:    make([]int32, numKeys),
		owner:       make([]int32, numKeys),
		deadCount:   make([]int32, net.NumLinks()),
		busyCh:      make([]int, numCh),
		due:         make([]uint64, (net.NumNodes()+63)/64),
		activeBits:  make([]uint64, (numKeys+63)/64),
		parked:      make([]uint64, (waiters+63)/64),
		srcBase:     numKeys,
		waitHead:    make([]int32, numKeys),
		waitNext:    make([]int32, waiters),
		waitOn:      make([]int32, waiters),
	}
	for i := range s.owner {
		s.owner[i] = -1
	}
	for i := range s.waitHead {
		s.waitHead[i] = -1
	}
	for i := range s.waitOn {
		s.waitOn[i] = -1
	}
	// Global output-port index: ports numbered by (device, port) ascending.
	// Granted ports visited in this index order reproduce the old
	// sorted-physKey grant emission order exactly.
	ports := 0
	portBase := make([]int32, net.NumDevices())
	for _, d := range net.Devices() {
		portBase[d.ID] = int32(ports)
		ports += d.Ports
	}
	s.arb = make([]arbPort, ports)
	s.arbLast = make([]int32, ports)
	s.arbBits = make([]uint64, (ports+63)/64)
	for c := 0; c < numCh; c++ {
		ch := topology.ChannelID(c)
		src, dst := net.ChannelSrc(ch), net.ChannelDst(ch)
		s.chSrcPort[c] = int32(src.Port)
		s.chLink[c] = net.ChannelLink(ch)
		s.chOutPort[c] = portBase[src.Device] + int32(src.Port)
		if net.Device(dst.Device).Kind == topology.Node {
			s.chDstIsNode[c] = true
		} else {
			s.chAllowed[c] = dis.Row(dst.Device, dst.Port)
		}
	}
	return s
}

func (s *Simulator) bufKey(ch topology.ChannelID, vc int) int {
	return int(ch)*s.cfg.VirtualChannels + vc
}

// AddPacket schedules a packet with an explicit route. Using routes rather
// than live table lookups lets experiments inject per-packet path choices
// (the in-order ablation) and corrupted-table routes. The route may take any
// turn, but it must be a walk from the source to the destination: it starts
// on the source's injection channel, each channel leaves the router the
// previous one entered, and only its last channel, the ejection channel into
// the destination, reaches an end node.
func (s *Simulator) AddPacket(spec PacketSpec, route routing.Route) error {
	if err := s.checkPacket(spec, route); err != nil {
		return err
	}
	s.enqueue(&packet{
		spec:  spec,
		route: route.Channels,
		vcs:   route.VCs,
		// A worm claims at most one output VC per hop, so the step loop
		// never grows this list.
		owned: make([]int32, 0, len(route.Channels)),
	})
	return nil
}

// checkPacket reports why a packet cannot be scheduled on a route.
func (s *Simulator) checkPacket(spec PacketSpec, route routing.Route) error {
	if spec.Flits < 1 {
		return fmt.Errorf("sim: packet needs at least 1 flit, got %d", spec.Flits)
	}
	for _, a := range [2]int{spec.Src, spec.Dst} {
		if a < 0 || a >= len(s.queues) {
			return fmt.Errorf("sim: %d is not a node address (network has %d nodes)",
				a, len(s.queues))
		}
	}
	if route.Src != spec.Src || route.Dst != spec.Dst {
		return fmt.Errorf("sim: route %d->%d does not match spec %d->%d",
			route.Src, route.Dst, spec.Src, spec.Dst)
	}
	if err := s.checkWalk(spec, route.Channels); err != nil {
		return err
	}
	if route.VCs != nil && len(route.VCs) != len(route.Channels) {
		return fmt.Errorf("sim: route has %d VCs for %d channels",
			len(route.VCs), len(route.Channels))
	}
	for i := range route.Channels {
		if v := route.VCAt(i); v < 0 || v >= s.cfg.VirtualChannels {
			return fmt.Errorf("sim: route hop %d uses VC %d but the simulator has %d VCs",
				i, v, s.cfg.VirtualChannels)
		}
	}
	return nil
}

// enqueue numbers a checked packet and appends it to its source's queue,
// arming the source when the queue was empty.
func (s *Simulator) enqueue(p *packet) {
	pair := [2]int{p.spec.Src, p.spec.Dst}
	p.id = len(s.packets)
	p.seq = s.seqs[pair]
	s.seqs[pair]++
	s.packets = append(s.packets, p)
	q := s.queues[p.spec.Src]
	s.queues[p.spec.Src] = append(q, p)
	if len(q) == 0 {
		s.arm(p.spec.Src, s.Now())
	}
	s.outstanding++
}

// checkWalk reports why a channel sequence is not a walk from spec.Src's
// injection channel through routers to spec.Dst's ejection channel. The
// step loop indexes route[hop+1] until a flit lands on an end node, so a
// route that fails here would panic or deliver to the wrong node.
func (s *Simulator) checkWalk(spec PacketSpec, route []topology.ChannelID) error {
	if len(route) == 0 {
		return fmt.Errorf("sim: route %d->%d has no channels", spec.Src, spec.Dst)
	}
	for i, c := range route {
		if c < 0 || int(c) >= s.net.NumChannels() {
			return fmt.Errorf("sim: route hop %d is channel %d (network has %d channels)",
				i, c, s.net.NumChannels())
		}
	}
	if src := s.net.NodeByIndex(spec.Src); s.net.ChannelSrc(route[0]).Device != src {
		return fmt.Errorf("sim: route %d->%d starts on %s, not on node %d's injection channel",
			spec.Src, spec.Dst, s.net.ChannelString(route[0]), spec.Src)
	}
	for i, c := range route[:len(route)-1] {
		if s.chDstIsNode[c] {
			return fmt.Errorf("sim: route %d->%d hop %d (%s) ends at an end node before the last hop",
				spec.Src, spec.Dst, i, s.net.ChannelString(c))
		}
		if s.net.ChannelDst(c).Device != s.net.ChannelSrc(route[i+1]).Device {
			return fmt.Errorf("sim: route %d->%d is broken between hop %d (%s) and hop %d (%s)",
				spec.Src, spec.Dst, i, s.net.ChannelString(c), i+1, s.net.ChannelString(route[i+1]))
		}
	}
	last := route[len(route)-1]
	if dst := s.net.NodeByIndex(spec.Dst); s.net.ChannelDst(last).Device != dst {
		return fmt.Errorf("sim: route %d->%d ends on %s, not on node %d's ejection channel",
			spec.Src, spec.Dst, s.net.ChannelString(last), spec.Dst)
	}
	return nil
}

// AddBatch routes each spec through the tables and schedules it, with the
// result AddPacket would give spec by spec: on an error, the specs before
// the failing one stay scheduled. The batch is taken in bulk: one walk
// appends every route to a single channel arena (and VC arena), and the
// packets and their owned lists are carved from slabs sized from the
// batch, each carve's capacity cut at its length so no packet can append
// into its neighbour's memory. The arenas grow before a walk could run
// short, at least doubling, and never inside a walk, where append would
// grow them by about 1.25x at a time.
func (s *Simulator) AddBatch(t *routing.Tables, specs []PacketSpec) error {
	var chs []topology.ChannelID
	var vcs []int
	walk := t.Net.NumDevices() + 1 // the most channels one walk appends
	ends := make([]int, 0, len(specs))
	var routeErr error
	for _, spec := range specs {
		chs = arenaRoom(chs, walk)
		if vcs != nil {
			vcs = arenaRoom(vcs, walk)
		}
		if chs, vcs, routeErr = t.AppendRoute(chs, vcs, spec.Src, spec.Dst); routeErr != nil {
			break
		}
		ends = append(ends, len(chs))
	}
	specs = specs[:len(ends)]
	s.packets = slices.Grow(s.packets, len(specs))
	slab := make([]packet, len(specs))
	owned := make([]int32, len(chs))
	start := 0
	for i, spec := range specs {
		end := ends[i]
		r := routing.Route{Src: spec.Src, Dst: spec.Dst, Channels: chs[start:end:end]}
		if vcs != nil {
			r.VCs = vcs[start:end:end]
		}
		if err := s.checkPacket(spec, r); err != nil {
			return err
		}
		p := &slab[i]
		p.spec, p.route, p.vcs, p.owned = spec, r.Channels, r.VCs, owned[start:start:end]
		s.enqueue(p)
		start = end
	}
	return routeErr
}

// arenaRoom returns arena with room for n more elements, at least
// doubling its capacity when it has to grow.
func arenaRoom[E any](arena []E, n int) []E {
	if cap(arena)-len(arena) >= n {
		return arena
	}
	return slices.Grow(arena, max(cap(arena), n))
}

// bufPush appends a flit to a buffer's ring, activating the buffer on the
// 0 -> 1 transition and maintaining the owning packet's buffered-flit count.
func (s *Simulator) bufPush(key int, f flit) {
	i := int(s.bufHead[key]) + int(s.bufLen[key])
	if i >= s.depth {
		i -= s.depth
	}
	s.bufFlits[key*s.depth+i] = f
	if s.bufLen[key] == 0 {
		s.activeBits[key>>6] |= 1 << (key & 63)
	}
	s.bufLen[key]++
	s.totalBuffered++
	f.pkt.flitsBuf++
}

// bufPop removes a buffer's head flit, deactivating the buffer on the
// 1 -> 0 transition. The caller wakes the waiters parked on the space it
// freed, and unparks the buffer first if its head was parked.
func (s *Simulator) bufPop(key int) flit {
	f := s.bufFlits[key*s.depth+int(s.bufHead[key])]
	h := s.bufHead[key] + 1
	if int(h) == s.depth {
		h = 0
	}
	s.bufHead[key] = h
	s.bufLen[key]--
	if s.bufLen[key] == 0 {
		s.activeBits[key>>6] &^= 1 << (key & 63)
	}
	s.totalBuffered--
	f.pkt.flitsBuf--
	return f
}

// space reports whether one more flit may be committed toward a buffer:
// ejection channels always accept (the node consumes immediately); router
// buffers accept while resident plus in-flight flits stay under FIFODepth.
func (s *Simulator) space(key int) bool {
	if s.chDstIsNode[key/s.cfg.VirtualChannels] {
		return true
	}
	return int(s.bufLen[key])+int(s.inflight[key]) < s.depth
}

func (s *Simulator) pushPending(pf pendingFlit) {
	if s.pendLen == len(s.pend) {
		grown := make([]pendingFlit, max(64, 2*len(s.pend)))
		n := copy(grown, s.pend[s.pendHead:])
		copy(grown[n:], s.pend[:s.pendHead])
		s.pend = grown
		s.pendHead = 0
	}
	i := s.pendHead + s.pendLen
	if i >= len(s.pend) {
		i -= len(s.pend)
	}
	s.pend[i] = pf
	s.pendLen++
}

func (s *Simulator) popPending() pendingFlit {
	pf := s.pend[s.pendHead]
	s.pendHead++
	if s.pendHead == len(s.pend) {
		s.pendHead = 0
	}
	s.pendLen--
	return pf
}

// release frees the given output-VC buffer key if the worm holds it.
func (s *Simulator) release(p *packet, out int32) {
	for i, k := range p.owned {
		if k == out {
			s.owner[out] = -1
			p.owned = append(p.owned[:i], p.owned[i+1:]...)
			s.wake(int(out))
			return
		}
	}
}

// park takes waiter w out of the scan and puts it at the front of key's
// wait list. Only a waiter in the scan parks, so w is on no list.
func (s *Simulator) park(w, key int) {
	s.parked[w>>6] |= 1 << (w & 63)
	s.waitOn[w] = int32(key)
	s.waitNext[w] = s.waitHead[key]
	s.waitHead[key] = int32(w)
}

// unpark returns waiter w to the scan if it is parked, unlinking it from
// its list: its own head flit or queue front is about to change. Only a
// reap does that to a parked waiter, so walking the list is cheap enough.
func (s *Simulator) unpark(w int) {
	on := s.waitOn[w]
	if on < 0 {
		return
	}
	s.parked[w>>6] &^= 1 << (w & 63)
	s.waitOn[w] = -1
	link := &s.waitHead[on]
	for *link != int32(w) {
		link = &s.waitNext[*link]
	}
	*link = s.waitNext[w]
}

// wake returns every waiter parked on key to the scan: the key gained
// space or its output VC was freed.
func (s *Simulator) wake(key int) {
	for w := s.waitHead[key]; w >= 0; w = s.waitNext[w] {
		s.parked[w>>6] &^= 1 << (w & 63)
		s.waitOn[w] = -1
	}
	s.waitHead[key] = -1
}

// wakeAll returns every parked waiter to the scan. A link's state flip or
// a new disable matrix can turn any parked head's wait into a drop.
func (s *Simulator) wakeAll() {
	clear(s.parked)
	for w := range s.waitOn {
		s.waitOn[w] = -1
	}
	for k := range s.waitHead {
		s.waitHead[k] = -1
	}
}

// trackActive registers a packet for O(active-packets) timeout bookkeeping.
func (s *Simulator) trackActive(p *packet) {
	if !p.inActive {
		p.inActive = true
		s.activePkts = append(s.activePkts, p)
	}
}

// markDropped queues a newly dropped packet for reaping. Idempotent: a
// packet stays on the dirty list until its flits drain and it retires or
// retries.
func (s *Simulator) markDropped(p *packet) {
	if !p.inDirty {
		p.inDirty = true
		s.dirty = append(s.dirty, p)
	}
}
