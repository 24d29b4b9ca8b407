// Package sim is a cycle-level wormhole network simulator for ServerNet-
// style networks: byte-serial links carry one flit per cycle, routers have
// one input FIFO per port (per virtual channel, when configured) and a
// non-blocking crossbar, a packet's header flit allocates each output as it
// advances and its tail flit releases it, and blocked worms hold the
// buffers they occupy — the regime in which the circular waits of Figure 1
// become true deadlocks.
//
// The simulator is deterministic: ties are broken by channel order and
// per-output round-robin arbitration. It holds no random state at all —
// every source of randomness in an experiment lives in the workload
// generator's explicit *rand.Rand — which is what lets internal/runner fan
// simulation points over a worker pool and still produce bit-identical
// results for any worker count. It detects deadlock by lack of
// forward progress and extracts a witness cycle from the channel wait-for
// graph, verifies in-order delivery per source-destination pair (the
// ServerNet protocol requirement of §3.3), enforces the path-disable
// registers of §2.4 (discarding packets whose — possibly corrupted —
// routes attempt a disabled turn), and optionally provides the virtual
// channels of the Dally–Seitz scheme §2 weighs against topology-based
// avoidance, plus the timeout/discard/retry recovery that section also
// discusses.
//
// The per-cycle engine runs on dense, incrementally-maintained state
// (state.go, arbiter.go): slice-indexed ring-buffer FIFOs, precomputed
// per-channel tables, per-packet flit-location counters, reusable
// arbitration scratch, and three bitsets: one over buffer keys marking the
// non-empty buffers, one over global output-port indices marking the
// ports requested this cycle, and one over sources whose queue front is
// due, the others waiting on a min-heap of their due cycles. Scanning a
// bitset word by word yields the ascending order arbitration depends on,
// so no cycle sorts anything. The engine fast-forwards across cycles in
// which no switching decision is possible. AddBatch takes a workload in
// bulk, carving its packets and routes from slabs. internal/sim/simref preserves the previous scan-based
// implementation; the equivalence tests pin this engine to it
// field-for-field over every built-in topology.
package sim

import (
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/topology"
)

// Config holds simulator parameters.
type Config struct {
	// FIFODepth is the per-input-buffer capacity in flits, per virtual
	// channel (default 4). Total buffering per port is
	// FIFODepth * VirtualChannels — the hardware cost §2 of the paper
	// holds against virtual-channel deadlock avoidance.
	FIFODepth int
	// VirtualChannels is the VC count per physical channel (default 1).
	// Routes produced by a routing with a VC assignment select the VC per
	// hop; single-VC routes ride VC 0.
	VirtualChannels int
	// MaxCycles bounds the simulation (default 1e6).
	MaxCycles int
	// DeadlockThreshold is the number of consecutive cycles without any
	// flit movement after which the network is declared deadlocked
	// (default 10000). Flits propagating on wires count as movement, so a
	// threshold below LinkLatency cannot declare a false deadlock.
	DeadlockThreshold int
	// TimeoutCycles, when positive, enables §2's timeout-based deadlock
	// RECOVERY: a packet whose header has not moved for this many cycles
	// is discarded in place and re-injected from the source. The paper
	// rejects this scheme for system area networks because retries destroy
	// in-order delivery; the simulator measures exactly that.
	TimeoutCycles int
	// MaxRetries bounds re-injections per packet (default 3) when
	// TimeoutCycles is enabled.
	MaxRetries int
	// LinkLatency is the flit propagation time per channel in cycles
	// (default 1). The paper's links "can reach up to 30 meters"; longer
	// cables add pipeline stages without changing any safety property.
	LinkLatency int
	// Trace, when non-nil, receives one line per flit movement
	// ("cycle pkt flit channel"), for debugging and visualization.
	Trace io.Writer
}

// LinkFault schedules a link to fail at a cycle: from then on, any header
// flit attempting to cross either of its channels is discarded (the worm is
// killed, as ServerNet's CRC/timeout machinery would), and body flits of
// worms already committed die with their packet. A non-zero RepairCycle
// makes the failure transient: the link returns to service at that cycle
// and re-enters arbitration like any other channel. Zero means permanent.
type LinkFault struct {
	Cycle       int
	Link        topology.LinkID
	RepairCycle int
}

func (c Config) withDefaults() Config {
	if c.FIFODepth <= 0 {
		c.FIFODepth = 4
	}
	if c.VirtualChannels <= 0 {
		c.VirtualChannels = 1
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 1_000_000
	}
	if c.DeadlockThreshold <= 0 {
		c.DeadlockThreshold = 10_000
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.LinkLatency <= 0 {
		c.LinkLatency = 1
	}
	return c
}

// PacketSpec describes one packet to inject.
type PacketSpec struct {
	Src, Dst    int // node addresses
	Flits       int // packet length in flits, >= 1
	InjectCycle int // earliest cycle the source may begin injecting
}

// Result summarizes a simulation run.
type Result struct {
	Cycles    int
	Injected  int // packets fully injected (counting each retry attempt once)
	Delivered int // packets fully delivered
	Dropped   int // packets discarded by path-disable logic or retry exhaustion

	Deadlocked bool
	// WaitCycle is a witness cycle in the channel wait-for graph when
	// Deadlocked: each channel's blocked head flit waits for the next.
	WaitCycle []topology.ChannelID

	AvgLatency float64 // cycles from InjectCycle to tail delivery
	MaxLatency int
	// P50Latency and P99Latency are nearest-rank latency percentiles over
	// delivered packets (0 when nothing was delivered): the ceil(q*n/100)-th
	// smallest latency, so P99 of 100 samples is the 99th value, not the
	// maximum.
	P50Latency, P99Latency int
	// ThroughputFPC is delivered flits per cycle over the whole run.
	ThroughputFPC float64

	InOrderViolations int
	// Retries counts timeout-triggered re-injections.
	Retries int
	// ChannelFlits counts flit crossings per physical channel.
	ChannelFlits map[topology.ChannelID]int
}

// FlitMoves is the total number of flit-channel crossings the run
// performed — the simulator's unit of work, summed over ChannelFlits. The
// experiment runner records it per run so campaign summaries can report
// simulation cost independent of wall clock.
func (r Result) FlitMoves() int {
	total := 0
	for _, n := range r.ChannelFlits {
		total += n
	}
	return total
}

// nearestRank is the 0-based index of the nearest-rank q-th percentile of n
// sorted samples: ceil(q*n/100) - 1. The old implementation used
// (n*q)/100, which at q=99, n=100 selects index 99 — the maximum — instead
// of the 99th value.
func nearestRank(q, n int) int {
	return (q*n+99)/100 - 1
}

type packet struct {
	id        int
	spec      PacketSpec
	route     []topology.ChannelID
	vcs       []int // nil => VC 0 on every hop
	seq       int   // per (src,dst) injection sequence
	injected  int   // flits handed to the network so far
	dropped   bool
	retired   bool
	wantRetry bool
	retries   int
	stall     int // consecutive cycles the header has not moved (timeout mode)

	// Incrementally-maintained flit-location state. The old implementation
	// recovered all of this with whole-network scans every cycle — and the
	// scan-based headInNetwork could not see a header mid-wire or already
	// delivered, which froze the stall clock exactly when a worm was wedged.
	flitsBuf  int  // flits of this worm resident in router input buffers
	flitsWire int  // flits of this worm propagating on wires
	delivered int  // flits ejected at the destination
	headMoved bool // the header flit crossed a channel this cycle
	inActive  bool // member of Simulator.activePkts
	inDirty   bool // member of Simulator.dirty

	owned []int32 // output-VC buffer keys this worm's header has claimed
}

func (p *packet) vcAt(hop int) int {
	if p.vcs == nil {
		return 0
	}
	return p.vcs[hop]
}

type flit struct {
	pkt *packet
	idx int // 0 = header, spec.Flits-1 = tail
	hop int // route index of the channel just crossed
}

// pendingFlit is a flit propagating along a wire.
type pendingFlit struct {
	key int // destination buffer key (channel*V + vc)
	f   flit
	at  int // last cycle on the wire; lands when now > at
}

// runState carries one run's accumulators across cycles. Run owns one
// implicitly; the step API (Start/StepTo/Finish) exposes the same machinery
// so an external controller — e.g. internal/chaos's dual-fabric recovery
// engine — can interleave two simulators cycle-by-cycle and intervene
// between cycles (hot-swap disables, inject retries on the other fabric).
type runState struct {
	res            Result
	lastSeq        map[[2]int]int
	totalLatency   int
	latencies      []int
	deliveredFlits int
	idle           int
	now            int
	done           bool // deadlock declared; the clock is frozen at the witness cycle
}

// Run executes the simulation until every packet is delivered or dropped,
// deadlock is declared, or MaxCycles elapse.
func (s *Simulator) Run() Result {
	s.Start()
	for s.Running() {
		s.stepCycle(s.cfg.MaxCycles)
	}
	return s.Finish()
}

// Start prepares the step loop. Idempotent; Run and StepTo call it
// implicitly.
func (s *Simulator) Start() {
	if s.rs == nil {
		s.rs = &runState{lastSeq: make(map[[2]int]int)}
	}
}

// Running reports whether the run can still make progress: not deadlocked,
// inside the horizon, with unresolved packets. A finished simulator resumes
// if AddPacket hands it new work (unless it deadlocked).
func (s *Simulator) Running() bool {
	return s.rs != nil && !s.rs.done && s.rs.now < s.cfg.MaxCycles && s.outstanding > 0
}

// Now returns the current cycle of the step loop (0 before Start).
func (s *Simulator) Now() int {
	if s.rs == nil {
		return 0
	}
	return s.rs.now
}

// StepTo advances the run until the clock reaches limit, every packet is
// resolved, or deadlock is declared. When the network empties before limit
// the clock jumps there for free, so two co-simulated fabrics stay aligned
// while one idles. Cycle `limit` itself is not executed: after StepTo(t) it
// is still legal to AddPacket with InjectCycle >= t.
func (s *Simulator) StepTo(limit int) {
	s.Start()
	if limit > s.cfg.MaxCycles {
		limit = s.cfg.MaxCycles
	}
	for s.Running() && s.rs.now < limit {
		s.stepCycle(limit)
	}
	if !s.rs.done && s.outstanding == 0 && s.rs.now < limit {
		// Outstanding == 0 means the fabric is completely empty (tails
		// delivered and drops fully reaped), so no event can fire until
		// new packets arrive: the skipped cycles are all no-ops.
		s.rs.now = limit
	}
}

// Finish seals the run and returns its Result. Callable once the step loop
// stops (and again after a resume); Run calls it for you.
func (s *Simulator) Finish() Result {
	rs := s.rs
	rs.res.Cycles = rs.now
	cf := make(map[topology.ChannelID]int)
	for c, n := range s.busyCh {
		if n > 0 {
			cf[topology.ChannelID(c)] = n
		}
	}
	rs.res.ChannelFlits = cf
	if rs.res.Delivered > 0 {
		rs.res.AvgLatency = float64(rs.totalLatency) / float64(rs.res.Delivered)
		latencies := append([]int(nil), rs.latencies...)
		sort.Ints(latencies)
		rs.res.P50Latency = latencies[nearestRank(50, len(latencies))]
		rs.res.P99Latency = latencies[nearestRank(99, len(latencies))]
	}
	if rs.now > 0 {
		rs.res.ThroughputFPC = float64(rs.deliveredFlits) / float64(rs.now)
	}
	return rs.res
}

// land processes a wire arrival: ejections run the delivery protocol,
// router-bound flits enter their input buffer (flits of dropped worms
// simply vanish, as the hardware's error handling discards them).
func (s *Simulator) land(p pendingFlit) {
	rs := s.rs
	s.inflight[p.key]--
	f := p.f
	f.pkt.flitsWire--
	if !s.chDstIsNode[p.key/s.cfg.VirtualChannels] {
		if f.pkt.dropped {
			s.wake(p.key) // the flit vanishes and frees its slot
		} else {
			s.bufPush(p.key, f)
		}
		return
	}
	if f.pkt.dropped {
		return
	}
	f.pkt.delivered++
	rs.deliveredFlits++
	if f.idx == f.pkt.spec.Flits-1 {
		s.outstanding--
		rs.res.Delivered++
		lat := rs.now - f.pkt.spec.InjectCycle
		rs.totalLatency += lat
		rs.latencies = append(rs.latencies, lat)
		if lat > rs.res.MaxLatency {
			rs.res.MaxLatency = lat
		}
		key := [2]int{f.pkt.spec.Src, f.pkt.spec.Dst}
		if f.pkt.seq < rs.lastSeq[key] {
			rs.res.InOrderViolations++
		} else {
			rs.lastSeq[key] = f.pkt.seq + 1
		}
		if s.hook != nil {
			s.hook(f.pkt.spec, rs.now)
		}
	}
}

// stepCycle executes one cycle of the run at rs.now and advances the clock,
// fast-forwarding across quiescent stretches up to (but excluding) limit.
// On deadlock it freezes the clock at the witness cycle and sets rs.done —
// exactly the retired monolithic loop's `break` before the final `now++`.
func (s *Simulator) stepCycle(limit int) {
	rs := s.rs
	now := rs.now

	// Events with cycle < now can exist only after a free clock jump over a
	// provably empty network (StepTo), so folding them late is exact: no
	// flit crossed anything during the skipped window.
	for s.evCursor < len(s.events) && s.events[s.evCursor].cycle <= now {
		ev := s.events[s.evCursor]
		wasDead := s.deadCount[ev.link] > 0
		s.deadCount[ev.link] += int32(ev.delta)
		if (s.deadCount[ev.link] > 0) != wasDead {
			s.faultRev++
			s.wakeAll()
		}
		s.evCursor++
	}

	// Wire arrivals land before this cycle's switching decisions. All
	// wire delays equal LinkLatency, so the pending ring is FIFO by
	// landing cycle and arrivals pop off the front in issue order.
	landed := 0
	for s.pendLen > 0 && s.pend[s.pendHead].at < now {
		s.land(s.popPending())
		landed++
	}

	moves := s.planMoves(now)

	for _, mv := range moves {
		var f flit
		toCh := topology.ChannelID(mv.to / s.cfg.VirtualChannels)
		toVC := mv.to % s.cfg.VirtualChannels
		if mv.from == -1 {
			p := s.queues[mv.src][0]
			f = flit{pkt: p, idx: p.injected, hop: 0}
			p.stall = 0
			if p.injected == 0 {
				p.headMoved = true
				if s.cfg.TimeoutCycles > 0 {
					s.trackActive(p)
				}
			}
			p.injected++
			if p.injected == p.spec.Flits {
				s.queues[mv.src] = s.queues[mv.src][1:]
				s.arm(mv.src, now)
				rs.res.Injected++
			}
		} else {
			f = s.bufPop(mv.from)
			s.wake(mv.from)
			f.hop++
			f.pkt.stall = 0
			// Ownership transitions at the output VC just crossed —
			// identified by the destination buffer key, every wired
			// port driving exactly one outgoing channel.
			if f.idx == 0 {
				f.pkt.headMoved = true
				if s.owner[mv.to] < 0 {
					s.owner[mv.to] = int32(f.pkt.id)
					f.pkt.owned = append(f.pkt.owned, int32(mv.to))
				}
			}
			if f.idx == f.pkt.spec.Flits-1 {
				s.release(f.pkt, int32(mv.to))
			}
		}
		s.busyCh[toCh]++
		if s.cfg.Trace != nil {
			fmt.Fprintf(s.cfg.Trace, "%d pkt%d flit%d vc%d %s\n",
				now, f.pkt.id, f.idx, toVC, s.net.ChannelString(toCh))
		}
		if s.corruptThreshold != 0 && !f.pkt.dropped &&
			s.corrupted(f.pkt.id, f.pkt.retries, f.idx, f.hop) {
			// The flit is corrupted on the wire it just entered: the
			// receiver's CRC check kills the worm, like a fault would.
			f.pkt.dropped = true
			s.markDropped(f.pkt)
		}
		f.pkt.flitsWire++
		s.pushPending(pendingFlit{key: mv.to, f: f, at: now + s.cfg.LinkLatency - 1})
		s.inflight[mv.to]++
	}

	if s.cfg.TimeoutCycles > 0 {
		s.applyTimeouts()
	}
	dirtyBefore := len(s.dirty)
	retired := 0
	if dirtyBefore > 0 {
		retired = s.reapDropped(&rs.res, now)
		s.outstanding -= retired
	}
	if len(moves) > 0 || retired > 0 || landed > 0 {
		rs.idle = 0
		rs.now = now + 1
		return
	}
	if s.pendLen > 0 {
		// Flits propagating on long wires are forward progress even
		// though no switching decision fired this cycle; without this,
		// DeadlockThreshold < LinkLatency declared false deadlocks.
		rs.idle = 0
	} else {
		rs.idle++
		if rs.idle >= s.cfg.DeadlockThreshold && s.totalBuffered > 0 {
			rs.res.Deadlocked = true
			rs.res.WaitCycle = s.waitCycle()
			rs.done = true
			return
		}
	}

	// Nothing moved, landed, or retired, and no dropped worms are
	// draining: the network is quiescent and can only change at the
	// next discrete event. Jump there instead of spinning one cycle at
	// a time, carrying the idle and stall clocks across the gap. A
	// non-empty dirty list blocks the jump even when nothing retired:
	// dropped worms are still being reaped.
	if dirtyBefore > 0 {
		rs.now = now + 1
		return
	}
	next := limit
	if s.pendLen > 0 {
		if t := s.pend[s.pendHead].at + 1; t < next {
			next = t
		}
	}
	if len(s.srcHeap) > 0 && s.srcHeap[0].cycle < next {
		next = s.srcHeap[0].cycle
	}
	if s.evCursor < len(s.events) && s.events[s.evCursor].cycle < next {
		next = s.events[s.evCursor].cycle
	}
	if s.cfg.TimeoutCycles > 0 {
		for _, p := range s.activePkts {
			if t := now + s.cfg.TimeoutCycles - p.stall; t < next {
				next = t
			}
		}
	}
	if s.pendLen == 0 && s.totalBuffered > 0 {
		if t := now + s.cfg.DeadlockThreshold - rs.idle; t < next {
			next = t
		}
	}
	if skipped := next - 1 - now; skipped > 0 {
		if s.pendLen == 0 {
			rs.idle += skipped
		}
		if s.cfg.TimeoutCycles > 0 {
			for _, p := range s.activePkts {
				p.stall += skipped
			}
		}
		now = next - 1
	}
	rs.now = now + 1
}

// applyTimeouts advances per-packet stall counters for worms whose header
// flit did not cross a channel this cycle (any flit movement of the worm
// resets the counter during move execution), and discards-with-retry any
// worm exceeding the configured timeout (§2's recovery alternative).
// Retried packets are re-enqueued at the source — deliberately NOT
// reordered in front of later traffic, which is how out-of-order delivery
// arises.
//
// The clock keeps running wherever the header is: buffered, mid-wire on a
// long link, or already delivered with body flits stuck behind a fault.
// The old buffer-scan predicate went blind in the latter two cases, so a
// worm wedged with its header off-buffer could never time out and its held
// VCs leaked until DeadlockThreshold fired.
func (s *Simulator) applyTimeouts() {
	kept := s.activePkts[:0]
	for _, p := range s.activePkts {
		if p.dropped || p.retired || p.injected == 0 || p.delivered == p.spec.Flits {
			p.inActive = false
			continue
		}
		if !p.headMoved {
			p.stall++
			if p.stall >= s.cfg.TimeoutCycles {
				p.dropped = true
				p.wantRetry = p.retries < s.cfg.MaxRetries
				s.markDropped(p)
				p.inActive = false
				continue
			}
		}
		p.headMoved = false
		kept = append(kept, p)
	}
	s.activePkts = kept
}

// reapDropped consumes flits of dropped packets at buffer heads and retires
// packets whose flits are fully drained, releasing the output VCs their
// worms held; timeout victims are re-enqueued. It returns the number of
// packets permanently retired this cycle. Only called while the dirty list
// is non-empty — a quiescent network reaps nothing.
func (s *Simulator) reapDropped(res *Result, now int) int {
	// Drain dropped worms' flits at buffer heads. Each word is scanned
	// from a copy, so a buffer emptied here clears only its own, already
	// visited, bit. A drained buffer leaves its wait list, since its head
	// changes, and wakes the waiters on its space.
	for w, word := range s.activeBits {
		for ; word != 0; word &= word - 1 {
			key := w<<6 | bits.TrailingZeros64(word)
			if !s.bufFlits[key*s.depth+int(s.bufHead[key])].pkt.dropped {
				continue
			}
			s.unpark(key)
			for s.bufLen[key] > 0 && s.bufFlits[key*s.depth+int(s.bufHead[key])].pkt.dropped {
				s.bufPop(key)
			}
			s.wake(key)
		}
	}
	// Cut dropped packets off at the source.
	for _, p := range s.dirty {
		if q := s.queues[p.spec.Src]; len(q) > 0 && q[0] == p {
			p.injected = p.spec.Flits
			s.queues[p.spec.Src] = q[1:]
			s.unpark(s.srcBase + p.spec.Src)
			s.arm(p.spec.Src, now)
		}
	}
	// Retire and retry in packet-id order — the order the old
	// implementation's full scan over s.packets produced.
	slices.SortFunc(s.dirty, func(a, b *packet) int { return a.id - b.id })
	retired := 0
	kept := s.dirty[:0]
	for _, p := range s.dirty {
		if p.flitsBuf+p.flitsWire > 0 || p.injected != p.spec.Flits || p.retired {
			kept = append(kept, p)
			continue
		}
		for _, k := range p.owned {
			if s.owner[k] == int32(p.id) {
				s.owner[k] = -1
				s.wake(int(k))
			}
		}
		p.owned = p.owned[:0]
		p.inDirty = false
		if p.wantRetry {
			// Re-inject: same packet identity (and sequence number, so
			// the in-order checker sees the true delivery order), fresh
			// flit stream.
			p.dropped, p.wantRetry = false, false
			p.retries++
			p.stall = 0
			p.injected = 0
			p.delivered = 0
			p.headMoved = false
			res.Retries++
			q := s.queues[p.spec.Src]
			s.queues[p.spec.Src] = append(q, p)
			if len(q) == 0 {
				s.arm(p.spec.Src, now)
			}
			continue
		}
		p.retired = true
		res.Dropped++
		retired++
		if s.dropHook != nil {
			s.dropHook(p.spec, now)
		}
	}
	s.dirty = kept
	return retired
}

// waitCycle builds the channel wait-for graph — blocked head flit in
// vc-channel c waits for its next vc-channel — and returns a cycle's
// physical channels if present.
func (s *Simulator) waitCycle() []topology.ChannelID {
	v := s.cfg.VirtualChannels
	g := graph.NewDigraph(s.net.NumChannels() * v)
	for w, word := range s.activeBits {
		for ; word != 0; word &= word - 1 {
			key := w<<6 | bits.TrailingZeros64(word)
			f := s.bufFlits[key*s.depth+int(s.bufHead[key])]
			if f.pkt.dropped {
				continue
			}
			g.AddEdge(key, int(f.pkt.route[f.hop+1])*v+f.pkt.vcAt(f.hop+1))
		}
	}
	cyc, ok := g.FindCycle()
	if !ok {
		return nil
	}
	out := make([]topology.ChannelID, len(cyc))
	for i, c := range cyc {
		out[i] = topology.ChannelID(c / v)
	}
	return out
}
