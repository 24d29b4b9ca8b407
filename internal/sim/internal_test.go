package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// White-box tests of the simulator's internal mechanics.

func TestBufKeyRoundTrip(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	s := New(fm.Network, router.AllowAll(fm.Network), Config{VirtualChannels: 3})
	for ch := 0; ch < fm.NumChannels(); ch++ {
		for vc := 0; vc < 3; vc++ {
			key := s.bufKey(topology.ChannelID(ch), vc)
			if key/3 != ch || key%3 != vc {
				t.Fatalf("bufKey(%d,%d) = %d does not decompose", ch, vc, key)
			}
		}
	}
}

func TestPacketVCDefaultsToZero(t *testing.T) {
	p := &packet{}
	if p.vcAt(0) != 0 || p.vcAt(5) != 0 {
		t.Error("nil VCs should ride VC 0")
	}
	p.vcs = []int{0, 1, 1}
	if p.vcAt(2) != 1 {
		t.Error("explicit VC ignored")
	}
}

func TestReleaseOnlyOwnedKeys(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	s := New(fm.Network, router.AllowAll(fm.Network), Config{})
	p := &packet{id: 7}
	k1, k2 := int32(3), int32(5)
	s.owner[k1] = 7
	s.owner[k2] = 7
	p.owned = []int32{k1, k2}
	s.release(p, k1)
	if s.owner[k1] != -1 {
		t.Error("k1 not released")
	}
	if s.owner[k2] != 7 {
		t.Error("k2 released prematurely")
	}
	if len(p.owned) != 1 || p.owned[0] != k2 {
		t.Errorf("owned = %v", p.owned)
	}
	// Releasing a key the packet never held is a no-op.
	s.release(p, k1)
	if len(p.owned) != 1 {
		t.Error("spurious release mutated ownership")
	}
}

// Round-robin output arbitration: two sources streaming equal traffic
// through one shared link make progress in strict alternation — neither is
// starved.
func TestArbitrationFairness(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	tb := routing.FullMesh(fm)
	s := New(fm.Network, router.AllowAll(fm.Network), Config{FIFODepth: 2})
	// Nodes 0 and 1 (router 0) each stream 10 single-flit packets to nodes
	// 5 and 6 (router 1): every packet contends for the one inter-router
	// link.
	for i := 0; i < 10; i++ {
		if err := s.AddBatch(tb, []PacketSpec{
			{Src: 0, Dst: 5, Flits: 1},
			{Src: 1, Dst: 6, Flits: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Run()
	if res.Delivered != 20 || res.Deadlocked {
		t.Fatalf("delivered=%d deadlocked=%v", res.Delivered, res.Deadlocked)
	}
	// With fair arbitration the two streams finish together: total time is
	// within a small constant of 2x one stream's serialized time.
	if res.MaxLatency > 30 {
		t.Errorf("max latency %d suggests starvation", res.MaxLatency)
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.FIFODepth != 4 || c.VirtualChannels != 1 || c.MaxCycles != 1_000_000 ||
		c.DeadlockThreshold != 10_000 || c.MaxRetries != 3 {
		t.Errorf("defaults wrong: %+v", c)
	}
	c2 := Config{FIFODepth: 9, VirtualChannels: 2, MaxCycles: 5, DeadlockThreshold: 7, MaxRetries: 1}.withDefaults()
	if c2.FIFODepth != 9 || c2.VirtualChannels != 2 || c2.MaxCycles != 5 ||
		c2.DeadlockThreshold != 7 || c2.MaxRetries != 1 {
		t.Errorf("explicit values clobbered: %+v", c2)
	}
}

// nearestRank must pick the ceil(q*n/100)-th smallest sample for every n,
// including the small-n and just-past-a-boundary cases the old
// int(float64(n)*q/100) truncation got wrong (P99 of 100 samples used to
// return the maximum).
func TestNearestRankExact(t *testing.T) {
	cases := []struct{ q, n, want int }{
		{50, 1, 0}, {99, 1, 0},
		{50, 2, 0}, {99, 2, 1},
		{50, 10, 4}, {99, 10, 9},
		{50, 100, 49}, {99, 100, 98},
		{50, 101, 50}, {99, 101, 99},
	}
	for _, c := range cases {
		if got := nearestRank(c.q, c.n); got != c.want {
			t.Errorf("nearestRank(%d, %d) = %d, want %d", c.q, c.n, got, c.want)
		}
	}
}

// The timeout clock ticks whenever the header failed to cross a channel
// this cycle — wherever the header is, including mid-wire or already
// ejected with the tail wedged behind — and stops only once every flit has
// ejected. The old headInNetwork buffer scan froze the clock in exactly
// those states.
func TestApplyTimeoutsTicksUnlessHeaderMoved(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	s := New(fm.Network, router.AllowAll(fm.Network), Config{TimeoutCycles: 2, MaxRetries: 1})
	mk := func(delivered, retries int, headMoved bool) *packet {
		p := &packet{
			spec: PacketSpec{Flits: 4}, injected: 4, retries: retries,
			delivered: delivered, headMoved: headMoved, inActive: true,
		}
		s.activePkts = append(s.activePkts, p)
		return p
	}
	stalled := mk(1, 1, false) // header parked somewhere: must tick
	moving := mk(1, 0, true)   // header crossed a channel: clock rearmed
	done := mk(4, 0, false)    // fully ejected: timeout can no longer fire

	s.applyTimeouts()
	if stalled.stall != 1 || stalled.dropped {
		t.Fatalf("stalled worm: stall=%d dropped=%v, want 1/false", stalled.stall, stalled.dropped)
	}
	if moving.stall != 0 || moving.headMoved {
		t.Fatalf("moving worm: stall=%d headMoved=%v, want 0/false (flag consumed)",
			moving.stall, moving.headMoved)
	}
	if done.stall != 0 || done.inActive {
		t.Fatalf("delivered worm: stall=%d inActive=%v, want 0/false", done.stall, done.inActive)
	}

	// Another motionless cycle: stalled hits the threshold with its retry
	// budget exhausted, moving starts ticking.
	s.applyTimeouts()
	if !stalled.dropped || !stalled.inDirty {
		t.Fatalf("stalled worm not dropped at threshold: %+v", stalled)
	}
	if stalled.wantRetry {
		t.Fatal("retry granted beyond MaxRetries")
	}
	if moving.stall != 1 {
		t.Fatalf("moving worm stall=%d after motionless cycle, want 1", moving.stall)
	}
}

// AddPacket rejects malformed specs and every route that is not a walk
// from the source's injection channel through routers to the destination's
// ejection channel. Unchecked, an empty route panicked in planMoves, a
// route cut short before its ejection channel panicked at route[hop+1], and
// a route copied from another node pair was delivered to the wrong node and
// counted.
func TestAddPacketValidation(t *testing.T) {
	fm := topology.NewFullMesh(3, 6)
	tb := routing.FullMesh(fm)
	route := func(src, dst int) []topology.ChannelID {
		t.Helper()
		r, err := tb.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return r.Channels
	}
	// 0 -> 8 crosses R0 -> R2: injection, one inter-router hop, ejection.
	good := route(0, 8)
	if len(good) != 3 {
		t.Fatalf("0->8 has %d channels, want 3", len(good))
	}
	inj, hop, ej := good[0], good[1], good[2]
	other := route(1, 5) // starts at node 1, R0 -> R1
	same := route(0, 5)  // same source, ejects at node 5
	via5 := route(5, 8)  // node 5 -> R1 -> R2 -> node 8
	spec := PacketSpec{Src: 0, Dst: 8, Flits: 2}
	with := func(chs ...topology.ChannelID) routing.Route {
		return routing.Route{Src: 0, Dst: 8, Channels: chs}
	}

	cases := []struct {
		name, want string
		spec       PacketSpec
		route      routing.Route
	}{
		{"zero flits", "at least 1 flit", PacketSpec{Src: 0, Dst: 8}, with(good...)},
		{"route for another pair", "does not match", PacketSpec{Src: 1, Dst: 8, Flits: 2}, with(good...)},
		{"destination out of range", "not a node address",
			PacketSpec{Src: 0, Dst: fm.NumNodes(), Flits: 2},
			routing.Route{Src: 0, Dst: fm.NumNodes(), Channels: good}},
		{"empty", "has no channels", spec, with()},
		{"channel out of range", "network has", spec, with(inj, hop, topology.ChannelID(fm.NumChannels()))},
		{"negative channel", "network has", spec, with(-1, hop, ej)},
		{"starts off the source", "injection channel", spec, with(other...)},
		{"cut short before ejection", "ejection channel", spec, with(inj, hop)},
		{"injection channel only", "ejection channel", spec, with(inj)},
		{"disconnected", "is broken", spec, with(inj, other[2])},
		{"copied from another pair", "ejection channel", spec, with(same...)},
		{"passes through an end node", "before the last hop", spec, with(slices.Concat(same, via5)...)},
		{"ends past the destination", "before the last hop", spec, with(inj, hop, ej, route(8, 0)[0])},
		{"short VC list", "VCs for", spec, routing.Route{Src: 0, Dst: 8, Channels: good, VCs: []int{0}}},
	}
	for _, c := range cases {
		s := New(fm.Network, router.AllowAll(fm.Network), Config{})
		err := s.AddPacket(c.spec, c.route)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: route %v: err = %v, want one mentioning %q", c.name, c.route.Channels, err, c.want)
		}
		if len(s.packets) != 0 {
			t.Errorf("%s: rejected packet was queued", c.name)
		}
	}

	s := New(fm.Network, router.AllowAll(fm.Network), Config{})
	if err := s.AddPacket(spec, with(good...)); err != nil {
		t.Fatalf("table route rejected: %v", err)
	}
	if res := s.Run(); res.Delivered != 1 {
		t.Fatalf("table route: delivered=%d, want 1", res.Delivered)
	}
}

// planMoves allocates nothing once its scratch has grown: on a loaded
// mid-run state, with requests straddling several bitset words and many
// output ports contending at once, a planning pass costs 0 allocations.
func TestPlanMovesAllocatesNothing(t *testing.T) {
	fm := topology.NewFullMesh(6, 8)
	tb := routing.FullMesh(fm)
	s := New(fm.Network, router.AllowAll(fm.Network), Config{FIFODepth: 2, VirtualChannels: 3})
	if len(s.activeBits) < 3 {
		t.Fatalf("%d buffer keys fit in %d words; the test needs several", fm.NumChannels()*3, len(s.activeBits))
	}
	rng := rand.New(rand.NewSource(3))
	n := fm.NumNodes()
	for cyc := 0; cyc < 400; cyc++ {
		for src := 0; src < n; src++ {
			if rng.Intn(4) != 0 {
				continue
			}
			dst := rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
			if err := s.AddBatch(tb, []PacketSpec{{Src: src, Dst: dst, Flits: 8, InjectCycle: cyc}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.StepTo(200)
	if !s.Running() {
		t.Fatal("run ended before the mid-run cycle")
	}
	words := 0
	for _, w := range s.activeBits {
		if w != 0 {
			words++
		}
	}
	if words < 2 || len(s.planMoves(s.Now())) < 2 {
		t.Fatalf("mid-run state too idle: %d active words", words)
	}
	if a := testing.AllocsPerRun(100, func() { s.planMoves(s.Now()) }); a != 0 {
		t.Fatalf("planMoves allocates %v times per call, want 0", a)
	}
}

// Sequence numbers are per (src, dst) pair and monotone.
func TestSequenceNumbering(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	tb := routing.FullMesh(fm)
	s := New(fm.Network, router.AllowAll(fm.Network), Config{})
	for i := 0; i < 3; i++ {
		if err := s.AddBatch(tb, []PacketSpec{{Src: 0, Dst: 5, Flits: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddBatch(tb, []PacketSpec{{Src: 0, Dst: 6, Flits: 1}}); err != nil {
		t.Fatal(err)
	}
	if s.packets[0].seq != 0 || s.packets[1].seq != 1 || s.packets[2].seq != 2 {
		t.Errorf("same-pair seqs: %d %d %d", s.packets[0].seq, s.packets[1].seq, s.packets[2].seq)
	}
	if s.packets[3].seq != 0 {
		t.Errorf("new pair seq = %d, want 0", s.packets[3].seq)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	tb := routing.FullMesh(fm)
	s := New(fm.Network, router.AllowAll(fm.Network), Config{})
	// Ten packets from one source serialize on the shared path: latencies
	// form an increasing sequence, so p50 < p99 <= max.
	for i := 0; i < 10; i++ {
		if err := s.AddBatch(tb, []PacketSpec{{Src: 0, Dst: 9, Flits: 4}}); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Run()
	if res.Delivered != 10 {
		t.Fatalf("delivered = %d", res.Delivered)
	}
	if !(res.P50Latency < res.P99Latency && res.P99Latency <= res.MaxLatency) {
		t.Errorf("percentiles out of order: p50=%d p99=%d max=%d",
			res.P50Latency, res.P99Latency, res.MaxLatency)
	}
	if res.P50Latency <= 0 {
		t.Error("p50 missing")
	}
}

// TestRunResumesAfterRecoveredHookPanic checks that a delivery hook's panic,
// recovered by the caller while a scheduled fault is in play, leaves the
// simulator resumable: clearing the hook and stepping on must reach Finish.
func TestRunResumesAfterRecoveredHookPanic(t *testing.T) {
	fm := topology.NewFullMesh(3, 6)
	tb := routing.FullMesh(fm)
	s := New(fm.Network, router.AllowAll(fm.Network), Config{FIFODepth: 2})
	n := fm.Network.NumNodes()
	var specs []PacketSpec
	for rep := 0; rep < 4; rep++ {
		for src := 0; src < n; src++ {
			specs = append(specs, PacketSpec{Src: src, Dst: (src + 4) % n, Flits: 6, InjectCycle: rep})
		}
	}
	if err := s.AddBatch(tb, specs); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleFault(LinkFault{Cycle: 2, Link: 0}); err != nil {
		t.Fatal(err)
	}
	s.OnDelivered(func(spec PacketSpec, now int) { panic("hook boom") })
	pv := func() (pv any) {
		defer func() { pv = recover() }()
		s.Run()
		return nil
	}()
	if pv != "hook boom" {
		t.Fatalf("recovered %v, want the hook's panic", pv)
	}

	s.OnDelivered(nil)
	for s.Running() {
		s.StepTo(s.Now() + 1)
	}
	res := s.Finish()
	if res.Delivered == 0 {
		t.Fatalf("resumed run delivered nothing: %+v", res)
	}
}

// The wake-on-change scan never leaves out a head or source that could act.
// Saturated runs with every event that can unblock a parked waiter (VC=3
// routes, three-cycle links, timeouts with retries, a permanent link fault
// and a transient flap on links parked heads wait to cross, and a mid-run
// SetDisables that forbids a parked header's turn) are stepped one cycle
// at a time, and after each cycle every head and source is re-judged from
// scratch: one that would request a move, be dropped, or set the
// fast-forward horizon must be in the scan, and one out of it must sit on
// the wait list of the buffer it needs.
func TestParkedHeadsCannotMove(t *testing.T) {
	var parkedCycles, ownerWaits, retries, forbiddenDrops int
	for seed := int64(1); seed <= 8; seed++ {
		c, o, r, f := runParkedScenario(t, seed)
		parkedCycles += c
		ownerWaits += o
		retries += r
		forbiddenDrops += f
	}
	if parkedCycles < 1000 || ownerWaits == 0 || retries == 0 || forbiddenDrops == 0 {
		t.Fatalf("runs too idle to test the scan: %d cycles with parked heads, %d ownership waits, %d retries, %d headers dropped by the new disables",
			parkedCycles, ownerWaits, retries, forbiddenDrops)
	}
}

// runParkedScenario runs one seeded scenario of TestParkedHeadsCannotMove
// under checkScan and reports how much of the scan's machinery it reached.
func runParkedScenario(t *testing.T, seed int64) (parkedCycles, ownerWaits, retries, forbiddenDrops int) {
	t.Helper()
	fm := topology.NewFullMesh(4, 6)
	tb := routing.FullMesh(fm)
	const vcs = 3
	s := New(fm.Network, router.AllowAll(fm.Network), Config{
		FIFODepth: 2, VirtualChannels: vcs, MaxCycles: 4000, LinkLatency: 3,
		TimeoutCycles: 10, MaxRetries: 3,
	})
	if err := s.EnableCorruption(0.01, uint64(seed)); err != nil {
		t.Fatal(err)
	}
	route := func(src, dst int) []topology.ChannelID {
		r, err := tb.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return r.Channels
	}
	rng := rand.New(rand.NewSource(seed))
	n := fm.NumNodes()
	for cyc := 0; cyc < 400; cyc++ {
		for src := 0; src < n; src++ {
			// Odd sources inject sparsely, so their queues run dry and
			// timed-out packets come back to idle sources.
			if rng.Intn(3+20*(src%2)) != 0 {
				continue
			}
			dst := rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
			r := routing.Route{Src: src, Dst: dst, Channels: route(src, dst)}
			if a, b, via := fm.RouterOfNode(src), fm.RouterOfNode(dst), rng.Intn(fm.M); a != b && via != a && via != b {
				// A detour through a third router: the channel
				// dependencies close cycles, so worms deadlock and only
				// timeouts free them.
				x := via * fm.NodesPerRouter
				r1, r2 := route(src, x), route(x, dst)
				r.Channels = slices.Concat(r1[:len(r1)-1], r2[1:])
			}
			r.VCs = make([]int, len(r.Channels))
			for i := range r.VCs {
				r.VCs[i] = rng.Intn(vcs)
			}
			spec := PacketSpec{Src: src, Dst: dst, Flits: 1 + rng.Intn(6), InjectCycle: cyc}
			if err := s.AddPacket(spec, r); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Deliveries to even nodes are answered after a short delay, so the
	// hook fills queues that are empty as often as busy ones, with fronts
	// due now and later.
	s.OnDelivered(func(spec PacketSpec, now int) {
		if spec.Dst%2 == 0 && now < 600 {
			r := routing.Route{Src: spec.Dst, Dst: spec.Src, Channels: route(spec.Dst, spec.Src)}
			if err := s.AddPacket(PacketSpec{Src: spec.Dst, Dst: spec.Src, Flits: 2, InjectCycle: now + spec.Flits%3}, r); err != nil {
				t.Fatal(err)
			}
		}
	})

	// parkedHead returns the lowest buffer key whose head is parked, and
	// that head; headers only when headerOnly is set.
	parkedHead := func(headerOnly bool) (int, flit, bool) {
		for key, on := range s.waitOn[:len(s.waitHead)] {
			if f := s.bufFlits[key*s.depth+int(s.bufHead[key])]; on >= 0 && (f.idx == 0 || !headerOnly) {
				return key, f, true
			}
		}
		return 0, flit{}, false
	}
	dead := topology.LinkID(-1)
	var flapped bool
	var forbidden *packet
	s.Start()
	for s.Running() {
		s.StepTo(s.Now() + 1)
		checkScan(t, s)
		checkDue(t, s)
		if now := s.Now(); now < 600 && now%7 == 0 {
			// Between cycles, fill an empty queue for now or a later cycle.
			for src, q := range s.queues {
				if len(q) == 0 {
					dst := (src + 1) % n
					r := routing.Route{Src: src, Dst: dst, Channels: route(src, dst)}
					if err := s.AddPacket(PacketSpec{Src: src, Dst: dst, Flits: 3, InjectCycle: now + now%3}, r); err != nil {
						t.Fatal(err)
					}
					checkDue(t, s)
					break
				}
			}
		}
		parked := false
		for key, on := range s.waitOn[:len(s.waitHead)] {
			if on < 0 {
				continue
			}
			parked = true
			if own := s.owner[on]; own >= 0 && own != int32(s.bufFlits[key*s.depth+int(s.bufHead[key])].pkt.id) {
				ownerWaits++
			}
		}
		if parked {
			parkedCycles++
		}
		now := s.Now()
		switch {
		case dead < 0 && now >= 60:
			// Kill, from this cycle on, a link a parked head waits to cross.
			if _, f, ok := parkedHead(false); ok {
				dead = s.chLink[f.pkt.route[f.hop+1]]
				if err := s.ScheduleFault(LinkFault{Cycle: now, Link: dead}); err != nil {
					t.Fatal(err)
				}
			}
		case !flapped && now >= 90:
			// Flap another such link for 90 cycles.
			if _, f, ok := parkedHead(false); ok && s.chLink[f.pkt.route[f.hop+1]] != dead {
				l := s.chLink[f.pkt.route[f.hop+1]]
				if err := s.ScheduleFault(LinkFault{Cycle: now, Link: l, RepairCycle: now + 90}); err != nil {
					t.Fatal(err)
				}
				flapped = true
			}
		case forbidden == nil && now >= 120:
			// Forbid the turn a parked header waits to take: the next
			// scan must see it and drop the worm.
			if key, f, ok := parkedHead(true); ok {
				in := fm.ChannelDst(topology.ChannelID(key / vcs))
				dis := router.AllowAll(fm.Network)
				dis.Disable(in.Device, in.Port, int(s.chSrcPort[f.pkt.route[f.hop+1]]))
				s.SetDisables(dis)
				checkScan(t, s)
				forbidden = f.pkt
			}
		}
	}
	res := s.Finish()
	if forbidden != nil && forbidden.retired {
		forbiddenDrops = 1
	}
	return parkedCycles, ownerWaits, res.Retries, forbiddenDrops
}

// checkDue fails the test unless every source with a queued packet is
// filed exactly once by its front: due (its bit set, the front's
// InjectCycle come) or on the wait heap, keyed by the front's InjectCycle,
// which cannot already have passed; and unless the heap is ordered and no
// due bit or heap entry belongs to an empty queue.
func checkDue(t *testing.T, s *Simulator) {
	t.Helper()
	now := s.Now()
	onHeap := make(map[int]int)
	for i, w := range s.srcHeap {
		if i > 0 && w.less(s.srcHeap[(i-1)/2]) {
			t.Fatalf("cycle %d: heap entry %d %+v sorts before its parent", now, i, w)
		}
		onHeap[w.src]++
		q := s.queues[w.src]
		switch {
		case len(q) == 0:
			t.Fatalf("cycle %d: empty source %d is on the heap", now, w.src)
		case w.cycle != q[0].spec.InjectCycle:
			t.Fatalf("cycle %d: source %d is on the heap for cycle %d but its front is due at %d",
				now, w.src, w.cycle, q[0].spec.InjectCycle)
		case w.cycle < now:
			t.Fatalf("cycle %d: source %d is still on the heap for cycle %d", now, w.src, w.cycle)
		}
	}
	for src, q := range s.queues {
		due := s.due[src>>6]&(1<<(src&63)) != 0
		switch {
		case len(q) == 0 && due:
			t.Fatalf("cycle %d: empty source %d is due", now, src)
		case len(q) == 0:
		case due && onHeap[src] > 0:
			t.Fatalf("cycle %d: source %d is due and on the heap", now, src)
		case due && q[0].spec.InjectCycle > now:
			t.Fatalf("cycle %d: source %d is due with a front due at cycle %d", now, src, q[0].spec.InjectCycle)
		case !due && onHeap[src] != 1:
			t.Fatalf("cycle %d: source %d with a front due at cycle %d is on the heap %d times",
				now, src, q[0].spec.InjectCycle, onHeap[src])
		}
	}
}

// checkScan fails the test if a head or source that planMoves would act on
// is parked, or if the parked bits and wait lists disagree.
func checkScan(t *testing.T, s *Simulator) {
	t.Helper()
	v := s.cfg.VirtualChannels
	now := s.Now()
	parked := 0
	for w, on := range s.waitOn {
		if bit := s.parked[w>>6]&(1<<(w&63)) != 0; bit != (on >= 0) {
			t.Fatalf("cycle %d: waiter %d has parked bit %v but waits on %d", now, w, bit, on)
		}
		if on >= 0 {
			parked++
		}
	}
	for key, on := range s.waitOn[:len(s.waitHead)] {
		if on < 0 {
			continue
		}
		if s.bufLen[key] == 0 {
			t.Fatalf("cycle %d: empty buffer %d is parked on %d", now, key, on)
		}
		f := s.bufFlits[key*s.depth+int(s.bufHead[key])]
		p := f.pkt
		next := p.route[f.hop+1]
		nextKey := int(next)*v + p.vcAt(f.hop+1)
		if int(on) != nextKey {
			t.Fatalf("cycle %d: head of buffer %d is parked on %d but needs %d", now, key, on, nextKey)
		}
		if p.dropped {
			continue // the full scan skips it too
		}
		own := s.owner[nextKey]
		switch {
		case f.idx == 0 && !s.chAllowed[key/v][s.chSrcPort[next]]:
			t.Fatalf("cycle %d: parked header of packet %d in buffer %d takes a disabled turn", now, p.id, key)
		case s.deadCount[s.chLink[next]] > 0:
			t.Fatalf("cycle %d: parked head of packet %d in buffer %d is aimed at a dead link", now, p.id, key)
		case s.space(nextKey) && (own == int32(p.id) || own < 0 && f.idx == 0):
			t.Fatalf("cycle %d: parked head of packet %d in buffer %d could move to %d", now, p.id, key, nextKey)
		}
	}
	for src, q := range s.queues {
		on := s.waitOn[s.srcBase+src]
		if on < 0 {
			continue
		}
		if len(q) == 0 {
			t.Fatalf("cycle %d: idle source %d is parked on %d", now, src, on)
		}
		p := q[0]
		injKey := int(p.route[0])*v + p.vcAt(0)
		switch {
		case int(on) != injKey:
			t.Fatalf("cycle %d: source %d is parked on %d but needs %d", now, src, on, injKey)
		case p.spec.InjectCycle > now:
			t.Fatalf("cycle %d: source %d is parked with a front due at cycle %d", now, src, p.spec.InjectCycle)
		case p.dropped:
		case s.deadCount[s.chLink[p.route[0]]] > 0 || s.space(injKey):
			t.Fatalf("cycle %d: parked source %d could act on packet %d", now, src, p.id)
		}
	}
	listed := 0
	for key, w := range s.waitHead {
		for ; w >= 0; w = s.waitNext[w] {
			if int(s.waitOn[w]) != key {
				t.Fatalf("cycle %d: waiter %d on key %d's list waits on %d", now, w, key, s.waitOn[w])
			}
			listed++
		}
	}
	if listed != parked {
		t.Fatalf("cycle %d: %d waiters parked, %d on wait lists", now, parked, listed)
	}
}

// AddBatch schedules exactly what AddPacket does spec by spec, errors
// and all, while every packet's route, VC list and owned list are carved
// with their capacity cut at the route's length, so no packet can append
// into its neighbour's memory.
func TestAddBatchSlabs(t *testing.T) {
	fm := topology.NewFullMesh(4, 6)
	torus := topology.NewTorus(3, 3, 2)
	for _, c := range []struct {
		name string
		net  *topology.Network
		tb   *routing.Tables
		vcs  int
	}{
		{"fullmesh", fm.Network, routing.FullMesh(fm), 1},
		{"torus-dateline", torus.Network, routing.TorusDateline(torus), 2},
	} {
		n := c.net.NumNodes()
		rng := rand.New(rand.NewSource(5))
		var specs []PacketSpec
		for i := 0; i < 300; i++ {
			src, dst := rng.Intn(n), rng.Intn(n-1)
			if dst >= src {
				dst++
			}
			specs = append(specs, PacketSpec{Src: src, Dst: dst, Flits: 1 + rng.Intn(5), InjectCycle: rng.Intn(60)})
		}
		bad := slices.Clone(specs)
		bad[200].Flits = 0          // refused by AddPacket's checks
		bad[250].Dst = bad[250].Src // refused by the route walk
		badRoute := slices.Clone(specs)
		badRoute[120].Dst = badRoute[120].Src
		for _, batch := range [][]PacketSpec{specs, bad, badRoute} {
			cfg := Config{VirtualChannels: c.vcs}
			one := New(c.net, router.AllowAll(c.net), cfg)
			var oneErr error
			for _, spec := range batch {
				r, err := c.tb.Route(spec.Src, spec.Dst)
				if err == nil {
					err = one.AddPacket(spec, r)
				}
				if err != nil {
					oneErr = err
					break
				}
			}
			// Two batches, so the second numbers and queues its packets
			// after the first's.
			bulk := New(c.net, router.AllowAll(c.net), cfg)
			bulkErr := bulk.AddBatch(c.tb, batch[:100])
			if bulkErr == nil {
				bulkErr = bulk.AddBatch(c.tb, batch[100:])
			}
			if fmt.Sprint(bulkErr) != fmt.Sprint(oneErr) {
				t.Fatalf("%s: AddBatch error %v, AddPacket %v", c.name, bulkErr, oneErr)
			}
			if len(bulk.packets) != len(one.packets) || bulk.outstanding != one.outstanding {
				t.Fatalf("%s: AddBatch queued %d packets, AddPacket %d", c.name, len(bulk.packets), len(one.packets))
			}
			for i, p := range bulk.packets {
				q := one.packets[i]
				if p.id != q.id || p.seq != q.seq || p.spec != q.spec ||
					!slices.Equal(p.route, q.route) || !slices.Equal(p.vcs, q.vcs) || (p.vcs == nil) != (q.vcs == nil) {
					t.Fatalf("%s: packet %d: AddBatch %+v, AddPacket %+v", c.name, i, *p, *q)
				}
				if cap(p.route) != len(p.route) || cap(p.vcs) != len(p.vcs) ||
					len(p.owned) != 0 || cap(p.owned) != len(p.route) {
					t.Fatalf("%s: packet %d: route %d/%d, vcs %d/%d, owned %d/%d (len/cap)", c.name, i,
						len(p.route), cap(p.route), len(p.vcs), cap(p.vcs), len(p.owned), cap(p.owned))
				}
			}
			for src, q := range bulk.queues {
				ids := func(q []*packet) (out []int) {
					for _, p := range q {
						out = append(out, p.id)
					}
					return out
				}
				if !slices.Equal(ids(q), ids(one.queues[src])) {
					t.Fatalf("%s: source %d queues %v, AddPacket %v", c.name, src, ids(q), ids(one.queues[src]))
				}
			}
			if got, want := bulk.Run(), one.Run(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: AddBatch run %+v, AddPacket run %+v", c.name, got, want)
			}
		}
	}
}
