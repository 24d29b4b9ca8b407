package sim

import (
	"math/rand"
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
