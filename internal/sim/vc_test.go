package sim_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/deadlock"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The dateline discipline's (channel, VC) dependency graph is acyclic even
// though the physical channel graph is the same cyclic one that deadlocks
// under plain clockwise routing — Dally & Seitz's construction, which §2 of
// the paper weighs against topology-based avoidance.
func TestRingDatelineCDG(t *testing.T) {
	rg := topology.NewRing(4, 1)
	tb := routing.RingDateline(rg)
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}
	rep, err := deadlock.Analyze(tb)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Free {
		t.Fatalf("dateline ring not VC-free: %s", rep)
	}
	if !rep.PhysicalCyclic {
		t.Error("physical channel graph should remain cyclic; the VCs do the work")
	}
	if rep.NumVC != 2 {
		t.Errorf("NumVC = %d", rep.NumVC)
	}
}

// Without a dateline assignment, adding VCs changes nothing: all traffic
// rides VC 0 and the extended graph keeps the cycle.
func TestPlainClockwiseStaysCyclicUnderVCs(t *testing.T) {
	rg := topology.NewRing(4, 1)
	tb := routing.RingClockwise(rg).WithVCs(2, func(topology.DeviceID, int) int { return 0 })
	rep, err := deadlock.Analyze(tb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Free || !rep.PhysicalCyclic {
		t.Errorf("clockwise ring on 2 VCs: free=%v physically cyclic=%v", rep.Free, rep.PhysicalCyclic)
	}
	if len(rep.Cycle) != 4 {
		t.Errorf("minimal cycle length = %d, want 4", len(rep.Cycle))
	}
	for i, v := range rep.Cycle {
		if vc := v % rep.NumVC; vc != 0 {
			t.Errorf("cycle uses VC %d, expected all VC 0", vc)
		}
		if line := rep.CycleLines()[i]; !strings.HasSuffix(line, " vc0") {
			t.Errorf("cycle line %q lacks its vc0 suffix", line)
		}
	}
}

func TestTorusDatelineCDG(t *testing.T) {
	m := topology.NewTorus(4, 4, 1)
	tb := routing.TorusDateline(m)
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}
	rep, err := deadlock.Analyze(tb)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Free {
		t.Fatalf("dateline torus not free: %s", rep)
	}
	if !rep.PhysicalCyclic {
		t.Error("torus physical graph should be cyclic")
	}
}

// Figure 1's workload, which deadlocks the plain clockwise ring, completes
// on the dateline ring with two virtual channels.
func TestFigure1SurvivesWithVirtualChannels(t *testing.T) {
	rg := topology.NewRing(4, 1)
	tb := routing.RingDateline(rg)
	s := sim.New(rg.Network, router.AllowAll(rg.Network),
		sim.Config{FIFODepth: 2, VirtualChannels: 2, DeadlockThreshold: 500})
	if err := s.AddBatch(tb, workload.Transfers(workload.RingDeadlockSet(4), 32)); err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Deadlocked {
		t.Fatalf("dateline ring deadlocked: %+v", res)
	}
	if res.Delivered != 4 || res.InOrderViolations != 0 {
		t.Fatalf("delivered=%d violations=%d", res.Delivered, res.InOrderViolations)
	}
}

// The same workload with two VCs but NO dateline assignment still deadlocks:
// buffers alone don't break circular waits.
func TestFigure1VCsWithoutDatelineStillDeadlock(t *testing.T) {
	rg := topology.NewRing(4, 1)
	tb := routing.RingClockwise(rg)
	s := sim.New(rg.Network, router.AllowAll(rg.Network),
		sim.Config{FIFODepth: 2, VirtualChannels: 2, DeadlockThreshold: 300})
	if err := s.AddBatch(tb, workload.Transfers(workload.RingDeadlockSet(4), 32)); err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Deadlocked {
		t.Fatalf("expected deadlock: %+v", res)
	}
}

// A route whose VC exceeds the simulator's configured count is rejected.
func TestVCRangeValidation(t *testing.T) {
	rg := topology.NewRing(4, 1)
	tb := routing.RingDateline(rg) // uses 2 VCs
	s := sim.New(rg.Network, router.AllowAll(rg.Network), sim.Config{VirtualChannels: 1})
	r, err := tb.Route(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddPacket(sim.PacketSpec{Src: 0, Dst: 2, Flits: 4}, r); err == nil {
		t.Error("2-VC route accepted by a 1-VC simulator")
	}
}

// Dateline torus under heavy random load: no deadlock, everything in order.
func TestTorusDatelineUnderLoad(t *testing.T) {
	m := topology.NewTorus(4, 4, 1)
	tb := routing.TorusDateline(m)
	s := sim.New(m.Network, router.AllowAll(m.Network),
		sim.Config{FIFODepth: 2, VirtualChannels: 2})
	var specs []sim.PacketSpec
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if a != b {
				specs = append(specs, sim.PacketSpec{Src: a, Dst: b, Flits: 5})
			}
		}
	}
	if err := s.AddBatch(tb, specs); err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Deadlocked || res.Delivered != 240 {
		t.Fatalf("deadlocked=%v delivered=%d/240", res.Deadlocked, res.Delivered)
	}
	if res.InOrderViolations != 0 {
		t.Errorf("violations = %d", res.InOrderViolations)
	}
}

// §2's timeout/discard/retry recovery: a packet stuck behind a long blocker
// times out, is discarded and retried — and the retry arrives AFTER a
// younger packet for the same pair, exactly the out-of-order delivery that
// makes the scheme unusable for ServerNet's lightweight protocol.
func TestTimeoutRetryBreaksOrdering(t *testing.T) {
	fm := topology.NewFullMesh(3, 6)
	tb := routing.FullMesh(fm)
	s := sim.New(fm.Network, router.AllowAll(fm.Network),
		sim.Config{FIFODepth: 4, TimeoutCycles: 30, MaxRetries: 3})

	// Blocker: node 4 (router 1) occupies the R1 -> R2 link... use a
	// same-source blocker instead: node 1 (router 0) streams 60 flits to
	// node 8 (router 2), seizing R0's output toward R2.
	if err := s.AddBatch(tb, []sim.PacketSpec{{Src: 1, Dst: 8, Flits: 60}}); err != nil {
		t.Fatal(err)
	}
	// Packet A then packet B, both node 0 -> node 9 (router 2): A's header
	// stalls behind the blocker past the timeout and is retried; B slips
	// in front during the retry.
	if err := s.AddBatch(tb, []sim.PacketSpec{
		{Src: 0, Dst: 9, Flits: 4, InjectCycle: 2},
		{Src: 0, Dst: 9, Flits: 4, InjectCycle: 3},
	}); err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Deadlocked {
		t.Fatalf("deadlocked: %+v", res)
	}
	if res.Retries == 0 {
		t.Fatalf("no retries happened: %+v", res)
	}
	if res.Delivered != 3 || res.Dropped != 0 {
		t.Fatalf("delivered=%d dropped=%d, want 3/0", res.Delivered, res.Dropped)
	}
	if res.InOrderViolations == 0 {
		t.Error("retry did not produce an order violation; §2's objection not demonstrated")
	}
}

// With the timeout disabled, the identical workload delivers in order (the
// blocker just delays everything) — the control for the retry experiment.
func TestNoTimeoutKeepsOrdering(t *testing.T) {
	fm := topology.NewFullMesh(3, 6)
	tb := routing.FullMesh(fm)
	s := sim.New(fm.Network, router.AllowAll(fm.Network), sim.Config{FIFODepth: 4})
	if err := s.AddBatch(tb, []sim.PacketSpec{
		{Src: 1, Dst: 8, Flits: 60},
		{Src: 0, Dst: 9, Flits: 4, InjectCycle: 2},
		{Src: 0, Dst: 9, Flits: 4, InjectCycle: 3},
	}); err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Delivered != 3 || res.InOrderViolations != 0 || res.Retries != 0 {
		t.Fatalf("%+v", res)
	}
}

// Retry exhaustion: a permanently blocked route (all retries re-blocked)
// ends in a drop after MaxRetries attempts.
func TestRetryExhaustion(t *testing.T) {
	rg := topology.NewRing(4, 1)
	tb := routing.RingClockwise(rg)
	s := sim.New(rg.Network, router.AllowAll(rg.Network),
		sim.Config{FIFODepth: 2, TimeoutCycles: 40, MaxRetries: 2, DeadlockThreshold: 4000})
	if err := s.AddBatch(tb, workload.Transfers(workload.RingDeadlockSet(4), 32)); err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Deadlocked {
		t.Fatalf("timeout recovery failed to clear the deadlock: %+v", res)
	}
	if res.Retries == 0 {
		t.Fatalf("no retries: %+v", res)
	}
	if res.Delivered+res.Dropped != 4 {
		t.Fatalf("delivered=%d dropped=%d, want 4 total", res.Delivered, res.Dropped)
	}
}

// The trace writer receives one line per flit crossing.
func TestTraceOutput(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	tb := routing.FullMesh(fm)
	var buf bytes.Buffer
	s := sim.New(fm.Network, router.AllowAll(fm.Network), sim.Config{Trace: &buf})
	if err := s.AddBatch(tb, []sim.PacketSpec{{Src: 0, Dst: 9, Flits: 3}}); err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Delivered != 1 {
		t.Fatalf("delivered = %d", res.Delivered)
	}
	lines := strings.Count(buf.String(), "\n")
	// 3 flits x 3 channels (inject, inter-router, eject).
	if lines != 9 {
		t.Errorf("trace lines = %d, want 9:\n%s", lines, buf.String())
	}
}

// A link fault kills worms aimed at it; with no fault the same run delivers
// everything. The drop hook fires once per killed packet.
func TestScheduledLinkFault(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	tb := routing.FullMesh(fm)
	link, ok := fm.LinkAt(fm.Routers[0], 0) // the inter-router cable
	if !ok {
		t.Fatal("no inter-router link")
	}
	s := sim.New(fm.Network, router.AllowAll(fm.Network), sim.Config{})
	drops := 0
	s.OnDropped(func(spec sim.PacketSpec, now int) { drops++ })
	if err := s.ScheduleFault(sim.LinkFault{Cycle: 0, Link: link}); err != nil {
		t.Fatal(err)
	}
	// Cross-router traffic dies; same-router traffic survives.
	if err := s.AddBatch(tb, []sim.PacketSpec{
		{Src: 0, Dst: 9, Flits: 4}, // router 0 -> router 1: killed
		{Src: 0, Dst: 1, Flits: 4}, // same router: fine
	}); err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Delivered != 1 || res.Dropped != 1 || drops != 1 {
		t.Fatalf("delivered=%d dropped=%d hook=%d", res.Delivered, res.Dropped, drops)
	}
}

// A fault mid-worm kills the packet even though its header already passed.
func TestFaultMidWorm(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	tb := routing.FullMesh(fm)
	link, _ := fm.LinkAt(fm.Routers[0], 0)
	s := sim.New(fm.Network, router.AllowAll(fm.Network), sim.Config{})
	// Long worm: header crosses the link around cycle 1; kill at cycle 5
	// while the body is still streaming.
	if err := s.AddBatch(tb, []sim.PacketSpec{{Src: 0, Dst: 9, Flits: 40}}); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleFault(sim.LinkFault{Cycle: 5, Link: link}); err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Dropped != 1 || res.Delivered != 0 {
		t.Fatalf("delivered=%d dropped=%d, want 0/1", res.Delivered, res.Dropped)
	}
	if res.Deadlocked {
		t.Fatal("fault handling deadlocked")
	}
}

// §1: the router contains "a non-blocking crossbar switch" — three disjoint
// transfers through one 6-port router proceed simultaneously at full rate,
// each finishing exactly when it would alone.
func TestCrossbarNonBlocking(t *testing.T) {
	fm := topology.NewFullMesh(1, 6)
	tb := routing.FullMesh(fm)
	s := sim.New(fm.Network, router.AllowAll(fm.Network), sim.Config{})
	// Pairs (0,1), (2,3), (4,5): all six ports busy, no shared resource.
	specs := []sim.PacketSpec{
		{Src: 0, Dst: 1, Flits: 12},
		{Src: 2, Dst: 3, Flits: 12},
		{Src: 4, Dst: 5, Flits: 12},
	}
	if err := s.AddBatch(tb, specs); err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Delivered != 3 {
		t.Fatalf("delivered = %d", res.Delivered)
	}
	// Solo latency through one router: 1 hop + 12 flits = 13; concurrent
	// transfers must match it exactly.
	if res.MaxLatency != 13 {
		t.Errorf("max latency = %d, want 13 (crossbar must not serialize disjoint transfers)", res.MaxLatency)
	}
}

// §1: cables "can reach up to 30 meters" — longer links add pipeline
// stages. An uncontended packet's latency is flits-1 + channels*latency.
func TestLinkLatency(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	tb := routing.FullMesh(fm)
	r, err := tb.Route(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	channels := len(r.Channels)
	for _, lat := range []int{1, 2, 3} {
		s := sim.New(fm.Network, router.AllowAll(fm.Network),
			sim.Config{FIFODepth: 4, LinkLatency: lat})
		if err := s.AddBatch(tb, []sim.PacketSpec{{Src: 0, Dst: 9, Flits: 4}}); err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if res.Delivered != 1 {
			t.Fatalf("latency %d: delivered = %d", lat, res.Delivered)
		}
		want := 4 - 1 + channels*lat
		if res.MaxLatency != want {
			t.Errorf("link latency %d: packet latency = %d, want %d", lat, res.MaxLatency, want)
		}
	}
}

// Slow links change no safety property: the Figure 1 deadlock still forms,
// and the restricted routing still delivers.
func TestLinkLatencyPreservesSafety(t *testing.T) {
	rg := topology.NewRing(4, 1)
	specs := workload.Transfers(workload.RingDeadlockSet(4), 24)

	s := sim.New(rg.Network, router.AllowAll(rg.Network),
		sim.Config{FIFODepth: 2, LinkLatency: 3, DeadlockThreshold: 400})
	if err := s.AddBatch(routing.RingClockwise(rg), specs); err != nil {
		t.Fatal(err)
	}
	if res := s.Run(); !res.Deadlocked {
		t.Fatalf("slow clockwise ring did not deadlock: %+v", res)
	}

	s2 := sim.New(rg.Network, router.AllowAll(rg.Network),
		sim.Config{FIFODepth: 2, LinkLatency: 3, DeadlockThreshold: 400})
	if err := s2.AddBatch(routing.RingSeamless(rg), specs); err != nil {
		t.Fatal(err)
	}
	if res := s2.Run(); res.Deadlocked || res.Delivered != 4 {
		t.Fatalf("slow seamless ring: %+v", res)
	}
}
