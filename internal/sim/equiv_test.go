package sim_test

// Cross-implementation equivalence: the indexed-state simulator must
// reproduce the retired map-based implementation (preserved as
// internal/sim/simref) byte for byte — every Result field, including the
// deadlock witness and per-channel flit counts — across every builtin
// topology spec and a matrix of load scenarios. The timeout scenarios stay
// on LinkLatency=1 / VirtualChannels=1 because the timeout semantics were
// deliberately fixed for the other corners; bugfix_test.go pins those
// divergences explicitly.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/sim/simref"
	"repro/internal/topology"
	"repro/internal/workload"
)

// dropRec captures an OnDropped callback so hook behavior is compared too.
type dropRec struct {
	Spec sim.PacketSpec
	Now  int
}

type equivScenario struct {
	name  string
	cfg   sim.Config
	fault bool // kill a link mid-run and compare drop hooks
}

func equivScenarios() []equivScenario {
	return []equivScenario{
		{name: "uniform", cfg: sim.Config{FIFODepth: 4}},
		{name: "bernoulli", cfg: sim.Config{FIFODepth: 4}},
		{name: "vc2", cfg: sim.Config{FIFODepth: 2, VirtualChannels: 2}},
		{name: "latency3", cfg: sim.Config{FIFODepth: 4, LinkLatency: 3}},
		{name: "timeout", cfg: sim.Config{
			FIFODepth: 2, TimeoutCycles: 20, MaxRetries: 2, DeadlockThreshold: 4000,
		}},
		{name: "fault", cfg: sim.Config{FIFODepth: 4}, fault: true},
	}
}

// engine is the driving surface the indexed engine and simref share.
type engine interface {
	OnDropped(hook func(spec sim.PacketSpec, now int))
	ScheduleFault(f sim.LinkFault) error
	AddBatch(t *routing.Tables, specs []sim.PacketSpec) error
	Run() sim.Result
}

// runEngine schedules faults, loads specs, runs e to completion and returns
// its Result together with the drop-hook stream.
func runEngine(t *testing.T, e engine, sys *core.System,
	specs []sim.PacketSpec, faults []sim.LinkFault) (sim.Result, []dropRec) {
	t.Helper()
	var drops []dropRec
	e.OnDropped(func(spec sim.PacketSpec, now int) {
		drops = append(drops, dropRec{spec, now})
	})
	for _, f := range faults {
		if err := e.ScheduleFault(f); err != nil {
			t.Fatalf("ScheduleFault(%+v): %v", f, err)
		}
	}
	if err := e.AddBatch(sys.Tables, specs); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	return e.Run(), drops
}

// runEquivPair drives identical inputs through both implementations and
// fails on any Result or drop-hook divergence.
func runEquivPair(t *testing.T, sys *core.System, cfg sim.Config,
	specs []sim.PacketSpec, faults []sim.LinkFault) {
	t.Helper()
	want, oldDrops := runEngine(t, simref.New(sys.Net, sys.Disables, cfg), sys, specs, faults)
	got, newDrops := runEngine(t, sim.New(sys.Net, sys.Disables, cfg), sys, specs, faults)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Result diverged\n new: %+v\n old: %+v", got, want)
	}
	if !reflect.DeepEqual(newDrops, oldDrops) {
		t.Fatalf("drop hooks diverged\n new: %+v\n old: %+v", newDrops, oldDrops)
	}
}

// TestEquivalenceAcrossBuiltins sweeps every builtin system spec through
// the scenario matrix, comparing the full Result structs. Large systems run
// a reduced matrix to keep the suite fast; the small ones see every corner.
func TestEquivalenceAcrossBuiltins(t *testing.T) {
	for _, specName := range core.BuiltinSpecs() {
		specName := specName
		t.Run(specName, func(t *testing.T) {
			t.Parallel()
			sys, _, err := core.ParseSystem(specName)
			if err != nil {
				t.Fatalf("ParseSystem(%q): %v", specName, err)
			}
			nodes := sys.Net.NumNodes()
			if nodes < 2 {
				t.Skipf("%s has %d nodes", specName, nodes)
			}
			scenarios := equivScenarios()
			if nodes > 72 {
				// The big fabrics only need smoke-level coverage here; the
				// small systems exercise every corner of the matrix.
				scenarios = scenarios[:2]
			}
			for i, sc := range scenarios {
				sc := sc
				seed := int64(1000*len(specName) + 7*i)
				rng := rand.New(rand.NewSource(seed))

				packets := 2 * nodes
				if packets > 96 {
					packets = 96
				}
				var specs []sim.PacketSpec
				if sc.name == "bernoulli" {
					specs = workload.Bernoulli(rng, nodes, 80, 3, 0.3)
				} else {
					specs = workload.UniformRandom(rng, nodes, packets, 4, 50)
				}
				var faults []sim.LinkFault
				if sc.fault {
					faults = []sim.LinkFault{{
						Cycle: 20,
						Link:  topology.LinkID(rng.Intn(sys.Net.NumLinks())),
					}}
				}
				t.Run(sc.name, func(t *testing.T) {
					runEquivPair(t, sys, sc.cfg, specs, faults)
				})
			}
		})
	}
}

// TestEquivalenceSaturatedVC3 drives the 64-node fat fractahedron past
// saturation with three VCs per channel. Buffer keys (channel*3 + vc) then
// straddle the 64-bit words of the active-buffer bitset, and many output
// ports of one word request in the same cycle, so the bitset scans must
// reproduce the reference's sorted visiting and grant order exactly.
func TestEquivalenceSaturatedVC3(t *testing.T) {
	sys, _, err := core.ParseSystem("fat-fract:levels=2")
	if err != nil {
		t.Fatalf("ParseSystem: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	specs := workload.Bernoulli(rng, sys.Net.NumNodes(), 300, 8, 0.06)
	cfg := sim.Config{FIFODepth: 4, VirtualChannels: 3}
	runEquivPair(t, sys, cfg, specs, nil)

	// Sanity: the load really saturates the fabric. Zero-load latency is
	// about 16 cycles; queueing past saturation multiplies it.
	s := sim.New(sys.Net, sys.Disables, cfg)
	if err := s.AddBatch(sys.Tables, specs); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if res := s.Run(); res.Delivered != len(specs) || res.AvgLatency < 64 {
		t.Fatalf("delivered %d of %d, avg latency %.1f: not saturated",
			res.Delivered, len(specs), res.AvgLatency)
	}
}

// TestEquivalenceUnsafeRingDeadlock pins the deadlock path: the unbroken
// 4-ring under the classic cyclic transfer set must deadlock in both
// implementations with the identical wait-for-graph witness.
func TestEquivalenceUnsafeRingDeadlock(t *testing.T) {
	sys, _, err := core.ParseSystem("ring:size=4,unsafe")
	if err != nil {
		t.Fatalf("ParseSystem: %v", err)
	}
	specs := workload.Transfers(workload.RingDeadlockSet(4), 8)
	runEquivPair(t, sys, sim.Config{FIFODepth: 2}, specs, nil)

	// Sanity: this scenario really does deadlock (otherwise the witness
	// comparison above is vacuous).
	s := sim.New(sys.Net, sys.Disables, sim.Config{FIFODepth: 2})
	if err := s.AddBatch(sys.Tables, specs); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	res := s.Run()
	if !res.Deadlocked || len(res.WaitCycle) == 0 {
		t.Fatalf("expected a deadlock with witness, got %+v", res)
	}
}

// TestEquivalenceTimeoutRecovery pins the timeout/retry/drop machinery:
// the same unsafe ring recovers via timeouts when they are enabled, and
// both implementations agree on every retry and drop.
func TestEquivalenceTimeoutRecovery(t *testing.T) {
	sys, _, err := core.ParseSystem("ring:size=4,unsafe")
	if err != nil {
		t.Fatalf("ParseSystem: %v", err)
	}
	specs := workload.Transfers(workload.RingDeadlockSet(4), 32)
	cfg := sim.Config{
		FIFODepth: 2, TimeoutCycles: 40, MaxRetries: 2, DeadlockThreshold: 4000,
	}
	runEquivPair(t, sys, cfg, specs, nil)
}

// TestEquivalenceChaosDisabled proves the chaos-era hooks are free when
// disabled: the indexed engine — with a zero-rate corruption filter
// installed and driven through the incremental Start/StepTo/Finish API
// instead of the monolithic Run — still
// reproduces the reference engine byte for byte, drop hooks included.
func TestEquivalenceChaosDisabled(t *testing.T) {
	sys, _, err := core.ParseSystem("fat-fract:levels=2")
	if err != nil {
		t.Fatalf("ParseSystem: %v", err)
	}
	rng := rand.New(rand.NewSource(99))
	specs := workload.UniformRandom(rng, sys.Net.NumNodes(), 96, 4, 50)
	fault := sim.LinkFault{Cycle: 20, Link: topology.LinkID(rng.Intn(sys.Net.NumLinks()))}

	want, oldDrops := runEngine(t, simref.New(sys.Net, sys.Disables, sim.Config{FIFODepth: 4}),
		sys, specs, []sim.LinkFault{fault})

	newSim := sim.New(sys.Net, sys.Disables, sim.Config{FIFODepth: 4})
	var newDrops []dropRec
	newSim.OnDropped(func(spec sim.PacketSpec, now int) {
		newDrops = append(newDrops, dropRec{spec, now})
	})
	if err := newSim.EnableCorruption(0, 123); err != nil {
		t.Fatalf("EnableCorruption(0): %v", err)
	}
	if err := newSim.ScheduleFault(fault); err != nil {
		t.Fatalf("new ScheduleFault: %v", err)
	}
	if err := newSim.AddBatch(sys.Tables, specs); err != nil {
		t.Fatalf("new AddBatch: %v", err)
	}

	newSim.Start()
	for newSim.Running() {
		newSim.StepTo(newSim.Now() + 1)
	}
	got := newSim.Finish()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step-driven Result diverged from reference\n new: %+v\n old: %+v", got, want)
	}
	if !reflect.DeepEqual(newDrops, oldDrops) {
		t.Fatalf("drop hooks diverged\n new: %+v\n old: %+v", newDrops, oldDrops)
	}
}

// TestSimrefRejectsTransientFaults pins the reference engine's contract:
// it does not model link repair, and says so instead of silently treating
// a flap as a permanent kill.
func TestSimrefRejectsTransientFaults(t *testing.T) {
	sys, _, err := core.ParseSystem("ring:size=4")
	if err != nil {
		t.Fatalf("ParseSystem: %v", err)
	}
	s := simref.New(sys.Net, sys.Disables, sim.Config{})
	if err := s.ScheduleFault(sim.LinkFault{Cycle: 5, Link: 0, RepairCycle: 50}); err == nil {
		t.Fatal("simref accepted a transient fault it cannot model")
	}
}

// TestNewEngineDeterminism re-runs one loaded scenario and demands the
// Results match exactly — no hidden iteration-order or allocation-reuse
// dependence survives in the indexed engine.
func TestNewEngineDeterminism(t *testing.T) {
	sys, _, err := core.ParseSystem("fat-fract:levels=2")
	if err != nil {
		t.Fatalf("ParseSystem: %v", err)
	}
	run := func() (sim.Result, []dropRec) {
		rng := rand.New(rand.NewSource(42))
		specs := workload.UniformRandom(rng, sys.Net.NumNodes(), 96, 4, 50)
		s := sim.New(sys.Net, sys.Disables, sim.Config{FIFODepth: 2, VirtualChannels: 2})
		var drops []dropRec
		s.OnDropped(func(spec sim.PacketSpec, now int) {
			drops = append(drops, dropRec{spec, now})
		})
		if err := s.ScheduleFault(sim.LinkFault{Cycle: 30, Link: 3}); err != nil {
			t.Fatalf("ScheduleFault: %v", err)
		}
		if err := s.AddBatch(sys.Tables, specs); err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
		return s.Run(), drops
	}
	r1, d1 := run()
	r2, d2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("non-deterministic Result:\n run1: %+v\n run2: %+v", r1, r2)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("non-deterministic drop hooks:\n run1: %+v\n run2: %+v", d1, d2)
	}
}
