package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// BenchmarkStepCycle times the per-cycle engine alone on the end-to-end
// benchmark's fract load: the 512-node level-3 fat fractahedron under its
// rate-0.032 Bernoulli sweep point (seed 1, 2000 injection cycles, 8-flit
// packets, shipped defaults). Building the simulator and stepping it to
// cycle 1000 happen outside the timer; each operation then steps one
// 100-cycle window. Every window lies in cycles [1000, 1500), so the state
// is re-warmed off the clock when a window would leave that range.
func BenchmarkStepCycle(b *testing.B) {
	const (
		rate, point = 0.032, 3 // the fract sweep's fourth and heaviest point
		warm, span  = 1000, 500
		window      = 100
	)
	sys, _, err := core.ParseSystem("fat-fract:levels=3")
	if err != nil {
		b.Fatal(err)
	}
	specs := workload.Bernoulli(runner.RNG(1, point), sys.Net.NumNodes(), 2000, 8, rate)
	var s *sim.Simulator
	rewarm := func() {
		s = sim.New(sys.Net, sys.Disables, sim.Config{})
		if err := s.AddBatch(sys.Tables, specs); err != nil {
			b.Fatal(err)
		}
		s.StepTo(warm)
		if !s.Running() {
			b.Fatalf("run ended before cycle %d", warm)
		}
	}
	rewarm()
	cycles := 0
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if s.Now()+window > warm+span {
			b.StopTimer()
			rewarm()
			b.StartTimer()
		}
		t := s.Now()
		s.StepTo(t + window)
		cycles += s.Now() - t
	}
	b.StopTimer()
	if cycles > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
	}
}

// BenchmarkSimulatorThroughput measures simulator cycles per second under a
// steady uniform load on the 64-node fat fractahedron; the reported metric
// is wall time per simulated workload of 1000 packets.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sys, _, err := core.NewFatFractahedron(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(7))
		specs := workload.UniformRandom(rng, 64, 1000, 8, 800)
		res, err := sys.Simulate(specs, sim.Config{FIFODepth: 4})
		if err != nil || res.Delivered != 1000 {
			b.Fatal(err, res.Delivered)
		}
	}
}

// BenchmarkFract3SimulatorLoad measures the raw engine on the 512-node
// 3-level fat fractahedron under a steady uniform load, a whole run from
// an empty network to the last delivery.
func BenchmarkFract3SimulatorLoad(b *testing.B) {
	sys, _, err := core.NewFatFractahedron(3)
	if err != nil {
		b.Fatal(err)
	}
	nodes := sys.Net.NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(11))
		specs := workload.UniformRandom(rng, nodes, 2000, 8, 1500)
		res, err := sys.Simulate(specs, sim.Config{FIFODepth: 4})
		if err != nil || res.Deadlocked || res.Delivered != 2000 {
			b.Fatalf("err=%v deadlocked=%v delivered=%d", err, res.Deadlocked, res.Delivered)
		}
	}
}

// BenchmarkChaosOff re-runs the exact BenchmarkFract3SimulatorLoad
// scenario with every chaos-era hook installed but disabled — a zero-rate
// corruption filter plus delivery and drop callbacks — and demands a
// bit-identical Result. Compare its ns/op against Fract3SimulatorLoad in
// the same run: the disabled hooks must add no per-cycle cost.
func BenchmarkChaosOff(b *testing.B) {
	sys, _, err := core.NewFatFractahedron(3)
	if err != nil {
		b.Fatal(err)
	}
	nodes := sys.Net.NumNodes()
	baseline, err := sys.Simulate(
		workload.UniformRandom(rand.New(rand.NewSource(11)), nodes, 2000, 8, 1500),
		sim.Config{FIFODepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(11))
		specs := workload.UniformRandom(rng, nodes, 2000, 8, 1500)
		s := sim.New(sys.Net, sys.Disables, sim.Config{FIFODepth: 4})
		if err := s.EnableCorruption(0, 11); err != nil {
			b.Fatal(err)
		}
		s.OnDelivered(func(spec sim.PacketSpec, now int) {})
		s.OnDropped(func(spec sim.PacketSpec, now int) {})
		if err := s.AddBatch(sys.Tables, specs); err != nil {
			b.Fatal(err)
		}
		if res := s.Run(); !reflect.DeepEqual(res, baseline) {
			b.Fatalf("disabled chaos hooks disturbed the result:\n got %+v\nwant %+v", res, baseline)
		}
	}
}

// BenchmarkVCSimulator measures the dateline-torus simulator with two
// virtual channels under an all-pairs load.
func BenchmarkVCSimulator(b *testing.B) {
	m := topology.NewTorus(4, 4, 1)
	tb := routing.TorusDateline(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New(m.Network, router.AllowAll(m.Network), sim.Config{FIFODepth: 2, VirtualChannels: 2})
		var specs []sim.PacketSpec
		for a := 0; a < 16; a++ {
			for d := 0; d < 16; d++ {
				if a != d {
					specs = append(specs, sim.PacketSpec{Src: a, Dst: d, Flits: 5})
				}
			}
		}
		if err := s.AddBatch(tb, specs); err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		if res.Deadlocked || res.Delivered != 240 {
			b.Fatalf("%+v", res)
		}
	}
}
