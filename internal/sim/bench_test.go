package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
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
