package sim_test

// Differential fuzzing of the indexed engine against the reference engine
// in internal/sim/simref: an arbitrary scenario — builtin topology, load,
// virtual channels, a schedule of permanent link faults, and timeout
// recovery — must produce a Result and drop-hook stream byte-identical to
// the reference's. simref models neither transient nor router faults nor
// corruption, so those stay out; timeouts run at VirtualChannels=1 only,
// the corner whose semantics both engines share (bugfix_test.go pins the
// others). The equivalence matrix in equiv_test.go pins chosen corners;
// this is the adversarial sweep between them, in the style of
// internal/fabricver's FuzzMutatedTetra.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func FuzzIndexedVsReference(f *testing.F) {
	f.Add(uint8(0), uint8(40), int64(1), uint8(0), uint8(0), uint8(0))  // plain uniform load
	f.Add(uint8(3), uint8(90), int64(7), uint8(1), uint8(0), uint8(0))  // VC2
	f.Add(uint8(5), uint8(20), int64(11), uint8(0), uint8(1), uint8(0)) // timeouts
	f.Add(uint8(2), uint8(60), int64(13), uint8(2), uint8(0), uint8(2)) // VC3, two link faults
	f.Add(uint8(7), uint8(75), int64(17), uint8(1), uint8(1), uint8(1)) // timeouts + a link fault
	f.Add(uint8(9), uint8(55), int64(23), uint8(1), uint8(0), uint8(1)) // VC2 + a link fault
	f.Fuzz(func(t *testing.T, specSel, load uint8, seed int64, vcSel, timeoutSel, faultSel uint8) {
		builtins := core.BuiltinSpecs()
		sys, _, err := core.ParseSystem(builtins[int(specSel)%len(builtins)])
		if err != nil {
			t.Fatal(err)
		}
		nodes := sys.Net.NumNodes()
		if nodes < 2 {
			t.Skip("single-node system")
		}

		rng := rand.New(rand.NewSource(seed))
		packets := 8 + int(load)%41
		specs := workload.UniformRandom(rng, nodes, packets, 2+int(load)%5, 50)

		cfg := sim.Config{
			FIFODepth:         2 + int(load)%3,
			VirtualChannels:   1 + int(vcSel)%3,
			DeadlockThreshold: 2000,
			MaxCycles:         20000,
		}
		if timeoutSel%2 == 1 {
			cfg.VirtualChannels = 1
			cfg.TimeoutCycles = 20 + int(timeoutSel)%40
			cfg.MaxRetries = int(timeoutSel) % 3
			cfg.DeadlockThreshold = 4000
		}

		var faults []sim.LinkFault
		for i := 0; i < int(faultSel)%3; i++ {
			faults = append(faults, sim.LinkFault{
				Cycle: 1 + rng.Intn(200),
				Link:  topology.LinkID(rng.Intn(sys.Net.NumLinks())),
			})
		}

		runEquivPair(t, sys, cfg, specs, faults)
	})
}
