package core

import (
	"math/rand"
	"testing"

	"repro/internal/deadlock"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The conformance matrix is the cross-cutting contract: every buildable
// system must route all pairs, be deadlock-free under its shipped routing,
// survive a random load in the simulator with in-order delivery, and
// compile a verifiable routing-table image. It sweeps the same
// BuiltinSpecs registry that `fabricver -all` certifies in CI, so the
// static and dynamic matrices cannot drift apart.
func TestConformanceMatrix(t *testing.T) {
	for _, spec := range BuiltinSpecs() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			sys, _, err := ParseSystem(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Net.Validate(); err != nil {
				t.Fatalf("invalid network: %v", err)
			}
			rep, err := deadlock.Analyze(sys.Tables)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Free {
				t.Fatalf("not deadlock-free: %s", rep)
			}
			hops, err := metrics.Hops(sys.Tables)
			if err != nil {
				t.Fatal(err)
			}
			if hops.Pairs != sys.Net.NumNodes()*(sys.Net.NumNodes()-1) {
				t.Fatalf("hop analysis covered %d pairs", hops.Pairs)
			}

			// Table image integrity.
			img := routing.CompileImage(sys.Tables)
			if err := routing.VerifyImage(img, sys.Tables); err != nil {
				t.Fatal(err)
			}

			// Random load through the simulator with the disables enforced.
			rng := rand.New(rand.NewSource(42))
			n := sys.Net.NumNodes()
			packets := 4 * n
			specs := workload.UniformRandom(rng, n, packets, 6, 3*n)
			res, err := sys.Simulate(specs, sim.Config{FIFODepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			if res.Deadlocked {
				t.Fatalf("simulator deadlocked: %+v", res)
			}
			if res.Delivered != packets || res.Dropped != 0 {
				t.Fatalf("delivered=%d dropped=%d of %d", res.Delivered, res.Dropped, packets)
			}
			if res.InOrderViolations != 0 {
				t.Fatalf("order violations: %d", res.InOrderViolations)
			}

			// Cross-validate the simulator against the analytic model: an
			// uncontended packet's latency is exactly RouterHops + Flits.
			for _, pair := range [][2]int{{0, n - 1}, {n / 2, 0}} {
				if pair[0] == pair[1] {
					continue
				}
				r, err := sys.Tables.Route(pair[0], pair[1])
				if err != nil {
					t.Fatal(err)
				}
				solo, err := sys.Simulate([]sim.PacketSpec{
					{Src: pair[0], Dst: pair[1], Flits: 5},
				}, sim.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if want := r.RouterHops() + 5; solo.MaxLatency != want {
					t.Fatalf("solo latency %d->%d = %d, analytic %d",
						pair[0], pair[1], solo.MaxLatency, want)
				}
			}
		})
	}
}
