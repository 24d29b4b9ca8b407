// Robustness property (3): every shutdown path joins every goroutine.
// The four paths — normal drain, context cancellation, watchdog abort,
// and fault injection mid-run — each run under leakcheck, so a router,
// injector, consumer, or watchdog goroutine that outlives Run fails the
// test with its stack attached.
package livefabric_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/livefabric"
	"repro/internal/sim"
	"repro/internal/testutil/leakcheck"
	"repro/internal/topology"
	"repro/internal/workload"
)

// deadlockLoad is the circular-wait workload with worms long enough to
// wedge an unsafe ring: headers claim every buffer on the cycle before
// any tail can release one.
func deadlockLoad(t *testing.T, nodes int) []sim.PacketSpec {
	t.Helper()
	var specs []sim.PacketSpec
	for r := 0; r < 8; r++ {
		specs = append(specs, workload.Transfers(workload.RingDeadlockSet(nodes), 64)...)
	}
	return specs
}

func TestLeakFreeNormalDrain(t *testing.T) {
	base := leakcheck.Baseline()
	sys := buildSystem(t, "hypercube:dim=3")
	specs := uniformLoad(sys, 7)
	f := livefabric.New(sys.Net, sys.Disables,
		livefabric.Config{FIFODepth: 4, VirtualChannels: sys.Tables.NumVC()})
	if err := f.AddBatch(sys.Tables, specs); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if res := f.Run(context.Background()); res.Delivered != len(specs) {
		t.Fatalf("drain incomplete: %+v", res)
	}
	leakcheck.Check(t, base)
}

func TestLeakFreeContextCancel(t *testing.T) {
	base := leakcheck.Baseline()
	sys := buildSystem(t, "ring:size=4,unsafe")
	// A wedging workload with the watchdog held far off, so only the
	// caller's cancellation can end the run. The wire delay keeps every
	// worm in flight together, so the wedge forms on any scheduler.
	f := livefabric.New(sys.Net, sys.Disables,
		livefabric.Config{FIFODepth: 2, Epoch: time.Hour,
			LinkDelay: 200 * time.Microsecond})
	if err := f.AddBatch(sys.Tables, deadlockLoad(t, sys.Net.NumNodes())); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	defer cancel()
	res := f.Run(ctx)
	if !res.Canceled {
		t.Fatalf("run was not marked canceled: %+v", res)
	}
	leakcheck.Check(t, base)
}

func TestLeakFreeWatchdogAbort(t *testing.T) {
	base := leakcheck.Baseline()
	sys := buildSystem(t, "ring:size=4,unsafe")
	f := livefabric.New(sys.Net, sys.Disables,
		livefabric.Config{FIFODepth: 2, Epoch: 5 * time.Millisecond,
			LinkDelay: 200 * time.Microsecond})
	if err := f.AddBatch(sys.Tables, deadlockLoad(t, sys.Net.NumNodes())); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	res := f.Run(context.Background())
	if !res.Deadlocked {
		t.Fatalf("watchdog never fired: %+v", res)
	}
	leakcheck.Check(t, base)
}

// TestLeakFreeMidRunFault kills one seeded link mid-flight on the fat
// fractahedron, for several seeded (workload, link, delay) choices: the
// degraded fabric stays inside the certified disable set, so it must
// drain without wedging or leaking and account every packet as
// delivered or dropped.
func TestLeakFreeMidRunFault(t *testing.T) {
	sys := buildSystem(t, "fat-fract:levels=2")
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		link := topology.LinkID(rng.Intn(sys.Net.NumLinks()))
		delay := time.Duration(rng.Intn(4)+1) * time.Millisecond
		t.Run(fmt.Sprintf("seed=%d/link=%d@%s", seed, link, delay), func(t *testing.T) {
			base := leakcheck.Baseline()
			specs := uniformLoad(sys, 10+seed)
			// A small wire delay stretches the run so the kill lands
			// while worms are in flight, not after the drain.
			f := livefabric.New(sys.Net, sys.Disables, livefabric.Config{
				FIFODepth:       2,
				VirtualChannels: sys.Tables.NumVC(),
				LinkDelay:       time.Millisecond,
			})
			if err := f.AddBatch(sys.Tables, specs); err != nil {
				t.Fatalf("AddBatch: %v", err)
			}
			timer := time.AfterFunc(delay, func() { f.KillLink(link) })
			defer timer.Stop()
			res := f.Run(context.Background())
			if res.Deadlocked {
				dumpWitness(t, fmt.Sprintf("fat-fract:levels=2/fault-seed%d", seed), res)
				t.Fatalf("fault wedged a certified fabric: witness %v", res.Witness)
			}
			if res.Delivered+res.Dropped != len(specs) {
				t.Fatalf("fault run lost packets: %+v (want %d accounted)", res, len(specs))
			}
			t.Logf("delivered=%d dropped=%d", res.Delivered, res.Dropped)
			leakcheck.Check(t, base)
		})
	}
}
