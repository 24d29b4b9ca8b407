// Command netsim drives the flit-level wormhole simulator over a topology
// and a synthetic workload and reports latency, throughput, drops and
// deadlock status.
//
// Usage:
//
//	netsim -spec fat-fract:levels=2 -pattern uniform -packets 2000 -flits 8
//	netsim -spec ring:size=4,unsafe -pattern ringdeadlock -flits 32
//	netsim -spec fattree:d=4,u=2,nodes=64 -pattern bernoulli -rate 0.02 -cycles 5000
//	netsim -spec fat-fract:levels=2 -pattern db
//	netsim -spec fat-fract:levels=2 -pattern bernoulli -rate 0.02 -runs 8 -workers 4
//	netsim -spec fat-fract:levels=2 -fail-link 12 -fail-cycle 100
//	netsim -spec fat-fract:levels=2 -backend live -packets 500
//	netsim -spec ring:size=4,unsafe -backend live -pattern ringdeadlock -flits 64 -wire-delay 200us
//
// With -backend live the workload executes on the concurrent goroutine
// fabric (internal/livefabric) instead of the cycle-level engine:
// routers are goroutines, links are bounded channels, and a wedged run
// is reported with the runtime wait-for cycle witness (exit 3). The
// cycle-denominated knobs (-link-latency, -timeout, -fail-cycle) do
// not apply there; -fail-link kills the link at startup,
// and -wire-delay paces each flit by a wall-clock propagation time —
// set it on contention demos so every worm is in flight at once and the
// circular wait cannot be dodged by a fast scheduler draining worms
// one by one.
//
// Run i draws its workload from the seed derived from (-seed, i), so a
// single run is run 0 of any -runs N and of the live backend. With
// -runs N > 1 the same configuration executes N times over a worker
// pool; results are printed in run order and are identical for any
// -workers value. Patterns without randomness (bitcomp, ringdeadlock, db) repeat
// the same run N times.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/livefabric"
	"repro/internal/router"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	spec := flag.String("spec", "fat-fract:levels=2", "topology specification (see fractagen)")
	pattern := flag.String("pattern", "uniform", "uniform | bernoulli | bitcomp | hotspot | db | ringdeadlock")
	packets := flag.Int("packets", 1000, "packet count (uniform/hotspot)")
	flits := flag.Int("flits", 8, "flits per packet")
	rate := flag.Float64("rate", 0.01, "per-node start probability per cycle (bernoulli)")
	cycles := flag.Int("cycles", 2000, "injection window (bernoulli) / spread (uniform)")
	fifo := flag.Int("fifo", 4, "input FIFO depth in flits, per virtual channel")
	vcs := flag.Int("vc", 1, "virtual channels per physical channel")
	linkLat := flag.Int("link-latency", 1, "flit propagation cycles per link (cable length)")
	timeout := flag.Int("timeout", 0, "enable timeout/discard/retry recovery after this many stalled cycles")
	seed := flag.Int64("seed", 1, "workload random seed")
	unrestricted := flag.Bool("unrestricted", false, "disable path-disable enforcement")
	failLink := flag.Int("fail-link", -1, "link ID to fail mid-run (-1 = none; see fractagen for link IDs)")
	failCycle := flag.Int("fail-cycle", 0, "cycle at which -fail-link dies")
	runs := flag.Int("runs", 1, "independent runs; run i derives its seed from (-seed, i)")
	workers := flag.Int("workers", 0, "worker-pool size for -runs fan-out (0 = GOMAXPROCS)")
	backend := flag.String("backend", "indexed", "execution backend: indexed (cycle-level engine) | live (concurrent goroutine fabric)")
	wireDelay := flag.Duration("wire-delay", 0, "live backend only: wall-clock flit propagation per link; paces worms so contention demos wedge on any scheduler")
	flag.Parse()

	if err := cliutil.First(
		cliutil.Backend("backend", *backend),
		cliutil.Positive("runs", *runs),
		cliutil.NonNegative("workers", *workers),
		cliutil.Positive("flits", *flits),
		cliutil.Positive("fifo", *fifo),
		cliutil.Positive("vc", *vcs),
	); err != nil {
		cliutil.Fail("netsim", err)
	}

	sys, name, err := core.ParseSystem(*spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		os.Exit(1)
	}
	n := sys.Net.NumNodes()

	buildSpecs := func(rng *rand.Rand) ([]sim.PacketSpec, error) {
		switch *pattern {
		case "uniform":
			return workload.UniformRandom(rng, n, *packets, *flits, *cycles), nil
		case "bernoulli":
			return workload.Bernoulli(rng, n, *cycles, *flits, *rate), nil
		case "bitcomp":
			return workload.Permutation(workload.BitComplement(n), *flits), nil
		case "hotspot":
			return workload.Hotspot(rng, n, *packets, *flits, *cycles, 0, 0.3), nil
		case "db":
			cpus := []int{0, 1, 2, 3}
			disks := []int{n - 4, n - 3, n - 2, n - 1}
			return workload.DatabaseQuery(cpus, disks, *packets/4, *flits), nil
		case "ringdeadlock":
			return workload.Transfers(workload.RingDeadlockSet(n), *flits), nil
		default:
			return nil, fmt.Errorf("unknown pattern %q", *pattern)
		}
	}

	if *backend == "live" {
		dis := sys.Disables
		if *unrestricted {
			dis = router.AllowAll(sys.Net)
		}
		if *timeout != 0 || *linkLat > 1 {
			fmt.Fprintln(os.Stderr, "netsim: -timeout and -link-latency are cycle-denominated; the live backend ignores them")
		}
		fmt.Printf("%s, pattern=%s, backend=live, %d runs x %d flits/packet, FIFO depth %d\n",
			name, *pattern, *runs, *flits, *fifo)
		deadlocked := false
		for i := 0; i < *runs; i++ {
			specs, err := buildSpecs(runner.RNG(*seed, i))
			if err != nil {
				fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
				os.Exit(2)
			}
			f := livefabric.New(sys.Net, dis, livefabric.Config{FIFODepth: *fifo, VirtualChannels: *vcs, LinkDelay: *wireDelay})
			if *failLink >= 0 {
				f.KillLink(topology.LinkID(*failLink))
			}
			if err := f.AddBatch(sys.Tables, specs); err != nil {
				fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
				os.Exit(1)
			}
			res := f.Run(context.Background())
			fmt.Printf("  run %2d: injected=%5d delivered=%5d dropped=%3d in-order violations=%d deadlocked=%v\n",
				i, res.Injected, res.Delivered, res.Dropped, res.InOrderViolations, res.Deadlocked)
			if res.Deadlocked {
				deadlocked = true
				fmt.Println("  wait-for cycle:")
				for _, w := range res.Witness {
					fmt.Printf("    %s\n", w)
				}
			}
		}
		if deadlocked {
			os.Exit(3)
		}
		return
	}

	if *wireDelay > 0 {
		fmt.Fprintln(os.Stderr, "netsim: -wire-delay is wall-clock-denominated; the indexed backend ignores it (use -link-latency)")
	}
	cfg := sim.Config{FIFODepth: *fifo, VirtualChannels: *vcs, LinkLatency: *linkLat, TimeoutCycles: *timeout, DeadlockThreshold: 2000}
	simulate := func(specs []sim.PacketSpec) (sim.Result, error) {
		dis := sys.Disables
		if *unrestricted {
			dis = router.AllowAll(sys.Net)
		}
		sm := sim.New(sys.Net, dis, cfg)
		if *failLink >= 0 {
			if err := sm.ScheduleFault(sim.LinkFault{Cycle: *failCycle, Link: topology.LinkID(*failLink)}); err != nil {
				return sim.Result{}, err
			}
		}
		if err := sm.AddBatch(sys.Tables, specs); err != nil {
			return sim.Result{}, err
		}
		return sm.Run(), nil
	}

	if *runs <= 1 {
		specs, err := buildSpecs(runner.RNG(*seed, 0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
			os.Exit(2)
		}
		res, err := simulate(specs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s, pattern=%s, %d packets x %d flits, FIFO depth %d\n",
			name, *pattern, len(specs), *flits, *fifo)
		report(sys, res)
		return
	}

	type run struct {
		specs int
		res   sim.Result
	}
	stats := runner.NewStats()
	results, err := runner.Map(runner.Config{Workers: *workers},
		*runs, func(i int) (run, error) {
			specs, err := buildSpecs(runner.RNG(*seed, i))
			if err != nil {
				return run{}, err
			}
			start := time.Now()
			res, err := simulate(specs)
			if err != nil {
				return run{}, err
			}
			stats.Record(runner.Stat{Cycles: res.Cycles, FlitMoves: res.FlitMoves(), Wall: time.Since(start)})
			return run{specs: len(specs), res: res}, nil
		})
	if err != nil {
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%s, pattern=%s, %d runs x %d flits/packet, FIFO depth %d\n",
		name, *pattern, *runs, *flits, *fifo)
	deadlocked := false
	var cyc, delivered int
	var tput float64
	for i, r := range results {
		fmt.Printf("  run %2d: cycles=%6d delivered=%5d dropped=%3d latency avg=%6.1f throughput=%.3f deadlocked=%v\n",
			i, r.res.Cycles, r.res.Delivered, r.res.Dropped, r.res.AvgLatency, r.res.ThroughputFPC, r.res.Deadlocked)
		cyc += r.res.Cycles
		delivered += r.res.Delivered
		tput += r.res.ThroughputFPC
		deadlocked = deadlocked || r.res.Deadlocked
	}
	fmt.Printf("  mean: cycles=%.0f delivered=%.0f throughput=%.3f\n",
		float64(cyc)/float64(len(results)), float64(delivered)/float64(len(results)), tput/float64(len(results)))
	fmt.Fprintln(os.Stderr, stats)
	if deadlocked {
		os.Exit(3)
	}
}

// report prints the single-run result in the traditional format.
func report(sys *core.System, res sim.Result) {
	fmt.Printf("  cycles=%d delivered=%d dropped=%d deadlocked=%v\n",
		res.Cycles, res.Delivered, res.Dropped, res.Deadlocked)
	if res.Delivered > 0 {
		fmt.Printf("  latency avg=%.1f max=%d cycles, throughput=%.3f flits/cycle\n",
			res.AvgLatency, res.MaxLatency, res.ThroughputFPC)
	}
	fmt.Printf("  in-order violations: %d, retries: %d\n", res.InOrderViolations, res.Retries)
	if res.Deadlocked {
		fmt.Println("  wait-for cycle:")
		for _, ch := range res.WaitCycle {
			fmt.Printf("    %s\n", sys.Net.ChannelString(ch))
		}
		os.Exit(3)
	}
}
