// Command chaos runs the online fault-recovery campaign on the dual
// fat-fractahedron pair: every trial injects a seeded fault plan (a
// permanent link kill, a transient link flap, and a router kill) into the
// live X fabric, and the recovery engine detects the damage through
// end-node timeouts, hot-swaps re-certified degraded routing tables into
// the running simulator, and fails timed-out transfers over to the
// co-simulated Y fabric with capped exponential backoff.
//
// Usage:
//
//	chaos [-trials N] [-packets N] [-flits N] [-seed S] [-workers W] [-json PATH]
//	chaos -backend live [-trials N] [-packets N] [-flits N] [-seed S]
//
// The campaign is deterministic: equal seeds produce byte-identical JSON
// for any worker count.
//
// With -backend live each trial runs the concurrent goroutine fabric
// (internal/livefabric) on the fat fractahedron and kills a seeded link
// mid-flight: the fabric must drain without wedging or leaking, every
// packet accounted delivered or dropped. Wall-clock fault timing makes
// the delivered/dropped split schedule-dependent, so -json is refused
// there — the live campaign is a robustness smoke, not an artifact.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/livefabric"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	trials := flag.Int("trials", 4, "independent chaos trials")
	packets := flag.Int("packets", 300, "transfers offered per trial")
	flits := flag.Int("flits", 4, "flits per transfer")
	seed := flag.Int64("seed", 2, "campaign seed; equal seeds reproduce the campaign exactly")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS); results are identical for any value")
	jsonPath := flag.String("json", "", "write the campaign JSON to this path (\"-\" for stdout)")
	backend := flag.String("backend", "indexed", "execution backend: indexed (recovery campaign) | live (concurrent-fabric fault smoke)")
	flag.Parse()

	if err := cliutil.First(
		cliutil.Backend("backend", *backend),
		cliutil.Positive("trials", *trials),
		cliutil.Positive("packets", *packets),
		cliutil.Positive("flits", *flits),
		cliutil.NonNegative("workers", *workers),
	); err != nil {
		cliutil.Fail("chaos", err)
	}

	if *backend == "live" {
		if *jsonPath != "" {
			cliutil.Fail("chaos", fmt.Errorf("-json requires the indexed backend: live fault timing is wall-clock, its rows are not byte-deterministic"))
		}
		liveCampaign(*trials, *packets, *flits, *seed)
		return
	}

	stats := runner.NewStats()
	cr, err := experiments.ChaosRecovery(*trials, *packets, *flits, *seed,
		runner.Workers(*workers), runner.WithStats(stats))
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(experiments.ChaosRecoveryString(cr))

	if *jsonPath != "" {
		data, err := cr.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *jsonPath == "-" {
			if _, err := os.Stdout.Write(data); err != nil {
				fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
				os.Exit(1)
			}
		} else if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(1)
		}
	}
	if stats.Summary().Runs > 0 {
		fmt.Fprintln(os.Stderr, stats)
	}
}

// liveCampaign is the live-backend fault smoke: per trial, a seeded
// uniform workload on the fat fractahedron with one seeded link killed
// mid-flight. The fabric must never wedge (the degraded topology stays
// inside the certified disable set) and must account every packet as
// delivered or dropped. Exit 1 on any violation.
func liveCampaign(trials, packets, flits int, seed int64) {
	sys, name, err := core.ParseSystem("fat-fract:levels=2")
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("live fault smoke on %s: %d trials x %d packets x %d flits\n",
		name, trials, packets, flits)
	failed := false
	for i := 0; i < trials; i++ {
		rng := runner.RNG(seed, i)
		specs := workload.UniformRandom(rng, sys.Net.NumNodes(), packets, flits, 0)
		f := livefabric.New(sys.Net, sys.Disables, livefabric.Config{
			VirtualChannels: sys.Tables.NumVC(),
			// A small wire delay stretches the run so the kill lands
			// while worms are in flight.
			LinkDelay: 200 * time.Microsecond,
		})
		if err := f.AddBatch(sys.Tables, specs); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(1)
		}
		link := topology.LinkID(rng.Intn(sys.Net.NumLinks()))
		delay := time.Duration(rng.Intn(4)+1) * time.Millisecond
		timer := time.AfterFunc(delay, func() { f.KillLink(link) })
		res := f.Run(context.Background())
		timer.Stop()
		ok := !res.Deadlocked && res.Delivered+res.Dropped == len(specs)
		fmt.Printf("  trial %2d: kill link %3d @%5s delivered=%4d dropped=%3d deadlocked=%v ok=%v\n",
			i, link, delay, res.Delivered, res.Dropped, res.Deadlocked, ok)
		if res.Deadlocked {
			for _, w := range res.Witness {
				fmt.Printf("    wait-for: %s\n", w)
			}
		}
		failed = failed || !ok
	}
	if failed {
		fmt.Fprintln(os.Stderr, "chaos: live fault smoke FAILED")
		os.Exit(1)
	}
	fmt.Println("live fault smoke passed: no wedges, no lost packets")
}
