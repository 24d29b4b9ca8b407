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
//
// The campaign is deterministic: equal seeds produce byte-identical JSON
// for any worker count.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/runner"
)

func main() {
	trials := flag.Int("trials", 4, "independent chaos trials")
	packets := flag.Int("packets", 300, "transfers offered per trial")
	flits := flag.Int("flits", 4, "flits per transfer")
	seed := flag.Int64("seed", 2, "campaign seed; equal seeds reproduce the campaign exactly")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS); results are identical for any value")
	jsonPath := flag.String("json", "", "write the campaign JSON to this path (\"-\" for stdout)")
	flag.Parse()

	if err := cliutil.First(
		cliutil.Positive("trials", *trials),
		cliutil.Positive("packets", *packets),
		cliutil.Positive("flits", *flits),
		cliutil.NonNegative("workers", *workers),
	); err != nil {
		cliutil.Fail("chaos", err)
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
