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
// for any worker count. With -json - the JSON is all of stdout and the
// text summary goes to stderr, so the output pipes straight into jq.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one chaos invocation with the given arguments, printing
// results to stdout and diagnostics to stderr, and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trials := fs.Int("trials", 4, "independent chaos trials")
	packets := fs.Int("packets", 300, "transfers offered per trial")
	flits := fs.Int("flits", 4, "flits per transfer")
	seed := fs.Int64("seed", 2, "campaign seed; equal seeds reproduce the campaign exactly")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS); results are identical for any value")
	jsonPath := fs.String("json", "", "write the campaign JSON to this path (\"-\" for stdout, the summary then goes to stderr)")
	if err := fs.Parse(args); err != nil {
		// The exit statuses flag.ExitOnError would have used.
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if err := cliutil.First(
		cliutil.Positive("trials", *trials),
		cliutil.Positive("packets", *packets),
		cliutil.Positive("flits", *flits),
		cliutil.NonNegative("workers", *workers),
	); err != nil {
		fmt.Fprintf(stderr, "chaos: %v\n", err)
		fs.Usage()
		return 2
	}

	lab := experiments.Lab{Workers: *workers, Stats: runner.NewStats()}
	cr, err := lab.ChaosRecovery(*trials, *packets, *flits, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: %v\n", err)
		return 1
	}
	summary := stdout
	if *jsonPath == "-" {
		summary = stderr
	}
	fmt.Fprint(summary, experiments.ChaosRecoveryString(cr))

	if *jsonPath != "" {
		data, err := cr.JSON()
		if err != nil {
			fmt.Fprintf(stderr, "chaos: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if *jsonPath == "-" {
			_, err = stdout.Write(data)
		} else {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "chaos: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stderr, lab.Stats)
	return 0
}
