// Command paper regenerates every table and figure of Horst's IPPS'96
// ServerNet/fractahedron paper from the library's analyses and the
// flit-level simulator.
//
// Usage:
//
//	paper [-only figure1|figure2|figure3|figure5|table1|table2|mesh|hypercube|fattree|deadlock|sweep|db|ablations]
//	      [-levels N] [-quick]
//
// With no flags it prints everything in paper order.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/runner"
)

func main() {
	only := flag.String("only", "", "run a single experiment: claims figure1 figure2 figure3 figure5 table1 mesh hypercube fattree table2 deadlock avoidance zoo tables linkclass silicon frontier locality permutations saturation failover chaos large sweep db ablations (default: all)")
	levels := flag.Int("levels", 3, "maximum fractahedron depth for Table 1 / Figure 5")
	quick := flag.Bool("quick", false, "reduce sizes for a fast smoke run")
	outDir := flag.String("out", "", "also write each experiment's output to <dir>/<name>.txt")
	workers := flag.Int("workers", 0, "simulation worker-pool size (0 = GOMAXPROCS); results are identical for any value")
	flag.Parse()

	if err := cliutil.First(
		cliutil.Positive("levels", *levels),
		cliutil.NonNegative("workers", *workers),
	); err != nil {
		cliutil.Fail("paper", err)
	}

	stats := runner.NewStats()
	opts := []runner.Option{runner.Workers(*workers), runner.WithStats(stats)}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "paper: %v\n", err)
			os.Exit(1)
		}
	}

	if *quick && *levels > 2 {
		*levels = 2
	}

	type experiment struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	str := func(s string) fmt.Stringer { return stringer(s) }

	// csvRows provides machine-readable series for -out CSVs, for the
	// sweep-shaped experiments.
	csvRows := map[string]func() (any, error){
		"sweep": func() (any, error) {
			rates := []float64{0.001, 0.005, 0.01, 0.02, 0.05}
			cycles := 2000
			if *quick {
				rates = []float64{0.002, 0.02}
				cycles = 500
			}
			return experiments.SimSweep(rates, cycles, 8, 1, opts...)
		},
		"locality": func() (any, error) {
			packets := 1500
			if *quick {
				packets = 400
			}
			return experiments.LocalitySweep([]float64{0, 0.3, 0.6, 0.9}, packets, 8, 1, opts...)
		},
		"saturation": func() (any, error) {
			cycles := 1200
			if *quick {
				cycles = 400
			}
			return experiments.Saturation(cycles, 8, 1, opts...)
		},
		"large": func() (any, error) {
			rates := []float64{0.002, 0.01, 0.03}
			cycles := 1500
			if *quick {
				rates = []float64{0.005}
				cycles = 300
			}
			return experiments.LargeSim(rates, cycles, 8, 1, opts...)
		},
		"permutations": func() (any, error) { return experiments.PermutationStudy(8, opts...) },
	}

	exps := []experiment{
		{"claims", func() (fmt.Stringer, error) {
			cs, err := experiments.Claims()
			return str(experiments.ClaimsMarkdown(cs)), err
		}},
		{"figure1", func() (fmt.Stringer, error) {
			r, err := experiments.Figure1()
			return r, err
		}},
		{"figure2", func() (fmt.Stringer, error) {
			r, err := experiments.Figure2()
			return r, err
		}},
		{"figure3", func() (fmt.Stringer, error) {
			rows, err := experiments.Figure3()
			return str(experiments.Figure3String(rows)), err
		}},
		{"figure5", func() (fmt.Stringer, error) {
			rows, err := experiments.Figure5(*levels)
			return str(experiments.Figure5String(rows)), err
		}},
		{"table1", func() (fmt.Stringer, error) {
			rows, err := experiments.Table1(*levels)
			return str(experiments.Table1String(rows)), err
		}},
		{"mesh", func() (fmt.Stringer, error) {
			rows, err := experiments.Section31Mesh()
			return str(experiments.Section31String(rows)), err
		}},
		{"hypercube", func() (fmt.Stringer, error) {
			return str(experiments.Section32String(experiments.Section32Hypercube())), nil
		}},
		{"fattree", func() (fmt.Stringer, error) {
			r, err := experiments.Section33FatTree()
			return r, err
		}},
		{"table2", func() (fmt.Stringer, error) {
			r, err := experiments.Table2()
			return r, err
		}},
		{"deadlock", func() (fmt.Stringer, error) {
			rows, err := experiments.DeadlockSummary()
			return str(experiments.DeadlockSummaryString(rows)), err
		}},
		{"avoidance", func() (fmt.Stringer, error) {
			rows, err := experiments.DeadlockAvoidanceComparison(32)
			return str(experiments.DeadlockAvoidanceString(rows)), err
		}},
		{"zoo", func() (fmt.Stringer, error) {
			rows, err := experiments.BackgroundTopologies()
			return str(experiments.BackgroundString(rows)), err
		}},
		{"tables", func() (fmt.Stringer, error) {
			rows, err := experiments.TableSizes()
			return str(experiments.TableSizesString(rows)), err
		}},
		{"linkclass", func() (fmt.Stringer, error) {
			rows, err := experiments.FractLinkClasses()
			return str(experiments.FractLinkClassesString(rows)), err
		}},
		{"silicon", func() (fmt.Stringer, error) {
			return str(experiments.SiliconBudgetString(experiments.SiliconBudget(4))), nil
		}},
		{"frontier", func() (fmt.Stringer, error) {
			rows, err := experiments.CostPerformanceFrontier()
			return str(experiments.FrontierString(rows)), err
		}},
		{"locality", func() (fmt.Stringer, error) {
			packets := 1500
			if *quick {
				packets = 400
			}
			rows, err := experiments.LocalitySweep([]float64{0, 0.3, 0.6, 0.9}, packets, 8, 1, opts...)
			return str(experiments.LocalitySweepString(rows)), err
		}},
		{"permutations", func() (fmt.Stringer, error) {
			rows, err := experiments.PermutationStudy(8, opts...)
			return str(experiments.PermutationStudyString(rows)), err
		}},
		{"saturation", func() (fmt.Stringer, error) {
			cycles := 1200
			if *quick {
				cycles = 400
			}
			rows, err := experiments.Saturation(cycles, 8, 1, opts...)
			return str(experiments.SaturationString(rows)), err
		}},
		{"failover", func() (fmt.Stringer, error) {
			r, err := experiments.FailoverSim(400, 8, 60, 2, opts...)
			return r, err
		}},
		{"chaos", func() (fmt.Stringer, error) {
			trials := 4
			if *quick {
				trials = 2
			}
			cr, err := experiments.ChaosRecovery(trials, 300, 4, 2, opts...)
			if err != nil {
				return nil, err
			}
			return str(experiments.ChaosRecoveryString(cr)), nil
		}},
		{"large", func() (fmt.Stringer, error) {
			rates := []float64{0.002, 0.01, 0.03}
			cycles := 1500
			if *quick {
				rates = []float64{0.005}
				cycles = 300
			}
			rows, err := experiments.LargeSim(rates, cycles, 8, 1, opts...)
			return str(experiments.LargeSimString(rows)), err
		}},
		{"sweep", func() (fmt.Stringer, error) {
			rates := []float64{0.001, 0.005, 0.01, 0.02, 0.05}
			cycles := 2000
			if *quick {
				rates = []float64{0.002, 0.02}
				cycles = 500
			}
			rows, err := experiments.SimSweep(rates, cycles, 8, 1, opts...)
			return str(experiments.SimSweepString(rows)), err
		}},
		{"db", func() (fmt.Stringer, error) {
			n := 16
			if *quick {
				n = 4
			}
			rows, err := experiments.DatabaseScenario(n, 16, opts...)
			return str(experiments.DatabaseScenarioString(rows)), err
		}},
		{"ablations", func() (fmt.Stringer, error) {
			out := ""
			fifo, err := experiments.AblationFIFODepth([]int{1, 2, 4, 8, 16}, 300, 8, 1, opts...)
			if err != nil {
				return nil, err
			}
			out += experiments.AblationFIFOString(fifo)
			radix, err := experiments.AblationRadix([]int{3, 4, 5}, opts...)
			if err != nil {
				return nil, err
			}
			out += "\n" + experiments.AblationRadixString(radix)
			parts, err := experiments.AblationFatTreePartitions(opts...)
			if err != nil {
				return nil, err
			}
			out += "\n" + experiments.AblationPartitionsString(parts)
			cable, err := experiments.AblationCableLength([]int{1, 2, 4}, 300, 8, 1, opts...)
			if err != nil {
				return nil, err
			}
			out += "\n" + experiments.AblationCableString(cable)
			return str(out), nil
		}},
	}

	ran := false
	for _, e := range exps {
		if *only != "" && e.name != *only {
			continue
		}
		ran = true
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "paper: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		text := out.String()
		fmt.Println(text)
		if *outDir != "" {
			path := filepath.Join(*outDir, e.name+".txt")
			if err := os.WriteFile(path, []byte(text+"\n"), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "paper: %v\n", err)
				os.Exit(1)
			}
			if rowsFn := csvRows[e.name]; rowsFn != nil {
				rows, err := rowsFn()
				if err != nil {
					fmt.Fprintf(os.Stderr, "paper: %s: %v\n", e.name, err)
					os.Exit(1)
				}
				f, err := os.Create(filepath.Join(*outDir, e.name+".csv"))
				if err != nil {
					fmt.Fprintf(os.Stderr, "paper: %v\n", err)
					os.Exit(1)
				}
				err = experiments.WriteCSV(f, rows)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "paper: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "paper: unknown experiment %q\n", *only)
		os.Exit(2)
	}
	if stats.Summary().Runs > 0 {
		fmt.Fprintln(os.Stderr, stats)
	}
}

type stringer string

func (s stringer) String() string { return string(s) }
