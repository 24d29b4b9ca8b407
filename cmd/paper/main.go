// Command paper regenerates every table and figure of Horst's IPPS'96
// ServerNet/fractahedron paper from the library's analyses and the
// flit-level simulator.
//
// Usage:
//
//	paper [-only NAME] [-levels N] [-quick] [-out DIR] [-workers N]
//
// With no flags it prints every experiment in paper order; -only runs the
// one named (`paper -h` lists the names). A run builds each system once
// and shares it, with its contention and bisection, across experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// output is what one experiment prints. Sweep-shaped experiments also set
// rows, the row slice -out writes as CSV beside the text.
type output struct {
	text string
	rows any
}

type experiment struct {
	name string
	run  func() (output, error)
}

func main() {
	var (
		lab    experiments.Lab
		levels int
		quick  bool
	)
	text := func(s string) output { return output{text: s} }
	exps := []experiment{
		{"claims", func() (output, error) {
			cs, err := lab.Claims()
			return text(experiments.ClaimsMarkdown(cs)), err
		}},
		{"figure1", func() (output, error) {
			r, err := lab.Figure1()
			return text(r.String()), err
		}},
		{"figure2", func() (output, error) {
			r, err := lab.Figure2()
			return text(r.String()), err
		}},
		{"figure3", func() (output, error) {
			rows, err := lab.Figure3()
			return text(experiments.Figure3String(rows)), err
		}},
		{"figure5", func() (output, error) {
			rows, err := lab.Figure5(levels)
			return text(experiments.Figure5String(rows)), err
		}},
		{"table1", func() (output, error) {
			rows, err := lab.Table1(levels)
			return text(experiments.Table1String(rows)), err
		}},
		{"mesh", func() (output, error) {
			rows, err := lab.Section31Mesh()
			return text(experiments.Section31String(rows)), err
		}},
		{"hypercube", func() (output, error) {
			return text(experiments.Section32String(experiments.Section32Hypercube())), nil
		}},
		{"fattree", func() (output, error) {
			r, err := lab.Section33FatTree()
			return text(r.String()), err
		}},
		{"table2", func() (output, error) {
			r, err := lab.Table2()
			return text(r.String()), err
		}},
		{"deadlock", func() (output, error) {
			rows, err := experiments.DeadlockSummary()
			return text(experiments.DeadlockSummaryString(rows)), err
		}},
		{"avoidance", func() (output, error) {
			rows, err := lab.DeadlockAvoidanceComparison(32)
			return text(experiments.DeadlockAvoidanceString(rows)), err
		}},
		{"zoo", func() (output, error) {
			rows, err := experiments.BackgroundTopologies()
			return text(experiments.BackgroundString(rows)), err
		}},
		{"tables", func() (output, error) {
			rows, err := experiments.TableSizes()
			return text(experiments.TableSizesString(rows)), err
		}},
		{"linkclass", func() (output, error) {
			rows, err := lab.FractLinkClasses()
			return text(experiments.FractLinkClassesString(rows)), err
		}},
		{"silicon", func() (output, error) {
			return text(experiments.SiliconBudgetString(experiments.SiliconBudget(4))), nil
		}},
		{"frontier", func() (output, error) {
			rows, err := lab.CostPerformanceFrontier()
			return text(experiments.FrontierString(rows)), err
		}},
		{"locality", func() (output, error) {
			packets := 1500
			if quick {
				packets = 400
			}
			rows, err := lab.LocalitySweep([]float64{0, 0.3, 0.6, 0.9}, packets, 8, 1)
			return output{experiments.LocalitySweepString(rows), rows}, err
		}},
		{"permutations", func() (output, error) {
			rows, err := lab.PermutationStudy(8)
			return output{experiments.PermutationStudyString(rows), rows}, err
		}},
		{"saturation", func() (output, error) {
			cycles := 1200
			if quick {
				cycles = 400
			}
			rows, err := lab.Saturation(cycles, 8, 1)
			return output{experiments.SaturationString(rows), rows}, err
		}},
		{"failover", func() (output, error) {
			r, err := lab.FailoverSim(400, 8, 60, 2)
			return text(r.String()), err
		}},
		{"chaos", func() (output, error) {
			trials := 4
			if quick {
				trials = 2
			}
			cr, err := lab.ChaosRecovery(trials, 300, 4, 2)
			if err != nil {
				return output{}, err
			}
			return text(experiments.ChaosRecoveryString(cr)), nil
		}},
		{"large", func() (output, error) {
			rates := []float64{0.002, 0.01, 0.03}
			cycles := 1500
			if quick {
				rates = []float64{0.005}
				cycles = 300
			}
			rows, err := lab.LargeSim(rates, cycles, 8, 1)
			return output{experiments.LargeSimString(rows), rows}, err
		}},
		{"sweep", func() (output, error) {
			rates := []float64{0.001, 0.005, 0.01, 0.02, 0.05}
			cycles := 2000
			if quick {
				rates = []float64{0.002, 0.02}
				cycles = 500
			}
			rows, err := lab.SimSweep(rates, cycles, 8, 1)
			return output{experiments.SimSweepString(rows), rows}, err
		}},
		{"db", func() (output, error) {
			n := 16
			if quick {
				n = 4
			}
			rows, err := lab.DatabaseScenario(n, 16)
			return text(experiments.DatabaseScenarioString(rows)), err
		}},
		{"ablations", func() (output, error) {
			fifo, err := lab.AblationFIFODepth([]int{1, 2, 4, 8, 16}, 300, 8, 1)
			if err != nil {
				return output{}, err
			}
			radix, err := lab.AblationRadix([]int{3, 4, 5})
			if err != nil {
				return output{}, err
			}
			parts, err := lab.AblationFatTreePartitions()
			if err != nil {
				return output{}, err
			}
			cable, err := lab.AblationCableLength([]int{1, 2, 4}, 300, 8, 1)
			if err != nil {
				return output{}, err
			}
			return text(experiments.AblationFIFOString(fifo) +
				"\n" + experiments.AblationRadixString(radix) +
				"\n" + experiments.AblationPartitionsString(parts) +
				"\n" + experiments.AblationCableString(cable)), nil
		}},
	}

	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
	}
	only := flag.String("only", "", "run a single experiment: "+strings.Join(names, " ")+" (default: all)")
	flag.IntVar(&levels, "levels", 3, "maximum fractahedron depth for Table 1 / Figure 5")
	flag.BoolVar(&quick, "quick", false, "reduce sizes for a fast smoke run")
	outDir := flag.String("out", "", "also write each experiment's output to <dir>/<name>.txt, and a sweep's rows to <dir>/<name>.csv")
	workers := flag.Int("workers", 0, "simulation worker-pool size (0 = GOMAXPROCS); results are identical for any value")
	flag.Parse()

	if err := cliutil.First(
		cliutil.Positive("levels", levels),
		cliutil.NonNegative("workers", *workers),
	); err != nil {
		cliutil.Fail("paper", err)
	}

	// The experiments close over lab; no system is built before this.
	stats := runner.NewStats()
	lab = experiments.Lab{Workers: *workers, Stats: stats}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
	}

	if quick && levels > 2 {
		levels = 2
	}

	ran := false
	for _, e := range exps {
		if *only != "" && e.name != *only {
			continue
		}
		ran = true
		out, err := e.run()
		if err != nil {
			fail(fmt.Errorf("%s: %w", e.name, err))
		}
		fmt.Println(out.text)
		if *outDir != "" {
			if err := writeOutput(*outDir, e.name, out); err != nil {
				fail(err)
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

// writeOutput writes an experiment's text to dir/name.txt and, when it has
// rows, the rows to dir/name.csv.
func writeOutput(dir, name string, out output) error {
	if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(out.text+"\n"), 0o644); err != nil {
		return err
	}
	if out.rows == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	err = experiments.WriteCSV(f, out.rows)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "paper: %v\n", err)
	os.Exit(1)
}
