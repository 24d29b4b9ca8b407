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
// runner.Map is the one worker pool, used at two levels: the experiments
// run side by side on it, and inside each experiment its points fan out
// on it again. Both use -workers; output is printed in paper order, so
// stdout is identical for any value, and -workers 1 runs everything
// serially.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

// params are one run's settings, shared by every experiment.
type params struct {
	lab    *experiments.Lab
	levels int  // maximum fractahedron depth for Table 1 / Figure 5
	quick  bool // reduced sizes
}

type experiment struct {
	name string
	run  func(p params) (output, error)
}

func text(s string) output { return output{text: s} }

// paperExperiments is every experiment in paper order.
var paperExperiments = []experiment{
	{"claims", func(p params) (output, error) {
		cs, err := p.lab.Claims()
		return text(experiments.ClaimsMarkdown(cs)), err
	}},
	{"figure1", func(p params) (output, error) {
		r, err := p.lab.Figure1()
		return text(r.String()), err
	}},
	{"figure2", func(p params) (output, error) {
		r, err := p.lab.Figure2()
		return text(r.String()), err
	}},
	{"figure3", func(p params) (output, error) {
		rows, err := p.lab.Figure3()
		return text(experiments.Figure3String(rows)), err
	}},
	{"figure5", func(p params) (output, error) {
		rows, err := p.lab.Figure5(p.levels)
		return text(experiments.Figure5String(rows)), err
	}},
	{"table1", func(p params) (output, error) {
		rows, err := p.lab.Table1(p.levels)
		return text(experiments.Table1String(rows)), err
	}},
	{"mesh", func(p params) (output, error) {
		rows, err := p.lab.Section31Mesh()
		return text(experiments.Section31String(rows)), err
	}},
	{"hypercube", func(p params) (output, error) {
		return text(experiments.Section32String(experiments.Section32Hypercube())), nil
	}},
	{"fattree", func(p params) (output, error) {
		r, err := p.lab.Section33FatTree()
		return text(r.String()), err
	}},
	{"table2", func(p params) (output, error) {
		r, err := p.lab.Table2()
		return text(r.String()), err
	}},
	{"deadlock", func(p params) (output, error) {
		rows, err := experiments.DeadlockSummary()
		return text(experiments.DeadlockSummaryString(rows)), err
	}},
	{"avoidance", func(p params) (output, error) {
		rows, err := p.lab.DeadlockAvoidanceComparison(32)
		return text(experiments.DeadlockAvoidanceString(rows)), err
	}},
	{"zoo", func(p params) (output, error) {
		rows, err := experiments.BackgroundTopologies()
		return text(experiments.BackgroundString(rows)), err
	}},
	{"tables", func(p params) (output, error) {
		rows, err := experiments.TableSizes()
		return text(experiments.TableSizesString(rows)), err
	}},
	{"linkclass", func(p params) (output, error) {
		rows, err := p.lab.FractLinkClasses()
		return text(experiments.FractLinkClassesString(rows)), err
	}},
	{"silicon", func(p params) (output, error) {
		return text(experiments.SiliconBudgetString(experiments.SiliconBudget(4))), nil
	}},
	{"frontier", func(p params) (output, error) {
		rows, err := p.lab.CostPerformanceFrontier()
		return text(experiments.FrontierString(rows)), err
	}},
	{"locality", func(p params) (output, error) {
		packets := 1500
		if p.quick {
			packets = 400
		}
		rows, err := p.lab.LocalitySweep([]float64{0, 0.3, 0.6, 0.9}, packets, 8, 1)
		return output{experiments.LocalitySweepString(rows), rows}, err
	}},
	{"permutations", func(p params) (output, error) {
		rows, err := p.lab.PermutationStudy(8)
		return output{experiments.PermutationStudyString(rows), rows}, err
	}},
	{"saturation", func(p params) (output, error) {
		cycles := 1200
		if p.quick {
			cycles = 400
		}
		rows, err := p.lab.Saturation(cycles, 8, 1)
		return output{experiments.SaturationString(rows), rows}, err
	}},
	{"failover", func(p params) (output, error) {
		r, err := p.lab.FailoverSim(400, 8, 60, 2)
		return text(r.String()), err
	}},
	{"chaos", func(p params) (output, error) {
		trials := 4
		if p.quick {
			trials = 2
		}
		cr, err := p.lab.ChaosRecovery(trials, 300, 4, 2)
		if err != nil {
			return output{}, err
		}
		return text(experiments.ChaosRecoveryString(cr)), nil
	}},
	{"large", func(p params) (output, error) {
		rates := []float64{0.002, 0.01, 0.03}
		cycles := 1500
		if p.quick {
			rates = []float64{0.005}
			cycles = 300
		}
		rows, err := p.lab.LargeSim(rates, cycles, 8, 1)
		return output{experiments.LargeSimString(rows), rows}, err
	}},
	{"sweep", func(p params) (output, error) {
		rates := []float64{0.001, 0.005, 0.01, 0.02, 0.05}
		cycles := 2000
		if p.quick {
			rates = []float64{0.002, 0.02}
			cycles = 500
		}
		rows, err := p.lab.SimSweep(rates, cycles, 8, 1)
		return output{experiments.SimSweepString(rows), rows}, err
	}},
	{"db", func(p params) (output, error) {
		n := 16
		if p.quick {
			n = 4
		}
		rows, err := p.lab.DatabaseScenario(n, 16)
		return text(experiments.DatabaseScenarioString(rows)), err
	}},
	{"ablations", func(p params) (output, error) {
		fifo, err := p.lab.AblationFIFODepth([]int{1, 2, 4, 8, 16}, 300, 8, 1)
		if err != nil {
			return output{}, err
		}
		radix, err := p.lab.AblationRadix([]int{3, 4, 5})
		if err != nil {
			return output{}, err
		}
		parts, err := p.lab.AblationFatTreePartitions()
		if err != nil {
			return output{}, err
		}
		cable, err := p.lab.AblationCableLength([]int{1, 2, 4}, 300, 8, 1)
		if err != nil {
			return output{}, err
		}
		return text(experiments.AblationFIFOString(fifo) +
			"\n" + experiments.AblationRadixString(radix) +
			"\n" + experiments.AblationPartitionsString(parts) +
			"\n" + experiments.AblationCableString(cable)), nil
	}},
}

// errUnknown is regenerate's error for an -only name no experiment has.
var errUnknown = errors.New("unknown experiment")

func main() {
	names := make([]string, len(paperExperiments))
	for i, e := range paperExperiments {
		names[i] = e.name
	}
	var p params
	only := flag.String("only", "", "run a single experiment: "+strings.Join(names, " ")+" (default: all)")
	flag.IntVar(&p.levels, "levels", 3, "maximum fractahedron depth for Table 1 / Figure 5")
	flag.BoolVar(&p.quick, "quick", false, "reduce sizes for a fast smoke run")
	outDir := flag.String("out", "", "also write each experiment's output to <dir>/<name>.txt, and a sweep's rows to <dir>/<name>.csv")
	workers := flag.Int("workers", 0, "worker-pool size, both across experiments and across each experiment's simulation points (0 = GOMAXPROCS); results are identical for any value")
	flag.Parse()

	if err := cliutil.First(
		cliutil.Positive("levels", p.levels),
		cliutil.NonNegative("workers", *workers),
	); err != nil {
		cliutil.Fail("paper", err)
	}

	stats := runner.NewStats()
	p.lab = &experiments.Lab{Workers: *workers, Stats: stats}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
	}

	if p.quick && p.levels > 2 {
		p.levels = 2
	}

	if err := regenerate(os.Stdout, paperExperiments, *only, p, *outDir); err != nil {
		if errors.Is(err, errUnknown) {
			fmt.Fprintf(os.Stderr, "paper: %v\n", err)
			os.Exit(2)
		}
		fail(err)
	}
	if stats.Summary().Runs > 0 {
		fmt.Fprintln(os.Stderr, stats)
	}
}

// regenerate runs the experiment named only, or every one when only is
// empty, side by side on a pool of p.lab.Workers. Each experiment carries
// its own error, so after the pool returns regenerate prints the texts to
// w in list order and writes them under outDir (when set), and stops at
// the first failure with every earlier text printed: the output of a
// serial run, for any pool size.
func regenerate(w io.Writer, exps []experiment, only string, p params, outDir string) error {
	var sel []experiment
	for _, e := range exps {
		if only == "" || e.name == only {
			sel = append(sel, e)
		}
	}
	if len(sel) == 0 {
		return fmt.Errorf("%w %q", errUnknown, only)
	}
	type result struct {
		out output
		err error
	}
	// fn never fails, so Map runs every experiment and returns no error.
	res, _ := runner.Map(runner.Config{Workers: p.lab.Workers}, len(sel), func(i int) (result, error) {
		out, err := sel[i].run(p)
		return result{out, err}, nil
	})
	for i, r := range res {
		if r.err != nil {
			return fmt.Errorf("%s: %w", sel[i].name, r.err)
		}
		fmt.Fprintln(w, r.out.text)
		if outDir != "" {
			if err := writeOutput(outDir, sel[i].name, r.out); err != nil {
				return err
			}
		}
	}
	return nil
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
