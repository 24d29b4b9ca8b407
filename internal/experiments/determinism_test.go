package experiments

// The archetype headline tests: the parallel experiment engine must return
// bit-identical rows for every worker count (the (seed, point index)
// seeding contract), and the parallel SimSweep must reproduce a plain
// sequential reference implementation exactly — both live here so any
// change to the seeding contract or the merge order fails loudly.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// sweepGrid is the shared small grid: cheap enough for -race, rich enough
// to exercise multiple rates and all three topologies.
var sweepGrid = struct {
	rates  []float64
	cycles int
	flits  int
	seed   int64
}{[]float64{0.002, 0.02}, 400, 8, 1}

// TestSimSweepDeterminism runs the same sweep with 1, 4 and GOMAXPROCS
// workers and requires deeply equal rows — pinning that results depend
// only on (seed, point index), never on scheduling.
func TestSimSweepDeterminism(t *testing.T) {
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var want []SweepRow
	for _, w := range counts {
		lab := Lab{Workers: w}
		rows, err := lab.SimSweep(sweepGrid.rates, sweepGrid.cycles, sweepGrid.flits, sweepGrid.seed)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("workers=%d produced different rows:\n got %+v\nwant %+v", w, rows, want)
		}
	}
}

// TestSaturationDeterminism pins the same property for the adaptive knee
// search, whose probe ladder runs inside each worker.
func TestSaturationDeterminism(t *testing.T) {
	var want []SaturationRow
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		lab := Lab{Workers: w}
		rows, err := lab.Saturation(300, 8, 1)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("workers=%d diverged:\n got %+v\nwant %+v", w, rows, want)
		}
	}
}

// TestLargeSimDeterminism covers the 512-node points (the heaviest runs,
// and the ones most likely to expose a shared-state race under -race).
func TestLargeSimDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("512-node simulation")
	}
	var want []LargeSimRow
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		lab := Lab{Workers: w}
		rows, err := lab.LargeSim([]float64{0.004}, 200, 8, 3)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("workers=%d diverged", w)
		}
	}
}

// simSweepSequentialRef is a plain nested-loop reference implementation of
// SimSweep — no runner, no goroutines — enforcing the same seeding
// contract (workload from (seed, rate index)). The parallel path must
// reproduce it bit for bit.
func simSweepSequentialRef(rates []float64, warmCycles, flits int, seed int64) ([]SweepRow, error) {
	ftSys, _, err := core.NewFatTree(4, 2, 64)
	if err != nil {
		return nil, err
	}
	frSys, _, err := core.NewFatFractahedron(2)
	if err != nil {
		return nil, err
	}
	thinSys, _, err := core.NewThinFractahedron(2)
	if err != nil {
		return nil, err
	}
	systems := []struct {
		name string
		sys  *core.System
	}{{"4-2 fat tree", ftSys}, {"fat fractahedron", frSys}, {"thin fractahedron", thinSys}}

	var rows []SweepRow
	for ri, rate := range rates {
		for _, s := range systems {
			rng := runner.RNG(seed, ri)
			specs := workload.Bernoulli(rng, s.sys.Net.NumNodes(), warmCycles, flits, rate)
			res, err := s.sys.Simulate(specs, sim.Config{FIFODepth: 4})
			if err != nil {
				return nil, err
			}
			rows = append(rows, SweepRow{
				Topology:   s.name,
				Rate:       rate,
				Offered:    rate * float64(flits),
				Delivered:  res.Delivered,
				AvgLatency: res.AvgLatency,
				Throughput: res.ThroughputFPC,
				Deadlocked: res.Deadlocked,
			})
		}
	}
	return rows, nil
}

// TestSimSweepMatchesSequential is the equivalence test: parallel engine
// output == sequential reference, element for element.
func TestSimSweepMatchesSequential(t *testing.T) {
	want, err := simSweepSequentialRef(sweepGrid.rates, sweepGrid.cycles, sweepGrid.flits, sweepGrid.seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := new(Lab).SimSweep(sweepGrid.rates, sweepGrid.cycles, sweepGrid.flits, sweepGrid.seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel sweep diverged from sequential reference:\n got %+v\nwant %+v", got, want)
	}
}

// TestSimSweepGolden pins the sweep rows to a committed fixture, so the
// seeding contract cannot drift silently across refactors. Regenerate with
// `go test ./internal/experiments -run Golden -update` and review the diff.
func TestSimSweepGolden(t *testing.T) {
	rows, err := new(Lab).SimSweep(sweepGrid.rates, sweepGrid.cycles, sweepGrid.flits, sweepGrid.seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "simsweep.golden.json")
	if *update {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	var want []SweepRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("sweep rows diverged from golden fixture:\n got %+v\nwant %+v", rows, want)
	}
}

// TestCampaignStats covers every Lab method that records cost, on its
// smallest grid: a run with stats attached on two workers returns the
// rows of a plain one-worker run, and the stats count one run per
// simulation with real cycles, flit moves and wall time.
func TestCampaignStats(t *testing.T) {
	cases := []struct {
		name  string
		runs  int // simulations run; 0 for Saturation's adaptive ladder, which need only record some
		large bool
		run   func(l *Lab) (any, error)
	}{
		{"SimSweep", 3, false, func(l *Lab) (any, error) { return l.SimSweep([]float64{0.005}, 200, 8, 1) }},
		{"DatabaseScenario", 2, false, func(l *Lab) (any, error) { return l.DatabaseScenario(2, 4) }},
		{"LargeSim", 2, true, func(l *Lab) (any, error) { return l.LargeSim([]float64{0.004}, 200, 8, 3) }},
		{"Saturation", 0, false, func(l *Lab) (any, error) { return l.Saturation(200, 8, 1) }},
		{"LocalitySweep", 6, false, func(l *Lab) (any, error) { return l.LocalitySweep([]float64{0, 0.9}, 100, 4, 1) }},
		{"PermutationStudy", 20, false, func(l *Lab) (any, error) { return l.PermutationStudy(2) }},
		{"AblationFIFODepth", 2, false, func(l *Lab) (any, error) { return l.AblationFIFODepth([]int{2, 8}, 100, 4, 1) }},
		{"AblationCableLength", 2, false, func(l *Lab) (any, error) { return l.AblationCableLength([]int{1, 2}, 100, 4, 1) }},
		{"FailoverSim", 1, false, func(l *Lab) (any, error) { return l.FailoverSim(300, 8, 50, 7) }},
		{"ChaosRecovery", 1, false, func(l *Lab) (any, error) { return l.ChaosRecovery(1, 100, 3, 2) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.large && testing.Short() {
				t.Skip("512-node simulation")
			}
			want, err := c.run(&Lab{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			st := runner.NewStats()
			got, err := c.run(&Lab{Workers: 2, Stats: st})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stats-attached two-worker rows diverged:\n got %+v\nwant %+v", got, want)
			}
			sum := st.Summary()
			if sum.Runs == 0 || (c.runs > 0 && sum.Runs != c.runs) {
				t.Fatalf("recorded %d runs, want %d", sum.Runs, c.runs)
			}
			if sum.Cycles == 0 || sum.FlitMoves == 0 || sum.SimWall <= 0 {
				t.Fatalf("empty cost accounting: %+v", sum)
			}
		})
	}
}

// TestFailoverRepeatable pins the audit of FailoverSim: with the run's
// wall-clock timing behind the Lab's cost recorder and the workload
// stream derived through runner.RNG,
// the result row must be a pure function of the arguments — identical
// across repeated runs, and identical whether or not a Stats accumulator
// is attached (wall time may only reach Stats, never the row).
func TestFailoverRepeatable(t *testing.T) {
	first, err := new(Lab).FailoverSim(300, 8, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		st := runner.NewStats()
		lab := Lab{Stats: st}
		again, err := lab.FailoverSim(300, 8, 50, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\n got %+v\nwant %+v", run, again, first)
		}
		if sum := st.Summary(); sum.Runs == 0 || sum.SimWall <= 0 {
			t.Fatalf("run %d: wall-clock accounting missing from stats: %+v", run, sum)
		}
	}
	// The row is a coarse aggregate, so adjacent seeds can collide by
	// chance; require only that some nearby seed moves the result.
	moved := false
	for _, seed := range []int64{8, 9, 10} {
		diff, err := new(Lab).FailoverSim(300, 8, 50, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, diff) {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatalf("seed changes did not move the result; seed is not reaching the workload: %+v", first)
	}
}
