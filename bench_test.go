// Benchmark harness: one benchmark per table and figure of the paper, plus
// micro-benchmarks of the core analyses. Each paper benchmark validates its
// headline numbers once and then times the full regeneration, so
// `go test -bench=. -benchmem` both re-checks the reproduction and reports
// its cost. Every iteration runs on a fresh experiments.Lab, so each one
// times cold system builds and analyses.
package repro_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analyzers"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/experiments"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/servernet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// BenchmarkFigure1Deadlock times the flit-level deadlock demonstration:
// simulate the circular wait, extract the witness, re-run restricted.
func BenchmarkFigure1Deadlock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := new(experiments.Lab).Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if !res.UnrestrictedDeadlocked || res.RestrictedDelivered != 4 {
			b.Fatalf("figure 1 wrong: %+v", res)
		}
	}
}

// BenchmarkFigure2Hypercube times the hypercube path-disable analysis.
func BenchmarkFigure2Hypercube(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := new(experiments.Lab).Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if !res.UpDownFree || res.UpDownRatio <= res.ECubeRatio {
			b.Fatalf("figure 2 wrong: %+v", res)
		}
	}
}

// BenchmarkFigure3FullyConnected times the fully-connected group sweep.
func BenchmarkFigure3FullyConnected(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := new(experiments.Lab).Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if rows[3].MaxContention != 3 {
			b.Fatalf("M=4 contention = %d, want 3", rows[3].MaxContention)
		}
	}
}

// BenchmarkFigure5ThinScaling times the thin-fractahedron depth sweep.
func BenchmarkFigure5ThinScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := new(experiments.Lab).Figure5(2)
		if err != nil {
			b.Fatal(err)
		}
		if rows[1].MaxHops != 6 {
			b.Fatalf("N=2 thin max hops = %d, want 6", rows[1].MaxHops)
		}
	}
}

// BenchmarkTable1Fractahedron regenerates Table 1 at N = 1..3.
func BenchmarkTable1Fractahedron(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := new(experiments.Lab).Table1(3)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.MaxDelay != r.MaxDelayFormula {
				b.Fatalf("N=%d fat=%v delay %d != %d", r.Levels, r.Fat, r.MaxDelay, r.MaxDelayFormula)
			}
		}
	}
}

// BenchmarkTable2Comparison regenerates the 64-node headline comparison.
func BenchmarkTable2Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := new(experiments.Lab).Table2()
		if err != nil {
			b.Fatal(err)
		}
		if res.FractIntraL2 != 4 {
			b.Fatalf("intra-L2 contention = %d, want 4", res.FractIntraL2)
		}
	}
}

// BenchmarkMeshComparison regenerates §3.1's mesh scaling rows.
func BenchmarkMeshComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := new(experiments.Lab).Section31Mesh()
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].MaxContention != 10 {
			b.Fatalf("6x6 contention = %d, want 10", rows[0].MaxContention)
		}
	}
}

// BenchmarkFatTree regenerates §3.3's fat tree analysis.
func BenchmarkFatTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := new(experiments.Lab).Section33FatTree()
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxContention != 12 {
			b.Fatalf("contention = %d, want 12", res.MaxContention)
		}
	}
}

// BenchmarkDeadlockFreedom runs the CDG verification matrix of §2/§2.4.
func BenchmarkDeadlockFreedom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DeadlockSummary()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 9 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkSimulationSweep runs the §4 future-work load sweep at a reduced
// cycle budget.
func BenchmarkSimulationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := new(experiments.Lab).SimSweep([]float64{0.005, 0.02}, 500, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Deadlocked {
				b.Fatalf("%s deadlocked", r.Topology)
			}
		}
	}
}

// benchmarkSimSweepWorkers times the same four-rate sweep grid at a fixed
// worker-pool size; the Workers1/Workers4 pair demonstrates the engine's
// parallel speedup on identical (bit-for-bit) rows.
func benchmarkSimSweepWorkers(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		lab := experiments.Lab{Workers: workers}
		rows, err := lab.SimSweep([]float64{0.002, 0.005, 0.01, 0.02}, 600, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Deadlocked {
				b.Fatalf("%s deadlocked", r.Topology)
			}
		}
	}
}

func BenchmarkSimSweepWorkers1(b *testing.B) { benchmarkSimSweepWorkers(b, 1) }
func BenchmarkSimSweepWorkers4(b *testing.B) { benchmarkSimSweepWorkers(b, 4) }

// BenchmarkDatabaseScenario runs the §3.0 adversarial streaming comparison.
func BenchmarkDatabaseScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := new(experiments.Lab).DatabaseScenario(8, 16)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Streams != 12 || rows[1].Streams != 8 {
			b.Fatalf("streams = %d/%d, want 12/8", rows[0].Streams, rows[1].Streams)
		}
	}
}

// BenchmarkAblationFIFODepth sweeps router buffer depth.
func BenchmarkAblationFIFODepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := new(experiments.Lab).AblationFIFODepth([]int{2, 8}, 150, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRadix sweeps the generalized ensemble size of §4.
func BenchmarkAblationRadix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := new(experiments.Lab).AblationRadix([]int{3, 4, 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPartitions measures alternative static fat-tree
// partitions against the 12:1 pigeonhole bound.
func BenchmarkAblationPartitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := new(experiments.Lab).AblationFatTreePartitions()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Contention != 12 {
				b.Fatalf("%s: %d", r.Name, r.Contention)
			}
		}
	}
}

// --- micro-benchmarks of the underlying machinery ---

// BenchmarkBuildFatFractahedron measures topology construction alone.
func BenchmarkBuildFatFractahedron(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := topology.NewFractahedron(topology.Tetra(2, true))
		if f.NumRouters() != 48 {
			b.Fatal("bad build")
		}
	}
}

// BenchmarkRouteAllPairs measures table-walk routing over all 4032 pairs of
// the 64-node fat fractahedron.
func BenchmarkRouteAllPairs(b *testing.B) {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	tb := routing.Fractahedron(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.AllRoutes(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCDGAnalysis measures channel-dependency-graph construction and
// cycle search on the 64-node fat fractahedron.
func BenchmarkCDGAnalysis(b *testing.B) {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	tb := routing.Fractahedron(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := deadlock.Analyze(tb)
		if err != nil || !rep.Free {
			b.Fatal(err, rep.Free)
		}
	}
}

// BenchmarkContentionMatching measures the full Hopcroft–Karp contention
// analysis on the 64-node fat fractahedron.
func BenchmarkContentionMatching(b *testing.B) {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	tb := routing.Fractahedron(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := contention.MaxLinkContention(tb)
		if err != nil || res.Max != 8 {
			b.Fatal(err, res.Max)
		}
	}
}

// BenchmarkSimulatorThroughput measures simulator cycles per second under a
// steady uniform load on the 64-node fat fractahedron; the reported metric
// is wall time per simulated workload of 1000 packets.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sys, _, err := core.NewFatFractahedron(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(7))
		specs := workload.UniformRandom(rng, 64, 1000, 8, 800)
		res, err := sys.Simulate(specs, sim.Config{FIFODepth: 4})
		if err != nil || res.Delivered != 1000 {
			b.Fatal(err, res.Delivered)
		}
	}
}

// BenchmarkFract3SimulatorLoad measures the raw engine on the 512-node
// 3-level fat fractahedron under a steady uniform load — the
// simulator-only counterpart of BenchmarkLargeSim, isolating per-cycle
// engine cost from the experiment runner and the sweep grid.
func BenchmarkFract3SimulatorLoad(b *testing.B) {
	sys, _, err := core.NewFatFractahedron(3)
	if err != nil {
		b.Fatal(err)
	}
	nodes := sys.Net.NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(11))
		specs := workload.UniformRandom(rng, nodes, 2000, 8, 1500)
		res, err := sys.Simulate(specs, sim.Config{FIFODepth: 4})
		if err != nil || res.Deadlocked || res.Delivered != 2000 {
			b.Fatalf("err=%v deadlocked=%v delivered=%d", err, res.Deadlocked, res.Delivered)
		}
	}
}

// BenchmarkChaosOff re-runs the exact BenchmarkFract3SimulatorLoad
// scenario with every chaos-era hook installed but disabled — a zero-rate
// corruption filter plus delivery and drop callbacks — and demands a
// bit-identical Result. Compare its ns/op against Fract3SimulatorLoad in
// the same BENCH_SIM.json snapshot: the disabled hooks must add no
// per-cycle cost.
func BenchmarkChaosOff(b *testing.B) {
	sys, _, err := core.NewFatFractahedron(3)
	if err != nil {
		b.Fatal(err)
	}
	nodes := sys.Net.NumNodes()
	baseline, err := sys.Simulate(
		workload.UniformRandom(rand.New(rand.NewSource(11)), nodes, 2000, 8, 1500),
		sim.Config{FIFODepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(11))
		specs := workload.UniformRandom(rng, nodes, 2000, 8, 1500)
		s := sim.New(sys.Net, sys.Disables, sim.Config{FIFODepth: 4})
		if err := s.EnableCorruption(0, 11); err != nil {
			b.Fatal(err)
		}
		s.OnDelivered(func(spec sim.PacketSpec, now int) {})
		s.OnDropped(func(spec sim.PacketSpec, now int) {})
		if err := s.AddBatch(sys.Tables, specs); err != nil {
			b.Fatal(err)
		}
		if res := s.Run(); !reflect.DeepEqual(res, baseline) {
			b.Fatalf("disabled chaos hooks disturbed the result:\n got %+v\nwant %+v", res, baseline)
		}
	}
}

// BenchmarkChaosRecovery times one full online fault-recovery trial on the
// dual 64-node fractahedron pair (link kill + flap + router kill, hot
// reconfiguration, dual-fabric retry failover).
func BenchmarkChaosRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.Lab{Workers: 1}
		cr, err := lab.ChaosRecovery(1, 300, 4, 2)
		if err != nil || cr.Lost != 0 || cr.Unresolved != 0 || cr.Reconfigurations == 0 {
			b.Fatalf("err=%v campaign=%+v", err, cr)
		}
	}
}

// BenchmarkDisablesFromTables measures the path-disable derivation of §2.4.
func BenchmarkDisablesFromTables(b *testing.B) {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	tb := routing.Fractahedron(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := router.FromTables(tb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeadlockAvoidance runs the §2 scheme comparison (restriction vs
// virtual channels vs timeout recovery).
func BenchmarkDeadlockAvoidance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := new(experiments.Lab).DeadlockAvoidanceComparison(32)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkTopologyZoo measures the full §2 topology comparison at 64 nodes.
func BenchmarkTopologyZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BackgroundTopologies()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkTableSizes measures the §2.1 region-table comparison.
func BenchmarkTableSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableSizes(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransactionLayer measures the ServerNet protocol engine over the
// 16-node system: reads, DMA writes with acks, completion interrupts.
func BenchmarkTransactionLayer(b *testing.B) {
	cfg := topology.Tetra(1, false)
	cfg.Fanout = true
	sys, _, err := core.NewFractahedron(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := servernet.NewEngine(sys, sim.Config{FIFODepth: 4})
		for cpu := 0; cpu < 8; cpu++ {
			ctrl := 8 + cpu
			e.ReadTx(cpu, ctrl, 32, 0)
			e.WriteTx(ctrl, cpu, 48, 5)
			e.InterruptTx(ctrl, cpu, 6)
		}
		res, err := e.Run()
		if err != nil || res.InterruptOvertakes != 0 || res.Completed != 24 {
			b.Fatalf("err=%v overtakes=%d completed=%d", err, res.InterruptOvertakes, res.Completed)
		}
	}
}

// BenchmarkVCSimulator measures the dateline-torus simulator with two
// virtual channels under an all-pairs load.
func BenchmarkVCSimulator(b *testing.B) {
	m := topology.NewTorus(4, 4, 1)
	tb := routing.TorusDateline(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New(m.Network, router.AllowAll(m.Network), sim.Config{FIFODepth: 2, VirtualChannels: 2})
		var specs []sim.PacketSpec
		for a := 0; a < 16; a++ {
			for d := 0; d < 16; d++ {
				if a != d {
					specs = append(specs, sim.PacketSpec{Src: a, Dst: d, Flits: 5})
				}
			}
		}
		if err := s.AddBatch(tb, specs); err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		if res.Deadlocked || res.Delivered != 240 {
			b.Fatalf("%+v", res)
		}
	}
}

// BenchmarkLocalitySweep measures §3.3's locality argument: the thinned 4-2
// fat tree catches up to the fractahedron as traffic turns local.
func BenchmarkLocalitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := new(experiments.Lab).LocalitySweep([]float64{0, 0.6}, 400, 8, 1)
		if err != nil || len(rows) != 6 {
			b.Fatal(err, len(rows))
		}
	}
}

// BenchmarkPermutationStudy runs the classic permutation patterns over the
// 64-node contenders.
func BenchmarkPermutationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := new(experiments.Lab).PermutationStudy(8)
		if err != nil || len(rows) != 20 {
			b.Fatal(err, len(rows))
		}
	}
}

// BenchmarkSaturation finds each topology's saturation knee.
func BenchmarkSaturation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := new(experiments.Lab).Saturation(400, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailover runs the live dual-fabric failover scenario.
func BenchmarkFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := new(experiments.Lab).FailoverSim(300, 8, 50, 7)
		if err != nil || res.TotalLost != 0 {
			b.Fatalf("err=%v lost=%d", err, res.TotalLost)
		}
	}
}

// BenchmarkLargeSim runs the §4 512-node simulation at a reduced budget.
func BenchmarkLargeSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := new(experiments.Lab).LargeSim([]float64{0.004}, 300, 8, 1)
		if err != nil || rows[0].Deadlocked {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableImage measures region-table compilation, serialization and
// verification for the 512-node fat fractahedron.
func BenchmarkTableImage(b *testing.B) {
	f := topology.NewFractahedron(topology.Tetra(3, true))
	tb := routing.Fractahedron(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := routing.CompileImage(tb)
		if err := routing.VerifyImage(img, tb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimlintAll times one full static-analysis pass — every
// analyzer, including the concurrency family behind the code deadlock
// certificate, over every internal package. Loading and type-checking is
// hoisted out of the timer: the benchmark measures the analysis itself,
// the cost `make lint-concurrency` and `simlint -certify` add to the CI
// gate beyond compilation.
func BenchmarkSimlintAll(b *testing.B) {
	pkgs, err := load.Packages(".", "./internal/...")
	if err != nil {
		b.Fatal(err)
	}
	all := analyzers.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total int
		for _, p := range pkgs {
			findings, _, err := analysis.Run(all, p.Fset, p.Files, p.Types, p.TypesInfo)
			if err != nil {
				b.Fatal(err)
			}
			total += len(findings)
		}
		if total != 0 {
			b.Fatalf("simlint found %d findings on the clean tree", total)
		}
	}
}
