package experiments

import (
	"strings"
	"testing"
)

func TestFigure1(t *testing.T) {
	res, err := new(Lab).Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if !res.UnrestrictedDeadlocked {
		t.Error("Figure 1 scenario did not deadlock")
	}
	if !res.CDGCyclic {
		t.Error("static analysis disagrees with the simulator")
	}
	if res.RestrictedDeadlocked || res.RestrictedDelivered != 4 {
		t.Errorf("restricted run: deadlocked=%v delivered=%d",
			res.RestrictedDeadlocked, res.RestrictedDelivered)
	}
	if !strings.Contains(res.String(), "deadlocked=true") {
		t.Errorf("report: %s", res)
	}
}

func TestFigure2(t *testing.T) {
	res, err := new(Lab).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if !res.UpDownFree || !res.ECubeFree {
		t.Error("hypercube routings not deadlock-free")
	}
	if res.UpDownRatio <= res.ECubeRatio {
		t.Errorf("disable-based routing imbalance %.2f not worse than e-cube %.2f",
			res.UpDownRatio, res.ECubeRatio)
	}
}

func TestFigure3(t *testing.T) {
	rows, err := new(Lab).Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	wantPorts := []int{6, 10, 12, 12, 10, 6}
	wantCont := []int{1, 5, 4, 3, 2, 1}
	for i, r := range rows {
		if r.NodePorts != wantPorts[i] {
			t.Errorf("M=%d ports = %d, want %d", r.Routers, r.NodePorts, wantPorts[i])
		}
		if r.MaxContention != wantCont[i] {
			t.Errorf("M=%d contention = %d, want %d", r.Routers, r.MaxContention, wantCont[i])
		}
	}
}

func TestFigure5(t *testing.T) {
	rows, err := new(Lab).Figure5(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MaxHops != r.Formula {
			t.Errorf("N=%d max hops %d != formula %d", r.Levels, r.MaxHops, r.Formula)
		}
	}
}

func TestTable1(t *testing.T) {
	rows, err := new(Lab).Table1(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MaxNodes != r.MaxNodesFormula {
			t.Errorf("N=%d fat=%v nodes %d != %d", r.Levels, r.Fat, r.MaxNodes, r.MaxNodesFormula)
		}
		if r.MaxDelay != r.MaxDelayFormula {
			t.Errorf("N=%d fat=%v delay %d != %d", r.Levels, r.Fat, r.MaxDelay, r.MaxDelayFormula)
		}
		if !r.Fat && r.Bisection != 4 {
			t.Errorf("N=%d thin bisection = %d, want 4", r.Levels, r.Bisection)
		}
		if r.Fat && r.Bisection != r.BisectionFat4PowN {
			t.Errorf("N=%d fat bisection = %d, want %d", r.Levels, r.Bisection, r.BisectionFat4PowN)
		}
	}
	if !strings.Contains(Table1String(rows), "Table 1") {
		t.Error("table text missing header")
	}
}

func TestTable2(t *testing.T) {
	res, err := new(Lab).Table2()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table2Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	ft := byName["4-2 fat tree"]
	fr := byName["fat fractahedron"]
	if ft.Routers != 28 || fr.Routers != 48 {
		t.Errorf("routers %d/%d, want 28/48", ft.Routers, fr.Routers)
	}
	if ft.MaxContention != 12 {
		t.Errorf("fat tree contention = %d, want 12", ft.MaxContention)
	}
	if res.FractIntraL2 != 4 {
		t.Errorf("fractahedron intra-L2 contention = %d, want 4 (paper)", res.FractIntraL2)
	}
	if fr.MaxContention >= ft.MaxContention {
		t.Errorf("fractahedron %d:1 not better than fat tree %d:1", fr.MaxContention, ft.MaxContention)
	}
	if !(fr.AvgHops < ft.AvgHops) {
		t.Errorf("avg hops %f vs %f", fr.AvgHops, ft.AvgHops)
	}
	if byName["3-3 fat tree"].Routers != 100 {
		t.Errorf("3-3 fat tree routers = %d, want 100", byName["3-3 fat tree"].Routers)
	}
	mesh := byName["6x6 mesh (72 ports)"]
	if mesh.MaxContention != 10 || mesh.MaxHops != 11 {
		t.Errorf("mesh contention=%d maxhops=%d, want 10/11", mesh.MaxContention, mesh.MaxHops)
	}
	for _, r := range res.Rows {
		if !r.DeadlockFree {
			t.Errorf("%s not deadlock-free", r.Name)
		}
	}
}

func TestSection31Mesh(t *testing.T) {
	rows, err := new(Lab).Section31Mesh()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MaxHops != r.PaperMaxHops {
			t.Errorf("%dx%d max hops = %d, want %d", r.Cols, r.Rows, r.MaxHops, r.PaperMaxHops)
		}
	}
	if rows[0].MaxContention != 10 {
		t.Errorf("6x6 contention = %d, want 10", rows[0].MaxContention)
	}
}

func TestSection32Hypercube(t *testing.T) {
	rows := Section32Hypercube()
	for _, r := range rows {
		wantFeasible := r.Dim+1 <= 6
		if r.Feasible6 != wantFeasible {
			t.Errorf("dim %d feasible = %v", r.Dim, r.Feasible6)
		}
		if r.Dim == 6 && r.PortsNeeded != 7 {
			t.Errorf("6-D ports = %d, want 7", r.PortsNeeded)
		}
	}
}

func TestSection33FatTree(t *testing.T) {
	res, err := new(Lab).Section33FatTree()
	if err != nil {
		t.Fatal(err)
	}
	if res.Routers != 28 || res.MaxContention != 12 || res.WitnessSet != 12 {
		t.Errorf("routers=%d contention=%d witness=%d, want 28/12/12",
			res.Routers, res.MaxContention, res.WitnessSet)
	}
	if !res.DeadlockFree {
		t.Error("fat tree not deadlock-free")
	}
}

func TestDeadlockSummary(t *testing.T) {
	rows, err := DeadlockSummary()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	free := map[string]bool{}
	for _, r := range rows {
		free[r.Topology+"/"+r.Algorithm] = r.Free
	}
	mustCycle := []string{"ring-4/ring-cw", "torus-4x4/torus-unidir"}
	mustFree := []string{"ring-4/ring-seamless", "mesh-4x4/mesh-yx",
		"hypercube-3/hypercube-ecube", "hypercube-3/hypercube-updown",
		"fattree-4-2-64/fattree-updown", "thin-fract-64/fractahedron-thin",
		"fat-fract-64/fractahedron-fat"}
	for _, k := range mustCycle {
		if f, ok := free[k]; !ok || f {
			t.Errorf("%s: free=%v ok=%v, want cyclic", k, f, ok)
		}
	}
	for _, k := range mustFree {
		if f, ok := free[k]; !ok || !f {
			t.Errorf("%s: free=%v ok=%v, want free", k, f, ok)
		}
	}
}

func TestSimSweepShape(t *testing.T) {
	rows, err := new(Lab).SimSweep([]float64{0.002, 0.02}, 600, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Deadlocked {
			t.Errorf("%s deadlocked at rate %.3f", r.Topology, r.Rate)
		}
		if r.Delivered == 0 {
			t.Errorf("%s delivered nothing at rate %.3f", r.Topology, r.Rate)
		}
	}
	// Latency grows with offered load.
	if !(rows[0].AvgLatency < rows[3].AvgLatency) {
		t.Errorf("latency did not grow with load: %.1f vs %.1f", rows[0].AvgLatency, rows[3].AvgLatency)
	}
}

func TestDatabaseScenario(t *testing.T) {
	rows, err := new(Lab).DatabaseScenario(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// One stream per member of each topology's worst contention set.
	if rows[0].Streams != 12 || rows[1].Streams != 8 {
		t.Errorf("streams = %d/%d, want 12/8", rows[0].Streams, rows[1].Streams)
	}
	for _, r := range rows {
		if !r.OrderKept {
			t.Errorf("%s broke in-order delivery", r.Topology)
		}
		if r.Cycles == 0 {
			t.Errorf("%s ran zero cycles", r.Topology)
		}
	}
}

func TestAblationFIFODepth(t *testing.T) {
	rows, err := new(Lab).AblationFIFODepth([]int{1, 4, 16}, 120, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Deeper FIFOs never hurt completion time under this deterministic
	// pipeline model.
	if rows[0].Cycles < rows[2].Cycles {
		t.Errorf("depth 1 (%d cycles) outperformed depth 16 (%d)", rows[0].Cycles, rows[2].Cycles)
	}
}

func TestAblationRadix(t *testing.T) {
	rows, err := new(Lab).AblationRadix([]int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.DeadlockFree {
			t.Errorf("group %d not deadlock-free", r.Group)
		}
		if r.MaxHops != 5 {
			t.Errorf("group %d max hops = %d, want 5 (3N-1)", r.Group, r.MaxHops)
		}
		// All-links worst contention generalizes to Children = Group*Down:
		// the single down link into a child ensemble serves all of its
		// Group*Down nodes, and enough corner-aligned sources exist.
		if want := r.Group * r.Down; r.Contention != want {
			t.Errorf("group %d contention = %d, want %d (Group*Down)", r.Group, r.Contention, want)
		}
	}
	if rows[0].RouterPorts != 5 || rows[1].RouterPorts != 6 || rows[2].RouterPorts != 7 {
		t.Error("router port accounting wrong")
	}
}

func TestAblationFatTreePartitions(t *testing.T) {
	rows, err := new(Lab).AblationFatTreePartitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Contention != 12 {
			t.Errorf("%s: contention = %d, want 12 (pigeonhole)", r.Name, r.Contention)
		}
	}
}

func TestDeadlockAvoidanceComparison(t *testing.T) {
	rows, err := new(Lab).DeadlockAvoidanceComparison(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byScheme := map[string]AvoidanceRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	if !byScheme["none (Figure 1)"].Deadlocked {
		t.Error("unprotected run did not deadlock")
	}
	rr := byScheme["routing restriction (ServerNet)"]
	if rr.Deadlocked || rr.Delivered != 4 || rr.OrderViolations != 0 {
		t.Errorf("restriction row wrong: %+v", rr)
	}
	vc := byScheme["virtual channels (Dally-Seitz)"]
	if vc.Deadlocked || vc.Delivered != 4 {
		t.Errorf("VC row wrong: %+v", vc)
	}
	if vc.BuffersPerPort <= rr.BuffersPerPort {
		t.Error("VC scheme should cost more buffers")
	}
	to := byScheme["timeout+retry recovery"]
	if to.Deadlocked {
		t.Errorf("timeout recovery left the network deadlocked: %+v", to)
	}
	if to.Retries == 0 {
		t.Errorf("timeout recovery performed no retries: %+v", to)
	}
	if to.Delivered+to.Dropped != 4 {
		t.Errorf("timeout recovery lost packets: %+v", to)
	}
}

func TestBackgroundTopologies(t *testing.T) {
	rows, err := BackgroundTopologies()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]BackgroundRow{}
	for _, r := range rows {
		if !r.DeadlockFree {
			t.Errorf("%s not deadlock-free", r.Name)
		}
		byName[r.Name] = r
	}
	// Spot checks: the hypercube needs 7 ports, CCC only 4; the binary
	// tree's bisection collapses to its root links; the fat fractahedron
	// beats the fat tree on average hops.
	if byName["hypercube (e-cube)"].PortsPer != 7 {
		t.Error("hypercube port count wrong")
	}
	if byName["cube-connected cycles"].PortsPer != 4 {
		t.Error("CCC port count wrong")
	}
	if byName["binary tree"].Bisection > 2 {
		t.Errorf("binary tree bisection = %d, want <= 2", byName["binary tree"].Bisection)
	}
	if byName["fat fractahedron"].AvgHops >= byName["4-2 fat tree"].AvgHops {
		t.Error("fractahedron not ahead on avg hops")
	}
	if byName["ring"].MaxHops < 31 {
		t.Errorf("seam-avoiding 32-ring max hops = %d, want 31+", byName["ring"].MaxHops)
	}
	// The paper's deterministic routings are minimal; generic up*/down*
	// on CCC and shuffle-exchange pays stretch.
	if byName["fat fractahedron"].Stretch != 1 {
		t.Errorf("fractahedron stretch = %.2f", byName["fat fractahedron"].Stretch)
	}
	if byName["cube-connected cycles"].Stretch <= 1 {
		t.Errorf("CCC up*/down* stretch = %.2f, expected > 1", byName["cube-connected cycles"].Stretch)
	}
}

func TestTableSizes(t *testing.T) {
	rows, err := TableSizes()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RegionRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	f2, f3 := byName["fat fractahedron N=2"], byName["fat fractahedron N=3"]
	if f3.Max > 2*f2.Max {
		t.Errorf("fractahedron tables grew %d -> %d across a level", f2.Max, f3.Max)
	}
	if hc := byName["hypercube-6 (e-cube)"]; hc.Max != 64 {
		t.Errorf("hypercube regions = %d, want 64", hc.Max)
	}
}

func TestFractLinkClasses(t *testing.T) {
	rows, err := new(Lab).FractLinkClasses()
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[string]LinkClassRow{}
	totalChannels := 0
	for _, r := range rows {
		byClass[r.Class] = r
		totalChannels += r.Links
	}
	// 48 routers * 7 inter-router... count: intra-L1 96 + intra-L2 48 +
	// up 32 + down 32 = 208 inter-router channels (104 cables).
	if totalChannels != 208 {
		t.Errorf("channels = %d, want 208", totalChannels)
	}
	if byClass["intra-level-2"].Contention != 4 {
		t.Errorf("intra-L2 contention = %d, want 4 (paper §3.4)", byClass["intra-level-2"].Contention)
	}
	if byClass["down L2->L1"].Contention != 8 {
		t.Errorf("down-link contention = %d, want 8", byClass["down L2->L1"].Contention)
	}
	// Symmetric topology + digit routing: loads are uniform within a class.
	for _, r := range rows {
		if r.MinLoad != r.MaxLoad {
			t.Errorf("class %s unevenly loaded: %d..%d", r.Class, r.MinLoad, r.MaxLoad)
		}
	}
}

func TestSiliconBudget(t *testing.T) {
	rows := SiliconBudget(4)
	byName := map[string]AreaRow{}
	for _, r := range rows {
		byName[r.Design] = r
	}
	oneVC := byName["fat fractahedron, 1 VC"]
	twoVC := byName["fat fractahedron, 2 VC"]
	if twoVC.PerRouter <= oneVC.PerRouter {
		t.Error("second VC did not increase router area")
	}
	if twoVC.BufferShare <= oneVC.BufferShare {
		t.Error("second VC did not increase buffer share")
	}
	if oneVC.BufferShare < 0.5 {
		t.Errorf("buffer share %.2f; the model should show buffers dominating", oneVC.BufferShare)
	}
	if byName["4-2 fat tree, 1 VC"].Network >= oneVC.Network {
		t.Error("fat tree should be cheaper in total silicon (fewer routers)")
	}
}

func TestLargeSim(t *testing.T) {
	rows, err := new(Lab).LargeSim([]float64{0.004}, 400, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	fat, thin := rows[0], rows[1]
	if fat.Deadlocked || thin.Deadlocked {
		t.Fatal("large sim deadlocked")
	}
	if fat.Nodes != 512 || thin.Nodes != 512 {
		t.Errorf("nodes %d/%d", fat.Nodes, thin.Nodes)
	}
	if fat.Delivered != thin.Delivered {
		t.Errorf("delivered %d vs %d (same workload)", fat.Delivered, thin.Delivered)
	}
	if !(fat.AvgLatency < thin.AvgLatency) {
		t.Errorf("fat latency %.1f not below thin %.1f", fat.AvgLatency, thin.AvgLatency)
	}
}

func TestFailoverSim(t *testing.T) {
	res, err := new(Lab).FailoverSim(300, 8, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("fault killed no transfers; victim selection broken")
	}
	if res.FailedOver != res.Dropped {
		t.Errorf("failed over %d != dropped %d", res.FailedOver, res.Dropped)
	}
	if res.DeliveredY != res.FailedOver {
		t.Errorf("Y delivered %d of %d", res.DeliveredY, res.FailedOver)
	}
	if res.TotalLost != 0 {
		t.Errorf("lost %d transfers end to end", res.TotalLost)
	}
	if res.XDeadlocked || res.YDeadlocked {
		t.Error("a fabric deadlocked")
	}
}

func TestSaturation(t *testing.T) {
	rows, err := new(Lab).Saturation(400, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SaturationRow{}
	for _, r := range rows {
		byName[r.Topology] = r
	}
	fat := byName["fat fractahedron"]
	thin := byName["thin fractahedron"]
	ft := byName["4-2 fat tree"]
	if !(fat.SatThroughput > ft.SatThroughput) {
		t.Errorf("fat fractahedron throughput %.2f not above fat tree %.2f",
			fat.SatThroughput, ft.SatThroughput)
	}
	if !(thin.SatThroughput < fat.SatThroughput) {
		t.Errorf("thin %.2f not below fat %.2f", thin.SatThroughput, fat.SatThroughput)
	}
	for _, r := range rows {
		if r.BaseLatency <= 0 || r.SatOffered <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
}

func TestPermutationStudy(t *testing.T) {
	rows, err := new(Lab).PermutationStudy(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 5 patterns x 4 topologies", len(rows))
	}
	// Nearest neighbor is near-contention-free on the hierarchical
	// topologies: much faster than the adversarial patterns.
	var nnFract, bcFract PermRow
	for _, r := range rows {
		if r.Topology == "fat fractahedron" {
			switch r.Pattern {
			case "nearest neighbor":
				nnFract = r
			case "bit complement":
				bcFract = r
			}
		}
	}
	if !(nnFract.Cycles < bcFract.Cycles) {
		t.Errorf("nearest neighbor (%d cycles) not faster than bit complement (%d)",
			nnFract.Cycles, bcFract.Cycles)
	}
}

func TestLocalitySweep(t *testing.T) {
	rows, err := new(Lab).LocalitySweep([]float64{0, 0.9}, 400, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(frac float64, topo string) LocalityRow {
		for _, r := range rows {
			if r.LocalFrac == frac && r.Topology == topo {
				return r
			}
		}
		t.Fatalf("missing row %.1f/%s", frac, topo)
		return LocalityRow{}
	}
	ftLow := get(0, "4-2 fat tree")
	ftHigh := get(0.9, "4-2 fat tree")
	// The thinned tree improves markedly with locality (the §3.3 argument).
	if !(ftHigh.AvgLatency < ftLow.AvgLatency) {
		t.Errorf("4-2 latency did not improve with locality: %.1f -> %.1f",
			ftLow.AvgLatency, ftHigh.AvgLatency)
	}
	// Under uniform traffic the fractahedron beats the 4-2 tree; under
	// high locality they are close (within 15%).
	frLow := get(0, "fat fractahedron")
	if !(frLow.AvgLatency < ftLow.AvgLatency) {
		t.Errorf("uniform: fractahedron %.1f not ahead of 4-2 tree %.1f",
			frLow.AvgLatency, ftLow.AvgLatency)
	}
	frHigh := get(0.9, "fat fractahedron")
	if ftHigh.AvgLatency > 1.15*frHigh.AvgLatency {
		t.Errorf("high locality: 4-2 tree %.1f still far behind fractahedron %.1f",
			ftHigh.AvgLatency, frHigh.AvgLatency)
	}
}

func TestCostPerformanceFrontier(t *testing.T) {
	rows, err := new(Lab).CostPerformanceFrontier()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]FrontierRow{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	thin2, fat2 := byName["thin N=2"], byName["fat N=2"]
	if !(fat2.Routers > thin2.Routers) {
		t.Error("fat should cost more routers")
	}
	if !(fat2.Bisection > thin2.Bisection) {
		t.Error("fat should buy bisection")
	}
	if !(fat2.MaxHops < thin2.MaxHops) {
		t.Error("fat should cut worst delay")
	}
	fat3 := byName["fat N=3"]
	if fat3.Nodes != 512 || fat3.MaxHops != 8 || fat3.Bisection != 64 {
		t.Errorf("fat N=3 row wrong: %+v", fat3)
	}
}

func TestAblationCableLength(t *testing.T) {
	rows, err := new(Lab).AblationCableLength([]int{1, 3}, 150, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(rows[0].AvgLatency < rows[1].AvgLatency) {
		t.Errorf("latency did not grow with cable length: %.1f vs %.1f",
			rows[0].AvgLatency, rows[1].AvgLatency)
	}
	if rows[1].Throughput < 0.6*rows[0].Throughput {
		t.Errorf("throughput collapsed with cable length: %.2f vs %.2f",
			rows[1].Throughput, rows[0].Throughput)
	}
}

func TestClaimsScorecard(t *testing.T) {
	cs, err := new(Lab).Claims()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 30 {
		t.Fatalf("claims = %d", len(cs))
	}
	pass := 0
	diverging := map[string]bool{}
	for _, c := range cs {
		if c.Match {
			pass++
		} else {
			diverging[c.Text] = true
			if c.Note == "" {
				t.Errorf("divergence %q lacks an explanatory note", c.Text)
			}
		}
	}
	// Exactly the three documented divergences, nothing else.
	if pass != 27 {
		t.Errorf("passing claims = %d of %d; diverging: %v", pass, len(cs), diverging)
	}
	md := ClaimsMarkdown(cs)
	for _, want := range []string{"Reproduction scorecard", "PASS", "DIVERGES", "27 of 30"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

// Sharing one Lab across a paper run changes no output: each analytic
// experiment prints the same text on a shared Lab, twice over, as on a
// fresh one, so no experiment mutates a System that a later one reads.
func TestSharedLabMatchesFreshLabs(t *testing.T) {
	experiments := []struct {
		name string
		run  func(*Lab) (string, error)
	}{
		{"claims", func(l *Lab) (string, error) {
			cs, err := l.Claims()
			return ClaimsMarkdown(cs), err
		}},
		{"figure5", func(l *Lab) (string, error) {
			rows, err := l.Figure5(3)
			return Figure5String(rows), err
		}},
		{"table1", func(l *Lab) (string, error) {
			rows, err := l.Table1(3)
			return Table1String(rows), err
		}},
		{"fattree", func(l *Lab) (string, error) {
			r, err := l.Section33FatTree()
			return r.String(), err
		}},
		{"table2", func(l *Lab) (string, error) {
			r, err := l.Table2()
			return r.String(), err
		}},
		{"frontier", func(l *Lab) (string, error) {
			rows, err := l.CostPerformanceFrontier()
			return FrontierString(rows), err
		}},
	}
	want := make([]string, len(experiments))
	for i, e := range experiments {
		var err error
		if want[i], err = e.run(new(Lab)); err != nil {
			t.Fatalf("%s on a fresh lab: %v", e.name, err)
		}
	}
	var shared Lab
	for pass := 1; pass <= 2; pass++ {
		for i, e := range experiments {
			got, err := e.run(&shared)
			if err != nil {
				t.Fatalf("%s, pass %d on the shared lab: %v", e.name, pass, err)
			}
			if got != want[i] {
				t.Errorf("%s, pass %d differs on the shared lab:\n%s\nfresh lab:\n%s", e.name, pass, got, want[i])
			}
		}
	}
}
