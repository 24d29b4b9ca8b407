package chaos_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fract2 builds the level-2 fat fractahedron (64 nodes) the acceptance
// scenario runs on.
func fract2(t *testing.T) *core.System {
	t.Helper()
	sys, _, err := core.ParseSystem("fat-fract:levels=2")
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func engineConfig(sys *core.System) chaos.Config {
	return chaos.Config{
		System:      sys,
		Sim:         sim.Config{FIFODepth: 4, TimeoutCycles: 200, MaxRetries: 1},
		Reconfigure: true,
	}
}

func TestGeneratePlanDeterministic(t *testing.T) {
	net := fract2(t).Net
	spec := chaos.PlanSpec{LinkKills: 2, LinkFlaps: 1, RouterKills: 1, Window: 50, RepairAfter: 100}
	a, err := chaos.GeneratePlan(runner.RNG(3, 0), net, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.GeneratePlan(runner.RNG(3, 0), net, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("equal seeds generated different plans:\n%+v\n%+v", a, b)
	}
	if len(a.Faults) != 4 {
		t.Fatalf("faults = %d, want 4", len(a.Faults))
	}
	kinds := map[chaos.FaultKind]int{}
	for _, f := range a.Faults {
		kinds[f.Kind]++
		if f.Cycle < 1 || f.Cycle > spec.Window {
			t.Errorf("fault cycle %d outside [1, %d]", f.Cycle, spec.Window)
		}
		if f.Kind == chaos.LinkFlap && f.Repair != f.Cycle+spec.RepairAfter {
			t.Errorf("flap repair %d, want cycle+%d", f.Repair, spec.RepairAfter)
		}
	}
	if kinds[chaos.LinkKill] != 2 || kinds[chaos.LinkFlap] != 1 || kinds[chaos.RouterKill] != 1 {
		t.Fatalf("kind mix = %v", kinds)
	}
	if first := a.FirstCycle(); first < 1 || first > spec.Window {
		t.Fatalf("FirstCycle = %d", first)
	}
}

func TestGeneratePlanValidation(t *testing.T) {
	net := fract2(t).Net
	cases := []chaos.PlanSpec{
		{LinkKills: 1},                     // no window
		{LinkFlaps: 1, Window: 10},         // flap without RepairAfter
		{LinkKills: 1 << 20, Window: 10},   // more link faults than links
		{RouterKills: 1 << 20, Window: 10}, // more router kills than routers
	}
	for i, spec := range cases {
		if _, err := chaos.GeneratePlan(runner.RNG(1, 0), net, spec); err == nil {
			t.Errorf("case %d: spec %+v accepted", i, spec)
		}
	}
}

// TestRecoveryLevel2 is the acceptance scenario: a seeded plan with three
// faults — a permanent link kill, a transient flap, and a router kill — on
// a level-2 fractahedron. Every transfer must end delivered or accounted
// lost with its retry budget exhausted, and at least one hot
// reconfiguration must have been re-certified and swapped in.
func TestRecoveryLevel2(t *testing.T) {
	sys := fract2(t)
	net := sys.Net
	rng := runner.RNG(11, 0)
	plan, err := chaos.GeneratePlan(rng, net, chaos.PlanSpec{
		LinkKills: 1, LinkFlaps: 1, RouterKills: 1, Window: 40, RepairAfter: 160,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := workload.UniformRandom(rng, net.NumNodes(), 300, 4, 80)
	res, err := chaos.Run(engineConfig(sys), plan, specs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers != 300 {
		t.Fatalf("transfers = %d", res.Transfers)
	}
	if got := res.DeliveredX + res.DeliveredY + res.Lost + res.Unresolved; got != res.Transfers {
		t.Fatalf("accounting: X %d + Y %d + lost %d + unresolved %d != %d",
			res.DeliveredX, res.DeliveredY, res.Lost, res.Unresolved, res.Transfers)
	}
	if res.Unresolved != 0 {
		t.Fatalf("%d transfers unresolved (X deadlocked=%v, Y deadlocked=%v)",
			res.Unresolved, res.XDeadlocked, res.YDeadlocked)
	}
	if res.XDeadlocked || res.YDeadlocked {
		t.Fatalf("deadlock: X=%v Y=%v", res.XDeadlocked, res.YDeadlocked)
	}
	if res.Drops == 0 || res.Reissues == 0 {
		t.Fatalf("faults had no effect: drops=%d reissues=%d", res.Drops, res.Reissues)
	}
	if res.DeliveredY == 0 {
		t.Fatalf("no transfer failed over to Y (reissues=%d lost=%d)", res.Reissues, res.Lost)
	}
	if res.Reconfigurations == 0 {
		t.Fatalf("no hot reconfiguration happened (recert failures=%d)", res.RecertFailures)
	}
	if !res.FinalCertified {
		t.Fatal("final swapped configuration is not certified")
	}
	if res.RecoveryCycles <= 0 {
		t.Fatalf("RecoveryCycles = %d, want positive (recovered deliveries exist)", res.RecoveryCycles)
	}

	// Byte-for-byte repeatability of the whole result.
	res2, err := chaos.Run(engineConfig(sys), plan, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatalf("rerun diverged:\n%+v\n%+v", res, res2)
	}
}

// TestNoFaultsNoOverhead pins the quiet path: an empty plan delivers
// everything on X with zero drops, re-issues, or reconfigurations.
func TestNoFaultsNoOverhead(t *testing.T) {
	sys := fract2(t)
	net := sys.Net
	specs := workload.UniformRandom(runner.RNG(4, 0), net.NumNodes(), 200, 4, 60)
	res, err := chaos.Run(engineConfig(sys), chaos.Plan{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredX != 200 || res.DeliveredY != 0 || res.Drops != 0 ||
		res.Reissues != 0 || res.Lost != 0 || res.Unresolved != 0 ||
		res.Reconfigurations != 0 {
		t.Fatalf("quiet run disturbed: %+v", res)
	}
	if res.FirstFaultCycle != 0 || res.RecoveryCycles != 0 || res.DipDepthPct != 0 {
		t.Fatalf("fault metrics nonzero on quiet run: %+v", res)
	}
}

// TestNodeLinkFault is §1's dual-fabric claim on the engine that runs: with
// node 0's only link dead on X, every transfer still completes by failing
// over to Y; with it dead on both fabrics, node 0 is isolated and exactly
// the transfers touching it are lost.
func TestNodeLinkFault(t *testing.T) {
	sys := fract2(t)
	net := sys.Net
	nodeLink, ok := net.LinkAt(net.NodeByIndex(0), 0)
	if !ok {
		t.Fatal("node 0 unwired")
	}
	specs := workload.UniformRandom(runner.RNG(4, 0), net.NumNodes(), 300, 4, 60)
	touching := 0
	for _, s := range specs {
		if s.Src == 0 || s.Dst == 0 {
			touching++
		}
	}
	if touching == 0 {
		t.Fatal("no transfer touches node 0; the test would prove nothing")
	}
	kill := func(fabric int) chaos.Fault {
		return chaos.Fault{Fabric: fabric, Kind: chaos.LinkKill, Cycle: 1, Link: nodeLink}
	}
	for _, tc := range []struct {
		name   string
		faults []chaos.Fault
		lost   int
	}{
		{"X only", []chaos.Fault{kill(0)}, 0},
		{"X and Y", []chaos.Fault{kill(0), kill(1)}, touching},
	} {
		res, err := chaos.Run(engineConfig(sys), chaos.Plan{Faults: tc.faults}, specs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Lost != tc.lost || res.Unresolved != 0 {
			t.Errorf("%s: lost %d, unresolved %d; want lost %d, unresolved 0",
				tc.name, res.Lost, res.Unresolved, tc.lost)
		}
		if tc.lost == 0 && res.DeliveredY == 0 {
			t.Errorf("%s: no transfer failed over to Y", tc.name)
		}
	}
}

// TestCorruptionDrops exercises the probabilistic flit-corruption path:
// with a high rate, packets die mid-flight and the retry machinery still
// accounts for every transfer.
func TestCorruptionDrops(t *testing.T) {
	sys := fract2(t)
	net := sys.Net
	specs := workload.UniformRandom(runner.RNG(9, 0), net.NumNodes(), 150, 4, 60)
	plan := chaos.Plan{CorruptionRate: 0.02, CorruptionSeed: 0xfeed}
	res, err := chaos.Run(engineConfig(sys), plan, specs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops == 0 {
		t.Fatal("2% corruption produced no drops")
	}
	if got := res.DeliveredX + res.DeliveredY + res.Lost + res.Unresolved; got != res.Transfers {
		t.Fatalf("accounting broken: %+v", res)
	}
	if res.Unresolved != 0 {
		t.Fatalf("%d unresolved", res.Unresolved)
	}
}

// TestCampaignWorkerDeterminism pins the campaign JSON byte-for-byte
// across worker counts — the acceptance criterion for reproducibility.
func TestCampaignWorkerDeterminism(t *testing.T) {
	spec := chaos.CampaignSpec{
		Trials:  3,
		Packets: 150,
		Flits:   3,
		Window:  60,
		Seed:    5,
		Plan:    chaos.PlanSpec{LinkKills: 1, LinkFlaps: 1, RouterKills: 1, Window: 40, RepairAfter: 120},
		Engine:  engineConfig(fract2(t)),
	}
	one, err := chaos.Campaign(spec, runner.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := chaos.Campaign(spec, runner.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := one.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j4, err := four.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Fatalf("campaign JSON differs between 1 and 4 workers:\n%s\n---\n%s", j1, j4)
	}
	if one.Transfers != 3*150 {
		t.Fatalf("campaign transfers = %d", one.Transfers)
	}
	if one.Delivered+one.Lost+one.Unresolved != one.Transfers {
		t.Fatalf("campaign accounting broken: %+v", one)
	}
}

// TestBackoffConfigValidation pins the config-fold bugfix: a BackoffCap
// below BackoffBase used to be silently ignored from the very first
// re-issue (base<<0 already exceeded the cap); the fold now rejects it,
// along with negative retry/backoff knobs, while zero still means the
// documented defaults.
func TestBackoffConfigValidation(t *testing.T) {
	sys := fract2(t)
	net := sys.Net
	rng := runner.RNG(11, 0)
	plan, err := chaos.GeneratePlan(rng, net, chaos.PlanSpec{LinkKills: 1, Window: 40})
	if err != nil {
		t.Fatal(err)
	}
	specs := workload.UniformRandom(rng, net.NumNodes(), 20, 4, 20)

	run := func(mut func(*chaos.Config)) error {
		cfg := engineConfig(sys)
		mut(&cfg)
		_, err := chaos.Run(cfg, plan, specs)
		return err
	}

	bad := []struct {
		name string
		mut  func(*chaos.Config)
		want string
	}{
		{"cap below base", func(c *chaos.Config) { c.BackoffBase = 100; c.BackoffCap = 10 }, "BackoffCap 10 is below BackoffBase 100"},
		{"cap below default base", func(c *chaos.Config) { c.BackoffCap = 4 }, "BackoffCap 4 is below BackoffBase 8"},
		{"negative base", func(c *chaos.Config) { c.BackoffBase = -1 }, "BackoffBase -1 is negative"},
		{"negative cap", func(c *chaos.Config) { c.BackoffCap = -5 }, "BackoffCap -5 is negative"},
		{"negative retries", func(c *chaos.Config) { c.MaxRetries = -2 }, "MaxRetries -2 is negative"},
	}
	for _, tc := range bad {
		err := run(tc.mut)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	good := []func(*chaos.Config){
		func(c *chaos.Config) {}, // all defaults
		func(c *chaos.Config) { c.BackoffBase = 16; c.BackoffCap = 16 }, // cap == base is a flat schedule
		func(c *chaos.Config) { c.BackoffBase = 2; c.BackoffCap = 64 },
	}
	for i, mut := range good {
		if err := run(mut); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}

	// Campaign surfaces the same validation before fanning out.
	spec := chaos.CampaignSpec{
		Trials: 1, Packets: 10, Flits: 2, Window: 20, Seed: 3,
		Plan:   chaos.PlanSpec{LinkKills: 1, Window: 20},
		Engine: engineConfig(sys),
	}
	spec.Engine.BackoffBase, spec.Engine.BackoffCap = 50, 5
	if _, err := chaos.Campaign(spec, runner.Config{Workers: 2}); err == nil ||
		!strings.Contains(err.Error(), "BackoffCap 5 is below BackoffBase 50") {
		t.Errorf("campaign: err = %v, want cap-below-base rejection", err)
	}
}
