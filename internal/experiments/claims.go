package experiments

import (
	"fmt"
	"strings"

	"repro/internal/contention"
	"repro/internal/deadlock"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Claim is one machine-checked statement from the paper.
type Claim struct {
	ID       string // section/figure/table reference
	Text     string // the claim
	Paper    string // the paper's value
	Measured string // this repository's value
	Match    bool
	Note     string // context for divergences
}

// Claims evaluates every quantitative claim of the paper against the live
// implementation and returns the verdict table — the one-stop reproduction
// scorecard behind EXPERIMENTS.md.
func (l *Lab) Claims() ([]Claim, error) {
	var cs []Claim
	add := func(id, text, paper, measured string, match bool, note string) {
		cs = append(cs, Claim{ID: id, Text: text, Paper: paper, Measured: measured, Match: match, Note: note})
	}

	// --- Figure 1: wormhole deadlock and its avoidance.
	f1, err := l.Figure1()
	if err != nil {
		return nil, err
	}
	add("Fig 1", "circular wait deadlocks a wormhole loop", "deadlock",
		fmt.Sprintf("deadlocked=%v, %d-channel wait cycle", f1.UnrestrictedDeadlocked, f1.WaitCycleLen),
		f1.UnrestrictedDeadlocked && f1.CDGCyclic, "")
	add("Fig 1", "restricting the routing avoids the deadlock", "no deadlock",
		fmt.Sprintf("delivered %d/4", f1.RestrictedDelivered),
		!f1.RestrictedDeadlocked && f1.RestrictedDelivered == 4, "")

	// --- Figure 2: hypercube path disables.
	f2, err := l.Figure2()
	if err != nil {
		return nil, err
	}
	add("Fig 2", "path disables break all hypercube loops", "deadlock-free",
		fmt.Sprintf("CDG acyclic=%v", f2.UpDownFree), f2.UpDownFree, "")
	add("§2", "disables give uneven link utilization under uniform load", "uneven",
		fmt.Sprintf("%.1fx imbalance (e-cube: %.1fx)", f2.UpDownRatio, f2.ECubeRatio),
		f2.UpDownRatio > 2*f2.ECubeRatio, "")

	// --- Figure 3: fully-connected groups.
	f3, err := l.Figure3()
	if err != nil {
		return nil, err
	}
	portsOK, contOK := true, true
	for _, r := range f3 {
		if r.NodePorts != r.Routers*(7-r.Routers) {
			portsOK = false
		}
		want := 7 - r.Routers
		if r.Routers == 1 {
			want = 1 // no inter-router links in a single-router group
		}
		if r.MaxContention != want {
			contOK = false
		}
	}
	add("Fig 3", "M fully-connected 6-port routers expose M(7-M) node ports", "10/12/12/10/6",
		"identical", portsOK, "")
	add("Fig 3", "group contention is (7-M):1", "5:1..1:1", "identical", contOK, "")

	// --- Table 1.
	t1, err := l.Table1(3)
	if err != nil {
		return nil, err
	}
	nodesOK, delayOK, thinBisOK, fatBisOK := true, true, true, true
	for _, r := range t1 {
		if r.MaxNodes != r.MaxNodesFormula {
			nodesOK = false
		}
		if r.MaxDelay != r.MaxDelayFormula {
			delayOK = false
		}
		if !r.Fat && r.Bisection != 4 {
			thinBisOK = false
		}
		if r.Fat && r.Bisection != r.BisectionFat4PowN {
			fatBisOK = false
		}
	}
	add("Table 1", "capacity 2*8^N CPUs with the fan-out stage", "2*8^N", "identical (N=1..3)", nodesOK, "")
	add("Table 1", "max delay thin 4N-2, fat 3N-1", "formulas", "identical (N=1..3)", delayOK, "")
	add("Table 1", "thin bisection fixed at 4 links", "4", "4 (N=1..3)", thinBisOK, "")
	add("Table 1", "fat bisection (printed '4N')", "4N?", "4^N measured", fatBisOK,
		"the scan's '4N' reads as a lost superscript; min-cut confirms 4^N")

	// --- §3.1 mesh.
	mesh, err := l.Section31Mesh()
	if err != nil {
		return nil, err
	}
	hopsOK := true
	for _, r := range mesh {
		if r.MaxHops != r.PaperMaxHops {
			hopsOK = false
		}
	}
	add("§3.1", "mesh max hops 11 / 15 / 45 (6x6, 8x8, 23x23)", "11/15/45", "identical", hopsOK, "")
	add("§3.1", "6x6 mesh worst contention", "10:1",
		fmt.Sprintf("%d:1", mesh[0].MaxContention), mesh[0].MaxContention == 10, "")

	// --- §3.2 hypercube.
	add("§3.2", "64-node hypercube needs 7-port routers", "7 ports",
		fmt.Sprintf("%d ports", topology.HypercubePortsNeeded(6, 1)),
		topology.HypercubePortsNeeded(6, 1) == 7, "")

	// --- §3.3 / Table 2 fat tree.
	ftSys, err := l.System("fattree:d=4,u=2,nodes=64")
	if err != nil {
		return nil, err
	}
	ft, err := table2Row("", ftSys)
	if err != nil {
		return nil, err
	}
	add("§3.3", "64-node 4-2 fat tree router count", "28",
		fmt.Sprintf("%d", ft.Routers), ft.Routers == 28, "")
	add("Table 2", "fat tree average hops", "4.4",
		fmt.Sprintf("%.2f", ft.AvgHops), ft.AvgHops > 4.35 && ft.AvgHops < 4.45, "")
	add("§3.3", "fat tree worst contention (any static partition)", "12:1",
		fmt.Sprintf("%d:1", ft.MaxContention), ft.MaxContention == 12, "")
	add("§3.3", "fat tree bisection", "4 links",
		fmt.Sprintf("%d links", ft.Bisection), ft.Bisection == 4,
		"measured 8; no 28-router 4-2 construction yields 4")

	// --- §3.4 3-3 fat tree.
	ft33, err := l.System("fattree:d=3,u=3,nodes=64")
	if err != nil {
		return nil, err
	}
	h33, err := metrics.Hops(ft33.Tables)
	if err != nil {
		return nil, err
	}
	add("§3.4", "3-3 fat tree router count", "100",
		fmt.Sprintf("%d", ft33.Net.NumRouters()), ft33.Net.NumRouters() == 100, "")
	add("§3.4", "3-3 fat tree average hops", "5.9",
		fmt.Sprintf("%.2f", h33.Mean), h33.Mean > 5.7 && h33.Mean < 6.1, "")

	// --- Figure 7 / Table 2 fractahedron.
	frSys, err := l.System("fat-fract:levels=2")
	if err != nil {
		return nil, err
	}
	fr, err := table2Row("", frSys)
	if err != nil {
		return nil, err
	}
	add("Table 2", "fat fractahedron router count", "48",
		fmt.Sprintf("%d", fr.Routers), fr.Routers == 48, "")
	add("Table 2", "fat fractahedron average hops", "4.3",
		fmt.Sprintf("%.2f", fr.AvgHops), fr.AvgHops > 4.25 && fr.AvgHops < 4.35, "")
	intraL2, err := fractIntraL2Contention(frSys)
	if err != nil {
		return nil, err
	}
	add("§3.4", "fractahedron contention on intra-level-2 links", "4:1",
		fmt.Sprintf("%d:1", intraL2), intraL2 == 4, "")
	add("Table 2", "fractahedron contention over ALL links", "4:1",
		fmt.Sprintf("%d:1", fr.MaxContention), fr.MaxContention == 4,
		"8:1 on inter-level down links, a class §3.4 does not analyze; still beats the fat tree")
	add("§3.4", "fractahedron bisection equals the 4-2 fat tree's", "equal",
		fmt.Sprintf("%d vs %d", fr.Bisection, ft.Bisection),
		fr.Bisection == ft.Bisection,
		"measured 16 vs 8 — the fractahedron is better, not equal")
	add("§3.4", "transfers 6,7,14,15 -> 54,55,62,63 share one diagonal link", "4 on one link",
		func() string {
			c, _, err := contention.ContentionOfSet(frSys.Tables,
				[]contention.Transfer{{Src: 6, Dst: 54}, {Src: 7, Dst: 55}, {Src: 14, Dst: 62}, {Src: 15, Dst: 63}})
			if err != nil {
				return "error"
			}
			return fmt.Sprintf("%d on one link", c)
		}(), true, "")
	cs[len(cs)-1].Match = strings.HasPrefix(cs[len(cs)-1].Measured, "4")

	// --- §2.4 deadlock freedom.
	rep, err := deadlock.Analyze(frSys.Tables)
	if err != nil {
		return nil, err
	}
	add("§2.4", "fat fractahedron routing is deadlock-free despite the layers", "deadlock-free",
		fmt.Sprintf("CDG acyclic=%v (%d deps)", rep.Free, rep.Deps), rep.Free, "")

	// --- §2.2 fan-out delays.
	fanSys, err := l.System("thin-fract:levels=1,fanout")
	if err != nil {
		return nil, err
	}
	fanHops, err := metrics.Hops(fanSys.Tables)
	if err != nil {
		return nil, err
	}
	add("§2.2", "16-CPU system max delay (incl. fan-out)", "4 hops",
		fmt.Sprintf("%d hops", fanHops.Max), fanHops.Max == 4, "")

	// --- §2.2 1024-CPU delays (thin 12, fat 10, fan-out included). The
	// structurally worst pair is an all-sevens source address against an
	// all-fours destination. Digit 7 sits on router 3 of its ensemble at
	// every level, which forces an intra-ensemble hop before every thin
	// ascent; digit 4 sits on router 2, which forces one at the apex and
	// after every descent. Both variants route it at their maximum delay.
	for _, c := range []struct {
		fat  bool
		want int
	}{{false, 12}, {true, 10}} {
		sys1024, err := l.System(fractSpec(c.fat, "levels=3,fanout"))
		if err != nil {
			return nil, err
		}
		if n := sys1024.Net.NumNodes(); n != 1024 {
			return nil, fmt.Errorf("experiments: 1024-CPU build has %d nodes", n)
		}
		worstSrc, worstDst := 0, 0
		for k := 0; k < 3; k++ {
			worstSrc = worstSrc*8 + 7
			worstDst = worstDst*8 + 4
		}
		r, err := sys1024.Tables.Route(worstSrc*2+1, worstDst*2)
		if err != nil {
			return nil, err
		}
		variant := "thin"
		if c.fat {
			variant = "fat"
		}
		add("§2.2", fmt.Sprintf("1024-CPU %s fractahedron max delay", variant),
			fmt.Sprintf("%d hops", c.want), fmt.Sprintf("%d hops", r.RouterHops()),
			r.RouterHops() == c.want, "")
	}

	// --- §3.3 in-order requirement, exercised in the simulator.
	res, err := frSys.Simulate(workload.Transfers(workload.FractahedronWorstCase(), 16), sim.Config{})
	if err != nil {
		return nil, err
	}
	add("§3.3", "fixed per-pair paths keep packets in order", "in order",
		fmt.Sprintf("%d violations", res.InOrderViolations), res.InOrderViolations == 0, "")

	return cs, nil
}

// ClaimsMarkdown renders the scorecard as a markdown table.
func ClaimsMarkdown(cs []Claim) string {
	var sb strings.Builder
	sb.WriteString("# Reproduction scorecard\n\n")
	sb.WriteString("| ref | claim | paper | measured | verdict |\n")
	sb.WriteString("|---|---|---|---|---|\n")
	pass := 0
	for _, c := range cs {
		verdict := "PASS"
		if !c.Match {
			verdict = "DIVERGES"
			if c.Note != "" {
				verdict += " — " + c.Note
			}
		} else if c.Note != "" {
			verdict += " — " + c.Note
		}
		fmt.Fprintf(&sb, "| %s | %s | %s | %s | %s |\n", c.ID, c.Text, c.Paper, c.Measured, verdict)
		if c.Match {
			pass++
		}
	}
	fmt.Fprintf(&sb, "\n%d of %d claims reproduce; divergences are analyzed in EXPERIMENTS.md.\n", pass, len(cs))
	return sb.String()
}
