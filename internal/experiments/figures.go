// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns a typed result with a String() that
// prints the same rows the paper reports; cmd/paper and the benchmark
// harness are thin wrappers over this package. EXPERIMENTS.md records the
// paper-claimed versus measured values for each entry.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Figure1Result demonstrates the wormhole deadlock of Figure 1 in the
// flit-level simulator: four long packets routed clockwise around a 4-ring
// block in a circular wait; restricting the routing delivers all of them.
type Figure1Result struct {
	UnrestrictedDeadlocked bool
	WaitCycleLen           int
	WaitCycle              []string // rendered channels of the witness
	RestrictedDelivered    int
	RestrictedDeadlocked   bool
	CDGCyclic              bool // static analysis agrees with the simulator
}

// Figure1 runs the deadlock demonstration.
func (l *Lab) Figure1() (Figure1Result, error) {
	var res Figure1Result

	unsafe, err := l.System("ring:size=4,unsafe")
	if err != nil {
		return res, err
	}
	specs := workload.Transfers(workload.RingDeadlockSet(4), 32)
	simRes, err := unsafe.SimulateUnrestricted(specs, sim.Config{FIFODepth: 2, DeadlockThreshold: 500})
	if err != nil {
		return res, err
	}
	res.UnrestrictedDeadlocked = simRes.Deadlocked
	res.WaitCycleLen = len(simRes.WaitCycle)
	for _, ch := range simRes.WaitCycle {
		res.WaitCycle = append(res.WaitCycle, unsafe.Net.ChannelString(ch))
	}

	rep, err := deadlock.Analyze(unsafe.Tables)
	if err != nil {
		return res, err
	}
	res.CDGCyclic = !rep.Free

	safe, err := l.System("ring:size=4")
	if err != nil {
		return res, err
	}
	simRes2, err := safe.Simulate(specs, sim.Config{FIFODepth: 2, DeadlockThreshold: 500})
	if err != nil {
		return res, err
	}
	res.RestrictedDelivered = simRes2.Delivered
	res.RestrictedDeadlocked = simRes2.Deadlocked
	return res, nil
}

// String renders the Figure 1 demonstration.
func (r Figure1Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 1 — deadlock in a wormhole-routed network (4-router loop)\n")
	fmt.Fprintf(&sb, "  unrestricted clockwise routing: deadlocked=%v, wait cycle of %d channels\n",
		r.UnrestrictedDeadlocked, r.WaitCycleLen)
	for _, c := range r.WaitCycle {
		fmt.Fprintf(&sb, "    wait: %s\n", c)
	}
	fmt.Fprintf(&sb, "  static CDG analysis cyclic: %v (agrees with simulator)\n", r.CDGCyclic)
	fmt.Fprintf(&sb, "  restricted routing (loop broken): delivered %d/4, deadlocked=%v\n",
		r.RestrictedDelivered, r.RestrictedDeadlocked)
	return sb.String()
}

// Figure2Result compares the hypercube's path-disable routing (expressed as
// up*/down* order, breaking every face and 6/8-link loop) with e-cube:
// both deadlock-free, but the disables make uniform-load link utilization
// uneven — the drawback §2 discusses under Figure 2.
type Figure2Result struct {
	Dim                     int
	UpDownFree, ECubeFree   bool
	UpDownMin, UpDownMax    int
	ECubeMin, ECubeMax      int
	UpDownRatio, ECubeRatio float64
}

// Figure2 runs the hypercube path-disable analysis on a 3-cube.
func (l *Lab) Figure2() (Figure2Result, error) {
	res := Figure2Result{Dim: 3}
	ud, err := l.System("hypercube:dim=3,updown")
	if err != nil {
		return res, err
	}
	ec, err := l.System("hypercube:dim=3")
	if err != nil {
		return res, err
	}
	repUD, err := deadlock.Analyze(ud.Tables)
	if err != nil {
		return res, err
	}
	repEC, err := deadlock.Analyze(ec.Tables)
	if err != nil {
		return res, err
	}
	res.UpDownFree, res.ECubeFree = repUD.Free, repEC.Free

	profUD, err := contention.Utilization(ud.Tables)
	if err != nil {
		return res, err
	}
	profEC, err := contention.Utilization(ec.Tables)
	if err != nil {
		return res, err
	}
	res.UpDownMin, res.UpDownMax = profUD.Min, profUD.Max
	res.ECubeMin, res.ECubeMax = profEC.Min, profEC.Max
	res.UpDownRatio, _ = profUD.ImbalanceRatio()
	res.ECubeRatio, _ = profEC.ImbalanceRatio()
	return res, nil
}

// String renders the Figure 2 comparison.
func (r Figure2Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 2 — breaking hypercube deadlocks with path disables (3-cube, uniform load)\n")
	fmt.Fprintf(&sb, "  path-disable (up*/down*) routing: deadlock-free=%v, link load min/max = %d/%d (imbalance %.2fx)\n",
		r.UpDownFree, r.UpDownMin, r.UpDownMax, r.UpDownRatio)
	fmt.Fprintf(&sb, "  e-cube (dimension-order) routing: deadlock-free=%v, link load min/max = %d/%d (imbalance %.2fx)\n",
		r.ECubeFree, r.ECubeMin, r.ECubeMax, r.ECubeRatio)
	sb.WriteString("  => disables avoid deadlock but give uneven utilization, as §2 argues\n")
	return sb.String()
}

// Figure3Row is one fully-connected configuration of 6-port routers.
type Figure3Row struct {
	Routers       int
	NodePorts     int
	InterLinks    int
	MaxContention int // measured with the matching metric
}

// Figure3 enumerates the fully-connected groups of Figure 3 (M = 1..6
// six-port routers) and measures their worst-case link contention.
func (l *Lab) Figure3() ([]Figure3Row, error) {
	var rows []Figure3Row
	for m := 1; m <= 6; m++ {
		sys, err := l.System(fmt.Sprintf("fullmesh:m=%d,ports=6", m))
		if err != nil {
			return nil, err
		}
		res, err := sys.Contention()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Figure3Row{
			Routers:       m,
			NodePorts:     sys.Net.NumNodes(),
			InterLinks:    m * (m - 1) / 2,
			MaxContention: res.Max,
		})
	}
	return rows, nil
}

// Figure3String renders the Figure 3 table.
func Figure3String(rows []Figure3Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 3 — fully-connected topologies of 6-port routers\n")
	sb.WriteString("  M routers | node ports | inter-router links | max link contention\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %9d | %10d | %18d | %d:1\n",
			r.Routers, r.NodePorts, r.InterLinks, r.MaxContention)
	}
	return sb.String()
}

// Figure5Row describes one thin-fractahedron depth (Figures 4 and 5).
type Figure5Row struct {
	Levels  int
	Nodes   int
	Routers int
	MaxHops int
	Formula int // 4N-2 (2 at N=1: a single tetrahedron)
	AvgHops float64
}

// Figure5 builds thin fractahedrons of increasing depth and checks the
// delay growth against the 4N-2 rule.
func (l *Lab) Figure5(maxLevels int) ([]Figure5Row, error) {
	var rows []Figure5Row
	for n := 1; n <= maxLevels; n++ {
		sys, err := l.System(fractSpec(false, fmt.Sprintf("levels=%d", n)))
		if err != nil {
			return nil, err
		}
		hops, err := metrics.Hops(sys.Tables)
		if err != nil {
			return nil, err
		}
		formula := 4*n - 2
		if n == 1 {
			formula = 2
		}
		rows = append(rows, Figure5Row{
			Levels:  n,
			Nodes:   sys.Net.NumNodes(),
			Routers: sys.Net.NumRouters(),
			MaxHops: hops.Max,
			Formula: formula,
			AvgHops: hops.Mean,
		})
	}
	return rows, nil
}

// Figure5String renders the thin-fractahedron scaling table.
func Figure5String(rows []Figure5Row) string {
	var sb strings.Builder
	sb.WriteString("Figures 4/5 — tetrahedron and thin fractahedron scaling\n")
	sb.WriteString("  levels | nodes | routers | max hops (formula 4N-2) | avg hops\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %6d | %5d | %7d | %8d (%d) | %.2f\n",
			r.Levels, r.Nodes, r.Routers, r.MaxHops, r.Formula, r.AvgHops)
	}
	return sb.String()
}

// fractIntraL2Contention measures a fractahedral system's contention
// restricted to the level-2 intra-ensemble links — the exact quantity §3.4
// derives as 4:1.
func fractIntraL2Contention(sys *core.System) (int, error) {
	f := sys.Concrete.(*topology.Fractahedron)
	res, err := contention.MaxLinkContentionFiltered(sys.Tables, func(ch topology.ChannelID) bool {
		src := f.Meta(f.ChannelSrc(ch).Device)
		dst := f.Meta(f.ChannelDst(ch).Device)
		return src.Level == 2 && dst.Level == 2
	})
	if err != nil {
		return 0, err
	}
	return res.Max, nil
}
