package experiments

import (
	"fmt"
	"strings"

	"repro/internal/deadlock"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// AvoidanceRow compares one deadlock-handling scheme from §2 of the paper
// on the Figure 1 workload (a circular-wait set of long worms on a ring).
type AvoidanceRow struct {
	Scheme          string
	BuffersPerPort  int // flits of input buffering per router port
	Delivered       int
	Dropped         int
	Deadlocked      bool
	Retries         int
	OrderViolations int
	Cycles          int
}

// DeadlockAvoidanceComparison runs the §2 trade-off study: the same
// circular-wait workload under (a) no protection, (b) ServerNet-style
// routing restriction (zero extra hardware), (c) Dally–Seitz virtual
// channels (double the buffers), and (d) timeout/discard/retry recovery
// (no extra buffers, but retries — and with them the loss of guaranteed
// in-order delivery the paper's protocol depends on; on this fully
// symmetric workload every worm times out together, so recovery degrades
// to retry exhaustion).
func (l *Lab) DeadlockAvoidanceComparison(flits int) ([]AvoidanceRow, error) {
	const depth = 4
	specs := workload.Transfers(workload.RingDeadlockSet(4), flits)
	var rows []AvoidanceRow

	// (a) Unprotected clockwise routing.
	unsafe, err := l.System("ring:size=4,unsafe")
	if err != nil {
		return nil, err
	}
	res, err := unsafe.SimulateUnrestricted(specs, sim.Config{FIFODepth: depth, DeadlockThreshold: 500})
	if err != nil {
		return nil, err
	}
	rows = append(rows, AvoidanceRow{
		Scheme: "none (Figure 1)", BuffersPerPort: depth,
		Delivered: res.Delivered, Deadlocked: res.Deadlocked, Cycles: res.Cycles,
	})

	// (b) Routing restriction — the paper's approach, generalized by the
	// fractahedral family: no added buffering.
	safe, err := l.System("ring:size=4")
	if err != nil {
		return nil, err
	}
	res, err = safe.Simulate(specs, sim.Config{FIFODepth: depth, DeadlockThreshold: 500})
	if err != nil {
		return nil, err
	}
	rows = append(rows, AvoidanceRow{
		Scheme: "routing restriction (ServerNet)", BuffersPerPort: depth,
		Delivered: res.Delivered, Deadlocked: res.Deadlocked,
		OrderViolations: res.InOrderViolations, Cycles: res.Cycles,
	})

	// (c) Two virtual channels with the dateline discipline: works on the
	// unrestricted physical cycle, but each port now needs two FIFOs —
	// "the cost of the buffers can be quite significant because buffering
	// space may dominate the area of a typical router" (§2).
	ring := topology.NewRing(4, 1)
	dl := routing.RingDateline(ring)
	rep, err := deadlock.Analyze(dl)
	if err != nil {
		return nil, err
	}
	if !rep.Free {
		return nil, fmt.Errorf("experiments: dateline ring unexpectedly cyclic")
	}
	vcSim := simFor(ring.Network, sim.Config{FIFODepth: depth, VirtualChannels: 2, DeadlockThreshold: 500})
	if err := vcSim.AddBatch(dl, specs); err != nil {
		return nil, err
	}
	res = vcSim.Run()
	rows = append(rows, AvoidanceRow{
		Scheme: "virtual channels (Dally-Seitz)", BuffersPerPort: 2 * depth,
		Delivered: res.Delivered, Deadlocked: res.Deadlocked,
		OrderViolations: res.InOrderViolations, Cycles: res.Cycles,
	})

	// (d) Timeout / discard / retry recovery on the unprotected routing.
	cw := routing.RingClockwise(ring)
	toSim := simFor(ring.Network, sim.Config{
		FIFODepth: depth, DeadlockThreshold: 4000,
		TimeoutCycles: 60, MaxRetries: 2,
	})
	if err := toSim.AddBatch(cw, specs); err != nil {
		return nil, err
	}
	res = toSim.Run()
	rows = append(rows, AvoidanceRow{
		Scheme: "timeout+retry recovery", BuffersPerPort: depth,
		Delivered: res.Delivered, Dropped: res.Dropped, Deadlocked: res.Deadlocked,
		Retries: res.Retries, OrderViolations: res.InOrderViolations, Cycles: res.Cycles,
	})
	return rows, nil
}

// DeadlockAvoidanceString renders the §2 comparison.
func DeadlockAvoidanceString(rows []AvoidanceRow) string {
	var sb strings.Builder
	sb.WriteString("§2 — deadlock handling alternatives on the Figure 1 workload (4-ring, long worms)\n")
	sb.WriteString("  scheme                          | buffers/port | delivered | dropped | deadlocked | retries | order violations\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-31s | %12d | %9d | %7d | %10v | %7d | %d\n",
			r.Scheme, r.BuffersPerPort, r.Delivered, r.Dropped, r.Deadlocked, r.Retries, r.OrderViolations)
	}
	sb.WriteString("  => only the routing restriction delivers everything with no extra buffers\n")
	sb.WriteString("     and no retries — the paper's case for topology-based avoidance\n")
	return sb.String()
}

// simFor builds an unrestricted simulator over a network (helper).
func simFor(net *topology.Network, cfg sim.Config) *sim.Simulator {
	return sim.New(net, router.AllowAll(net), cfg)
}
