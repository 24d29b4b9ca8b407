package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// FailoverResult reports a live dual-fabric failover run (§1: "full network
// fault-tolerance can be provided by configuring pairs of router fabrics
// with dual-ported nodes").
type FailoverResult struct {
	Packets     int // offered transfers
	FaultCycle  int
	DeliveredX  int // completed on the primary fabric
	Dropped     int // killed by the fault on X
	FailedOver  int // re-issued on Y by the recovery engine
	DeliveredY  int
	TotalLost   int
	XDeadlocked bool
	YDeadlocked bool
}

// dualFabricSpec is the 64-node fat fractahedron (Tetra(2, true)) that
// both fabrics of the failover and chaos experiments are built as.
const dualFabricSpec = "fat-fract:levels=2"

// FailoverSim drives a uniform load over the X fabric of a dual
// fat-fractahedron pair, kills a heavily used inter-router link mid-run,
// and lets the chaos recovery engine re-issue every killed transfer over
// the co-simulated Y fabric — the software failover ServerNet's dual
// fabrics enable. No transfer is lost.
//
// The two fabrics co-simulate in lock step inside chaos.Run, with X drops
// feeding Y injections a backoff later. The single rng feeds only the
// workload generator (victim selection is a deterministic argmax over route
// counts), so the run is reproducible from the seed alone.
func (l *Lab) FailoverSim(packets, flits, faultCycle int, seed int64) (FailoverResult, error) {
	res := FailoverResult{Packets: packets, FaultCycle: faultCycle}
	sys, err := l.System(dualFabricSpec)
	if err != nil {
		return res, err
	}
	netX := sys.Net

	// The failover run is a single simulation point: point index 0 of its
	// own seed space, per the seedflow discipline.
	rng := runner.RNG(seed, 0)
	specs := workload.UniformRandom(rng, netX.NumNodes(), packets, flits, faultCycle*2)

	// Pick the busiest inter-router link under this routing to kill.
	var victim topology.LinkID = -1
	best := -1
	counts := make(map[topology.LinkID]int)
	for _, spec := range specs {
		r, err := sys.Tables.Route(spec.Src, spec.Dst)
		if err != nil {
			return res, err
		}
		for _, ch := range r.Channels {
			a := netX.Device(netX.ChannelSrc(ch).Device).Kind
			b := netX.Device(netX.ChannelDst(ch).Device).Kind
			if a == topology.Router && b == topology.Router {
				counts[netX.ChannelLink(ch)]++
			}
		}
	}
	for l, c := range counts {
		if c > best || (c == best && l < victim) {
			best, victim = c, l
		}
	}

	plan := chaos.Plan{Faults: []chaos.Fault{
		{Fabric: 0, Kind: chaos.LinkKill, Cycle: faultCycle, Link: victim},
	}}
	var cr chaos.Result
	err = l.record(func() (int, int, error) {
		var err error
		cr, err = chaos.Run(chaos.Config{
			System: sys,
			Sim:    sim.Config{FIFODepth: 4},
		}, plan, specs)
		return cr.Cycles, cr.FlitMoves, err
	})
	if err != nil {
		return res, err
	}
	res.DeliveredX = cr.DeliveredX
	res.Dropped = cr.Drops
	res.FailedOver = cr.Reissues
	res.DeliveredY = cr.DeliveredY
	res.TotalLost = cr.Lost + cr.Unresolved
	res.XDeadlocked = cr.XDeadlocked
	res.YDeadlocked = cr.YDeadlocked
	return res, nil
}

// String renders the failover run.
func (r FailoverResult) String() string {
	var sb strings.Builder
	sb.WriteString("§1 — live dual-fabric failover (64-node fat fractahedron pair)\n")
	fmt.Fprintf(&sb, "  %d transfers offered; busiest X link killed at cycle %d\n", r.Packets, r.FaultCycle)
	fmt.Fprintf(&sb, "  fabric X: delivered %d, killed %d (deadlocked=%v)\n", r.DeliveredX, r.Dropped, r.XDeadlocked)
	fmt.Fprintf(&sb, "  fabric Y: re-issued %d, delivered %d (deadlocked=%v)\n", r.FailedOver, r.DeliveredY, r.YDeadlocked)
	fmt.Fprintf(&sb, "  transfers lost end to end: %d\n", r.TotalLost)
	return sb.String()
}
