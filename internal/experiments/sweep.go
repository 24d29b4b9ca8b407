package experiments

import (
	"fmt"
	"strings"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SweepRow is one offered-load point for one topology in the simulation
// sweep (§4's future work: "simulations of large topologies in order to
// better understand network performance under heavy loading").
type SweepRow struct {
	Topology   string
	Rate       float64 // packet-start probability per node per cycle
	Offered    float64 // offered load in flits per node per cycle
	Delivered  int
	AvgLatency float64
	Throughput float64 // delivered flits per cycle, network-wide
	Deadlocked bool
}

// SimSweep runs open-loop Bernoulli traffic at each rate over the three
// 64-node contenders and reports the latency/throughput curves. Points fan
// over the runner's worker pool; each point's workload derives from
// (seed, rate index), so all topologies face the same packet stream at a
// given rate — keeping the curves comparable — while distinct rates draw
// independent streams, and the rows are bit-identical for any worker count.
func (l *Lab) SimSweep(rates []float64, warmCycles, flits int, seed int64) ([]SweepRow, error) {
	systems, err := l.systems(
		namedSpec{"4-2 fat tree", "fattree:d=4,u=2,nodes=64"},
		namedSpec{"fat fractahedron", "fat-fract:levels=2"},
		namedSpec{"thin fractahedron", "thin-fract:levels=2"},
	)
	if err != nil {
		return nil, err
	}

	return runner.Map(runner.Config{Workers: l.Workers}, len(rates)*len(systems), func(i int) (SweepRow, error) {
		rate, s := rates[i/len(systems)], systems[i%len(systems)]
		rng := runner.RNG(seed, i/len(systems))
		specs := workload.Bernoulli(rng, s.sys.Net.NumNodes(), warmCycles, flits, rate)
		res, err := l.simulate(s.sys, specs, sim.Config{FIFODepth: 4})
		if err != nil {
			return SweepRow{}, err
		}
		return SweepRow{
			Topology:   s.name,
			Rate:       rate,
			Offered:    rate * float64(flits),
			Delivered:  res.Delivered,
			AvgLatency: res.AvgLatency,
			Throughput: res.ThroughputFPC,
			Deadlocked: res.Deadlocked,
		}, nil
	})
}

// SimSweepString renders the latency/throughput curves.
func SimSweepString(rows []SweepRow) string {
	var sb strings.Builder
	sb.WriteString("§4 future work — flit-level simulation under load (64 nodes, open loop)\n")
	sb.WriteString("  topology          | rate  | offered f/n/c | delivered | avg latency | throughput f/c | deadlocked\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-17s | %.3f | %13.3f | %9d | %11.1f | %14.2f | %v\n",
			r.Topology, r.Rate, r.Offered, r.Delivered, r.AvgLatency, r.Throughput, r.Deadlocked)
	}
	return sb.String()
}

// DBScenarioRow compares the §3.0 database pattern on the two 64-node
// networks under each topology's own worst-case stream placement.
type DBScenarioRow struct {
	Topology  string
	Streams   int // size of the adversarial stream set (= max contention)
	Transfers int
	Cycles    int
	// PerStreamBW is the sustained bandwidth each stream achieved, in
	// flits per cycle. With S streams serialized over one contended link
	// it approaches 1/S — the operational meaning of the contention ratio.
	PerStreamBW float64
	OrderKept   bool
}

// DatabaseScenario runs §3.0's commercial workload — "an arbitrary set of
// CPU nodes trying to communicate with an arbitrary set of disk controller
// nodes over an extended period" — placed adversarially per topology: each
// network carries sustained streams over ITS OWN worst-case transfer set
// (the contention matching's witness). The per-stream bandwidth then shows
// the contention ratio operating: ~1/12 flit/cycle on the fat tree versus
// ~1/8 on the fat fractahedron.
func (l *Lab) DatabaseScenario(transfersEach, flits int) ([]DBScenarioRow, error) {
	systems, err := l.systems(
		namedSpec{"4-2 fat tree", "fattree:d=4,u=2,nodes=64"},
		namedSpec{"fat fractahedron", "fat-fract:levels=2"},
	)
	if err != nil {
		return nil, err
	}

	return runner.Map(runner.Config{Workers: l.Workers}, len(systems), func(i int) (DBScenarioRow, error) {
		s := systems[i]
		worst, err := s.sys.Contention()
		if err != nil {
			return DBScenarioRow{}, err
		}
		var cpus, disks []int
		for _, w := range worst.Witness {
			cpus = append(cpus, w.Src)
			disks = append(disks, w.Dst)
		}
		specs := workload.DatabaseQuery(cpus, disks, transfersEach, flits)
		res, err := l.simulate(s.sys, specs, sim.Config{FIFODepth: 4})
		if err != nil {
			return DBScenarioRow{}, err
		}
		perStream := 0.0
		if res.Cycles > 0 {
			perStream = res.ThroughputFPC / float64(len(cpus))
		}
		return DBScenarioRow{
			Topology:    s.name,
			Streams:     len(cpus),
			Transfers:   len(specs),
			Cycles:      res.Cycles,
			PerStreamBW: perStream,
			OrderKept:   res.InOrderViolations == 0,
		}, nil
	})
}

// DatabaseScenarioString renders the database workload comparison.
func DatabaseScenarioString(rows []DBScenarioRow) string {
	var sb strings.Builder
	sb.WriteString("§3.0 — database query pattern, each topology under its own worst-case\n")
	sb.WriteString("        stream placement (the contention witness, streamed steadily)\n")
	sb.WriteString("  topology          | streams | transfers | cycles | per-stream BW f/c | in order\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-17s | %7d | %9d | %6d | %17.4f | %v\n",
			r.Topology, r.Streams, r.Transfers, r.Cycles, r.PerStreamBW, r.OrderKept)
	}
	sb.WriteString("  => per-stream bandwidth under adversarial load tracks 1/contention\n")
	return sb.String()
}
