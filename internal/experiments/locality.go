package experiments

import (
	"fmt"
	"strings"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// LocalityRow is one (locality fraction, topology) simulation point.
type LocalityRow struct {
	LocalFrac  float64
	Topology   string
	AvgLatency float64
	Throughput float64
}

// LocalitySweep tests §3.3's argument for the 4-2 partition: "In most
// networks, we anticipate some degree of locality in the data access
// patterns... For this reason, the 4-2 fat tree may be preferred for most
// systems even though there is some bandwidth reduction at each level."
// The sweep runs a fixed offered load whose local fraction varies from 0
// (uniform) to 0.9, with the local block being the 8-node group the
// topology serves with full bandwidth (a pod's pair of leaves on the fat
// tree, a tetrahedron on the fractahedron). As locality rises, the thinned
// upper levels matter less and every topology converges; under low
// locality the bandwidth-rich fractahedron leads.
func (l *Lab) LocalitySweep(fracs []float64, packets, flits int, seed int64) ([]LocalityRow, error) {
	systems, err := l.systems(
		namedSpec{"4-2 fat tree", "fattree:d=4,u=2,nodes=64"},
		namedSpec{"3-3 fat tree", "fattree:d=3,u=3,nodes=64"},
		namedSpec{"fat fractahedron", "fat-fract:levels=2"},
	)
	if err != nil {
		return nil, err
	}

	// Per-fraction workload seeds: every topology sees the same packet
	// stream at a given locality fraction, distinct fractions draw
	// independent streams.
	return runner.Map(runner.Config{Workers: l.Workers}, len(fracs)*len(systems), func(i int) (LocalityRow, error) {
		frac, s := fracs[i/len(systems)], systems[i%len(systems)]
		rng := runner.RNG(seed, i/len(systems))
		specs := workload.Locality(rng, 64, packets, flits, packets/3, 8, frac)
		res, err := l.simulate(s.sys, specs, sim.Config{FIFODepth: 4})
		if err != nil {
			return LocalityRow{}, err
		}
		if res.Deadlocked || res.Delivered != packets {
			return LocalityRow{}, fmt.Errorf("experiments: locality %.2f on %s failed: %+v", frac, s.name, res)
		}
		return LocalityRow{
			LocalFrac:  frac,
			Topology:   s.name,
			AvgLatency: res.AvgLatency,
			Throughput: res.ThroughputFPC,
		}, nil
	})
}

// LocalitySweepString renders the locality sweep.
func LocalitySweepString(rows []LocalityRow) string {
	var sb strings.Builder
	sb.WriteString("§3.3 — locality sweep (64 nodes, 8-node local blocks, fixed offered load)\n")
	sb.WriteString("  local fraction | topology          | avg latency | throughput f/c\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %14.2f | %-17s | %11.1f | %.2f\n",
			r.LocalFrac, r.Topology, r.AvgLatency, r.Throughput)
	}
	sb.WriteString("  => rising locality closes the gap to the thinned fat trees — the\n")
	sb.WriteString("     paper's case for accepting the 4-2 bandwidth reduction\n")
	return sb.String()
}
