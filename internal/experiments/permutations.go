package experiments

import (
	"fmt"
	"strings"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PermRow is one (pattern, topology) simulation point.
type PermRow struct {
	Pattern    string
	Topology   string
	Transfers  int
	Cycles     int
	AvgLatency float64
	Throughput float64
}

// PermutationStudy runs the classic permutation patterns — bit complement,
// transpose, tornado, bit reversal, nearest neighbor — as simultaneous
// batch transfers over the 64-node contenders. Permutations are the
// structured analogue of §3.0's load-imbalance scenarios: each node sends
// one transfer, and the pattern decides how badly the deterministic routes
// collide.
func (l *Lab) PermutationStudy(flits int) ([]PermRow, error) {
	systems, err := l.systems(
		namedSpec{"4-2 fat tree", "fattree:d=4,u=2,nodes=64"},
		namedSpec{"fat fractahedron", "fat-fract:levels=2"},
		namedSpec{"thin fractahedron", "thin-fract:levels=2"},
		namedSpec{"CCC-4 (up*/down*)", "ccc:dim=4"}, // 64 nodes on 4-port routers
	)
	if err != nil {
		return nil, err
	}
	patterns := []struct {
		name string
		perm []int
	}{
		{"bit complement", workload.BitComplement(64)},
		{"transpose 8x8", workload.Transpose(8)},
		{"tornado", workload.Tornado(64)},
		{"bit reversal", workload.BitReversal(64)},
		{"nearest neighbor", workload.NearestNeighbor(64)},
	}

	// Permutations are fully deterministic (no RNG at all), so the grid
	// fans over the pool with nothing to seed.
	return runner.Map(runner.Config{Workers: l.Workers}, len(patterns)*len(systems), func(i int) (PermRow, error) {
		p, s := patterns[i/len(systems)], systems[i%len(systems)]
		specs := workload.Permutation(p.perm, flits)
		res, err := l.simulate(s.sys, specs, sim.Config{FIFODepth: 4})
		if err != nil {
			return PermRow{}, err
		}
		if res.Deadlocked || res.Delivered != len(specs) {
			return PermRow{}, fmt.Errorf("experiments: %s on %s failed: %+v", p.name, s.name, res)
		}
		return PermRow{
			Pattern:    p.name,
			Topology:   s.name,
			Transfers:  len(specs),
			Cycles:     res.Cycles,
			AvgLatency: res.AvgLatency,
			Throughput: res.ThroughputFPC,
		}, nil
	})
}

// PermutationStudyString renders the permutation grid.
func PermutationStudyString(rows []PermRow) string {
	var sb strings.Builder
	sb.WriteString("Permutation patterns, 64 nodes, one transfer per source (batch completion)\n")
	sb.WriteString("  pattern          | topology          | cycles | avg latency | throughput f/c\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-16s | %-17s | %6d | %11.1f | %.2f\n",
			r.Pattern, r.Topology, r.Cycles, r.AvgLatency, r.Throughput)
	}
	return sb.String()
}
