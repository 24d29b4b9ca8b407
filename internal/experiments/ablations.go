package experiments

import (
	"fmt"
	"strings"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// FIFORow is one buffer-depth point of the FIFO ablation.
type FIFORow struct {
	Depth      int
	Cycles     int
	AvgLatency float64
	Throughput float64
}

// AblationFIFODepth sweeps the router input-FIFO depth on the 64-node fat
// fractahedron under a fixed random load — the buffering-cost argument of
// §2 (Dally–Seitz virtual channels "require multiple packet buffers at each
// router stage... buffering space may dominate the area of a typical
// router") quantified: how much does depth actually buy?
func (l *Lab) AblationFIFODepth(depths []int, packets, flits int, seed int64) ([]FIFORow, error) {
	sys, err := l.System("fat-fract:levels=2")
	if err != nil {
		return nil, err
	}
	// Every depth point replays the SAME workload — buffer depth is the
	// controlled variable — so all points share workload index 0.
	return runner.Map(runner.Config{Workers: l.Workers}, len(depths), func(i int) (FIFORow, error) {
		d := depths[i]
		rng := runner.RNG(seed, 0)
		specs := workload.UniformRandom(rng, 64, packets, flits, packets/2)
		res, err := l.simulate(sys, specs, sim.Config{FIFODepth: d})
		if err != nil {
			return FIFORow{}, err
		}
		if res.Deadlocked || res.Delivered != packets {
			return FIFORow{}, fmt.Errorf("experiments: FIFO sweep depth %d failed: %+v", d, res)
		}
		return FIFORow{Depth: d, Cycles: res.Cycles, AvgLatency: res.AvgLatency, Throughput: res.ThroughputFPC}, nil
	})
}

// AblationFIFOString renders the FIFO sweep.
func AblationFIFOString(rows []FIFORow) string {
	var sb strings.Builder
	sb.WriteString("Ablation — input FIFO depth on the 64-node fat fractahedron (fixed load)\n")
	sb.WriteString("  depth | cycles | avg latency | throughput f/c\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %5d | %6d | %11.1f | %.2f\n", r.Depth, r.Cycles, r.AvgLatency, r.Throughput)
	}
	return sb.String()
}

// RadixRow is one router-radix point of the generalization ablation
// (§4: "the concepts easily generalize to other fully connected groups of
// N-port routers").
type RadixRow struct {
	Group        int
	Down         int
	RouterPorts  int
	Nodes        int // at Levels=2, fat
	Routers      int
	MaxHops      int
	Contention   int
	DeadlockFree bool
}

// AblationRadix builds fat fractahedrons from ensembles of different sizes
// and compares their figures of merit at two levels, one group size per
// worker (the contention matching dominates each point).
func (l *Lab) AblationRadix(groups []int) ([]RadixRow, error) {
	systems := make([]*core.System, len(groups))
	for i, g := range groups {
		// The paper's group of 4 is the default: its spec leaves the key
		// out, so the Lab hands back the system the other experiments use.
		spec := "fat-fract:levels=2"
		if g != 4 {
			spec += fmt.Sprintf(",group=%d", g)
		}
		var err error
		if systems[i], err = l.System(spec); err != nil {
			return nil, err
		}
	}
	return runner.Map(runner.Config{Workers: l.Workers}, len(groups), func(i int) (RadixRow, error) {
		sys := systems[i]
		hops, err := metrics.Hops(sys.Tables)
		if err != nil {
			return RadixRow{}, err
		}
		cont, err := sys.Contention()
		if err != nil {
			return RadixRow{}, err
		}
		rep, err := deadlock.Analyze(sys.Tables)
		if err != nil {
			return RadixRow{}, err
		}
		cfg := sys.Concrete.(*topology.Fractahedron).Cfg
		return RadixRow{
			Group:        cfg.Group,
			Down:         cfg.Down,
			RouterPorts:  cfg.RouterPorts(),
			Nodes:        sys.Net.NumNodes(),
			Routers:      sys.Net.NumRouters(),
			MaxHops:      hops.Max,
			Contention:   cont.Max,
			DeadlockFree: rep.Free,
		}, nil
	})
}

// AblationRadixString renders the radix generalization table.
func AblationRadixString(rows []RadixRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation — generalized fully-connected groups (fat, 2 levels, 2 down ports)\n")
	sb.WriteString("  group | router ports | nodes | routers | max hops | contention | deadlock-free\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %5d | %12d | %5d | %7d | %8d | %8d:1 | %v\n",
			r.Group, r.RouterPorts, r.Nodes, r.Routers, r.MaxHops, r.Contention, r.DeadlockFree)
	}
	return sb.String()
}

// CableRow is one link-latency point of the cable-length ablation.
type CableRow struct {
	LinkLatency int
	AvgLatency  float64
	P99Latency  int
	Throughput  float64
}

// AblationCableLength sweeps the per-link propagation delay (§1's
// "up to 30 meters" cables) on the 64-node fat fractahedron under a fixed
// moderate load: latency grows linearly with cable length while delivered
// throughput holds, because the wormhole pipeline keeps the wires full.
func (l *Lab) AblationCableLength(latencies []int, packets, flits int, seed int64) ([]CableRow, error) {
	sys, err := l.System("fat-fract:levels=2")
	if err != nil {
		return nil, err
	}
	// Like the FIFO sweep, the workload is held fixed (index 0) while the
	// link latency varies.
	return runner.Map(runner.Config{Workers: l.Workers}, len(latencies), func(i int) (CableRow, error) {
		lat := latencies[i]
		rng := runner.RNG(seed, 0)
		specs := workload.UniformRandom(rng, 64, packets, flits, packets)
		res, err := l.simulate(sys, specs, sim.Config{FIFODepth: 8, LinkLatency: lat})
		if err != nil {
			return CableRow{}, err
		}
		if res.Deadlocked || res.Delivered != packets {
			return CableRow{}, fmt.Errorf("experiments: cable sweep latency %d failed: %+v", lat, res)
		}
		return CableRow{
			LinkLatency: lat,
			AvgLatency:  res.AvgLatency,
			P99Latency:  res.P99Latency,
			Throughput:  res.ThroughputFPC,
		}, nil
	})
}

// AblationCableString renders the cable-length sweep.
func AblationCableString(rows []CableRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation - link propagation delay (cable length) on the 64-node fat fractahedron\n")
	sb.WriteString("  cycles/link | avg latency | p99 latency | throughput f/c\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %11d | %11.1f | %11d | %.2f\n",
			r.LinkLatency, r.AvgLatency, r.P99Latency, r.Throughput)
	}
	return sb.String()
}

// PartitionRow compares static destination partitions for fat-tree upward
// routing — the §3.3 argument that NO static partitioning beats 12:1.
type PartitionRow struct {
	Name       string
	Contention int
}

// AblationFatTreePartitions measures worst-case contention for several
// distinct static up-path partitions of the 64-node 4-2 fat tree, one
// partition's matching per worker.
func (l *Lab) AblationFatTreePartitions() ([]PartitionRow, error) {
	ft := topology.NewFatTree(4, 2, 64)
	tables := []struct {
		name string
		tb   *routing.Tables
	}{
		{"dst digit (baseline)", routing.FatTreeShifted(ft, 0)},
		{"dst digit rotated 1", routing.FatTreeShifted(ft, 1)},
		{"dst digit rotated 2", routing.FatTreeShifted(ft, 2)},
		{"striped leaf blocks", routing.FatTreeCompact(ft)},
	}
	return runner.Map(runner.Config{Workers: l.Workers}, len(tables), func(i int) (PartitionRow, error) {
		res, err := contention.MaxLinkContention(tables[i].tb)
		if err != nil {
			return PartitionRow{}, err
		}
		return PartitionRow{Name: tables[i].name, Contention: res.Max}, nil
	})
}

// AblationPartitionsString renders the partition comparison.
func AblationPartitionsString(rows []PartitionRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation — static up-path partitions on the 64-node 4-2 fat tree\n")
	sb.WriteString("  partition             | max contention\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-21s | %d:1\n", r.Name, r.Contention)
	}
	sb.WriteString("  => every static destination partition hits the 12:1 pigeonhole bound (§3.3)\n")
	return sb.String()
}
