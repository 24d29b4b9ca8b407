// Package metrics computes the summary figures the paper compares
// topologies on: router-hop statistics over all node pairs ("maximum
// delays" and "average hops"), bisection bandwidth in links, and hardware
// cost (router and link counts).
package metrics

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// HopStats summarizes router-hop counts over all ordered node pairs.
type HopStats struct {
	Min, Max  int
	Mean      float64
	Pairs     int
	Histogram map[int]int // hops -> pair count
}

// Hops routes every ordered pair through the tables and aggregates the
// router-hop distribution. When some pair does not route it returns
// Tables.Verify's error.
func Hops(t *routing.Tables) (HopStats, error) {
	sw := t.Sweep()
	if err := sw.Err(); err != nil {
		return HopStats{}, err
	}
	st := HopStats{Min: -1, Histogram: make(map[int]int)}
	total := 0
	n := t.Net.NumNodes()
	for dst := 0; dst < n; dst++ {
		for src := 0; src < n; src++ {
			if src == dst {
				continue
			}
			h := sw.Hops(src, dst)
			st.Histogram[h]++
			st.Pairs++
			total += h
			if st.Min < 0 || h < st.Min {
				st.Min = h
			}
			st.Max = max(st.Max, h)
		}
	}
	if st.Pairs > 0 {
		st.Mean = float64(total) / float64(st.Pairs)
	}
	return st, nil
}

// String renders the stats compactly.
func (s HopStats) String() string {
	return fmt.Sprintf("hops max=%d avg=%.2f over %d pairs", s.Max, s.Mean, s.Pairs)
}

// Bisection computes the network's bisection bandwidth in links: the
// minimum number of links crossing any partition of the end nodes into two
// equal halves, with routers placed optimally. Structural cuts registered
// by the builder seed the search; results are exact for networks with at
// most 16 end nodes and a certified-achievable upper bound otherwise.
func Bisection(net *topology.Network, restarts int, seed int64) graph.BisectionResult {
	w := make([]int, net.NumDevices())
	for _, nd := range net.Nodes() {
		w[nd] = 1
	}
	return graph.MinBisection(graph.BisectionProblem{
		G:      net.Ugraph(),
		Weight: w,
		Seeds:  net.SeedCuts(),
	}, restarts, seed)
}

// Cost tallies the hardware a topology spends.
type Cost struct {
	Routers        int
	Links          int     // full-duplex cables, including node attachments
	InterRouter    int     // cables between routers only
	RoutersPerNode float64 // the cost figure Table 2 compares (28 vs 48)
}

// CostOf computes the cost summary of a network.
func CostOf(net *topology.Network) Cost {
	c := Cost{Routers: net.NumRouters(), Links: net.NumLinks()}
	for _, l := range net.Links() {
		if net.Device(l.A.Device).Kind == topology.Router &&
			net.Device(l.B.Device).Kind == topology.Router {
			c.InterRouter++
		}
	}
	if net.NumNodes() > 0 {
		c.RoutersPerNode = float64(c.Routers) / float64(net.NumNodes())
	}
	return c
}

// StretchStats reports routing stretch: the ratio of routed router-hops to
// the shortest possible router-hops in the device graph. Deterministic
// restricted routings may be non-minimal (generic up*/down* detours through
// the root region); the paper's fractahedral algorithm is minimal, which
// Stretch certifies.
type StretchStats struct {
	Max  float64
	Mean float64
	// NonMinimal counts ordered pairs routed longer than the shortest path.
	NonMinimal int
	Pairs      int
}

// Stretch compares every pair's routed hop count to the BFS shortest path.
func Stretch(t *routing.Tables) (StretchStats, error) {
	g := t.Net.Ugraph()
	// BFS from each node's attach point over the device graph; device
	// distance between nodes = routers on the shortest path + 1... node to
	// node BFS distance counts edges: routers traversed = dist - 1.
	var st StretchStats
	total := 0.0
	n := t.Net.NumNodes()
	for s := 0; s < n; s++ {
		dist := g.BFS(int(t.Net.NodeByIndex(s)))
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			r, err := t.Route(s, d)
			if err != nil {
				return StretchStats{}, err
			}
			shortest := dist[int(t.Net.NodeByIndex(d))] - 1
			if shortest <= 0 {
				return StretchStats{}, fmt.Errorf("metrics: degenerate shortest path %d->%d", s, d)
			}
			ratio := float64(r.RouterHops()) / float64(shortest)
			total += ratio
			st.Pairs++
			if ratio > st.Max {
				st.Max = ratio
			}
			if r.RouterHops() > shortest {
				st.NonMinimal++
			}
		}
	}
	if st.Pairs > 0 {
		st.Mean = total / float64(st.Pairs)
	}
	return st, nil
}
