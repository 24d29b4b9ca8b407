package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// FrontierRow is one fractahedral design point on the cost/performance
// menu.
type FrontierRow struct {
	Config         string
	Nodes          int
	Routers        int
	RoutersPerNode float64
	MaxHops        int
	Bisection      int
	BisectionPerNd float64
	Contention     int
}

// CostPerformanceFrontier enumerates the fractahedron family's design
// points — thin vs fat, depth, and ensemble radix — and reports the
// cost/performance menu §4 claims the topology "allows for tradeoffs
// between cost and performance" across. Contention is left out (-) above
// 128 nodes, where the all-pairs matching is the expensive part.
func (l *Lab) CostPerformanceFrontier() ([]FrontierRow, error) {
	configs := []namedSpec{
		{"thin N=1 (tetrahedron)", "thin-fract:levels=1"},
		{"thin N=2", "thin-fract:levels=2"},
		{"fat N=2", "fat-fract:levels=2"},
		{"thin N=3", "thin-fract:levels=3"},
		{"fat N=3", "fat-fract:levels=3"},
		{"fat N=2, group 3", "fat-fract:levels=2,group=3"},
		{"fat N=2, group 5", "fat-fract:levels=2,group=5"},
	}
	systems, err := l.systems(configs...)
	if err != nil {
		return nil, err
	}
	var rows []FrontierRow
	for _, s := range systems {
		nodes, routers := s.sys.Net.NumNodes(), s.sys.Net.NumRouters()
		row := FrontierRow{
			Config:         s.name,
			Nodes:          nodes,
			Routers:        routers,
			RoutersPerNode: float64(routers) / float64(nodes),
			Contention:     -1,
		}
		hops, err := metrics.Hops(s.sys.Tables)
		if err != nil {
			return nil, err
		}
		bis, err := s.sys.Bisection()
		if err != nil {
			return nil, err
		}
		row.MaxHops, row.Bisection = hops.Max, bis.Cut
		if nodes <= 128 {
			res, err := s.sys.Contention()
			if err != nil {
				return nil, err
			}
			row.Contention = res.Max
		}
		row.BisectionPerNd = float64(row.Bisection) / float64(row.Nodes)
		rows = append(rows, row)
	}
	return rows, nil
}

// FrontierString renders the cost/performance menu.
func FrontierString(rows []FrontierRow) string {
	var sb strings.Builder
	sb.WriteString("§4 — fractahedral cost/performance menu\n")
	sb.WriteString("  config                 | nodes | routers | rtr/node | max hops | bisection (per node) | contention\n")
	for _, r := range rows {
		cont := "-"
		if r.Contention > 0 {
			cont = fmt.Sprintf("%d:1", r.Contention)
		}
		fmt.Fprintf(&sb, "  %-22s | %5d | %7d | %8.3f | %8d | %9d (%.3f) | %s\n",
			r.Config, r.Nodes, r.Routers, r.RoutersPerNode, r.MaxHops, r.Bisection, r.BisectionPerNd, cont)
	}
	sb.WriteString("  => depth buys scale, layers buy bandwidth, radix buys ports —\n")
	sb.WriteString("     each dimension trades routers for performance independently\n")
	return sb.String()
}
