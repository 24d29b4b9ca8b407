package fabricver

import (
	"fmt"

	"repro/internal/topology"
)

// routerGraph is the router-to-router adjacency of a network in compressed
// rows. Routers are indexed in ascending device order; the neighbours of
// router i are adj[off[i]:off[i+1]]. End nodes hang off single ports and
// never relay traffic, so they do not enter the graph.
type routerGraph struct {
	index []int32 // per device: router index, -1 for end nodes
	off   []int32
	adj   []int32
}

func newRouterGraph(net *topology.Network) *routerGraph {
	g := &routerGraph{index: make([]int32, net.NumDevices()), off: make([]int32, 1, net.NumRouters()+1)}
	for _, d := range net.Devices() {
		g.index[d.ID] = -1
		if d.Kind == topology.Router {
			g.index[d.ID] = int32(len(g.off) - 1)
			g.off = append(g.off, 0)
		}
	}
	for _, d := range net.Devices() {
		if d.Kind != topology.Router {
			continue
		}
		for p := 0; p < d.Ports; p++ {
			if l, ok := net.LinkAt(d.ID, p); ok {
				if v := g.index[net.OtherEnd(l, d.ID).Device]; v >= 0 {
					g.adj = append(g.adj, v)
				}
			}
		}
		g.off[g.index[d.ID]+1] = int32(len(g.adj))
	}
	return g
}

// routers reports the number of routers in the graph.
func (g *routerGraph) routers() int { return len(g.off) - 1 }

// eccentricity returns the largest breadth-first distance, in inter-router
// links, from router src to any router it reaches. dist and queue are
// scratch of length routers().
func (g *routerGraph) eccentricity(src int32, dist, queue []int32) int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	far := int32(0)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[g.off[u]:g.off[u+1]] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				far = dist[v]
				queue = append(queue, v)
			}
		}
	}
	return int(far)
}

// diameter returns the longest shortest path between any two routers, by
// breadth-first search from every router.
func (g *routerGraph) diameter() int {
	dist := make([]int32, g.routers())
	queue := make([]int32, 0, g.routers())
	d := 0
	for src := range g.routers() {
		d = max(d, g.eccentricity(int32(src), dist, queue))
	}
	return d
}

// minimalAlgorithms names the routing algorithms that always take a
// shortest path through the router graph, so a route visits at most
// diameter+1 routers. Everything else in the repository is an up-then-down
// discipline (fractahedral, fat-tree, up*/down*, seam-avoiding rings):
// the ascent and the descent are each at most the diameter, so a route
// visits at most 2*diameter+1 routers. These are the analytical worst
// cases the paper's §2 derivations give; the verifier enforces them on
// every table walk and every end-to-end route.
var minimalAlgorithms = map[string]bool{
	"fullmesh":        true,
	"mesh-xy":         true,
	"mesh-yx":         true,
	"hypercube-ecube": true,
}

// hopBound returns the analytical worst-case router-hop count for the
// algorithm on a topology with the given router diameter, plus the rule
// that produced it (recorded in the certificate so a reader can re-derive
// the number).
func hopBound(algorithm string, diameter int) (bound int, rule string) {
	if minimalAlgorithms[algorithm] {
		return diameter + 1, "minimal routing: diameter+1 routers"
	}
	return 2*diameter + 1, "up-then-down routing: 2*diameter+1 routers"
}

// degradedHopViolation checks the worst route of a degraded fabric,
// routed up*/down* from root, against the analytical bound over the
// degraded router graph, and returns the violation text ("" when within
// it). hopBound is monotone in the diameter D and the root's eccentricity
// L is a lower bound on D, so a route within hopBound(L) passes without
// computing D; only beyond it is D computed exactly.
func degradedHopViolation(desc, algorithm string, g *routerGraph, root int32, maxHops int) string {
	n := g.routers()
	if bound, _ := hopBound(algorithm, g.eccentricity(root, make([]int32, n), make([]int32, 0, n))); maxHops <= bound {
		return ""
	}
	if bound, _ := hopBound(algorithm, g.diameter()); maxHops > bound {
		return fmt.Sprintf("%s: degraded route takes %d router hops, exceeding the up*/down* bound %d",
			desc, maxHops, bound)
	}
	return ""
}
