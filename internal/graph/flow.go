package graph

// FlowNetwork is a capacitated directed graph for maximum-flow computation
// (Dinic's algorithm). Adding an edge also adds the reverse residual edge
// with zero capacity.
//
// A network is built once and may be solved many times: MaxFlow consumes
// the residual capacities, and Reset restores every edge to its nominal
// capacity (the one it was added with, or the last SetCap). The BFS level,
// edge-iterator and queue buffers are allocated once and reused by every
// MaxFlow and MinCutSide call.
type FlowNetwork struct {
	n     int
	head  []int // first edge index per vertex, -1 terminated chain via next
	next  []int
	to    []int
	cap   []int64 // residual capacity
	nom   []int64 // nominal capacity, restored by Reset
	level []int
	iter  []int
	queue []int
}

// NewFlowNetwork returns an empty flow network with n vertices.
func NewFlowNetwork(n int) *FlowNetwork {
	head := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	return &FlowNetwork{n: n, head: head, level: make([]int, n), iter: make([]int, n)}
}

// N reports the number of vertices.
func (f *FlowNetwork) N() int { return f.n }

// AddEdge inserts a directed edge u -> v with the given capacity and its
// zero-capacity residual reverse. It returns the edge index, which stays
// valid for ResidualCap.
func (f *FlowNetwork) AddEdge(u, v int, capacity int64) int {
	id := len(f.to)
	f.to = append(f.to, v, u)
	f.cap = append(f.cap, capacity, 0)
	f.nom = append(f.nom, capacity, 0)
	f.next = append(f.next, f.head[u], f.head[v])
	f.head[u] = id
	f.head[v] = id + 1
	return id
}

// SetCap sets the nominal capacity of edge id; it takes effect at the next
// Reset.
func (f *FlowNetwork) SetCap(id int, capacity int64) { f.nom[id] = capacity }

// Reset restores every edge, and its residual reverse, to its nominal
// capacity, undoing a MaxFlow.
func (f *FlowNetwork) Reset() { copy(f.cap, f.nom) }

// ResidualCap reports the residual capacity of edge id after MaxFlow.
func (f *FlowNetwork) ResidualCap(id int) int64 { return f.cap[id] }

func (f *FlowNetwork) bfs(s, t int) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	f.level[s] = 0
	f.queue = append(f.queue[:0], s)
	for i := 0; i < len(f.queue); i++ {
		u := f.queue[i]
		for e := f.head[u]; e != -1; e = f.next[e] {
			v := f.to[e]
			if f.cap[e] > 0 && f.level[v] == -1 {
				f.level[v] = f.level[u] + 1
				f.queue = append(f.queue, v)
			}
		}
	}
	return f.level[t] >= 0
}

func (f *FlowNetwork) dfs(u, t int, pushed int64) int64 {
	if u == t {
		return pushed
	}
	for ; f.iter[u] != -1; f.iter[u] = f.next[f.iter[u]] {
		e := f.iter[u]
		v := f.to[e]
		if f.cap[e] > 0 && f.level[v] == f.level[u]+1 {
			amt := pushed
			if f.cap[e] < amt {
				amt = f.cap[e]
			}
			if got := f.dfs(v, t, amt); got > 0 {
				f.cap[e] -= got
				f.cap[e^1] += got
				return got
			}
		}
	}
	return 0
}

// MaxFlow computes the maximum s-t flow over the current residual
// capacities, which it consumes; call Reset before solving the network
// again.
func (f *FlowNetwork) MaxFlow(s, t int) int64 {
	const inf = int64(^uint64(0) >> 1)
	var flow int64
	for f.bfs(s, t) {
		copy(f.iter, f.head)
		for {
			pushed := f.dfs(s, t, inf)
			if pushed == 0 {
				break
			}
			flow += pushed
		}
	}
	return flow
}

// MinCutSide returns, after MaxFlow, the set of vertices reachable from s in
// the residual network: the s-side of a minimum cut.
func (f *FlowNetwork) MinCutSide(s int) []bool {
	side := make([]bool, f.n)
	side[s] = true
	f.queue = append(f.queue[:0], s)
	for i := 0; i < len(f.queue); i++ {
		u := f.queue[i]
		for e := f.head[u]; e != -1; e = f.next[e] {
			v := f.to[e]
			if f.cap[e] > 0 && !side[v] {
				side[v] = true
				f.queue = append(f.queue, v)
			}
		}
	}
	return side
}
