package graph

// FlowNetwork is a capacitated directed graph for maximum-flow computation
// (Dinic's algorithm). Adding an edge also adds the reverse residual edge
// with zero capacity.
//
// A network is built once and may be solved many times: MaxFlow consumes
// the residual capacities, and Reset restores every edge to its nominal
// capacity (the one it was added with, or the last SetCap). Inside the
// package, a solve can also start from the flow the residual capacities
// already hold: cancel removes the flow through an edge that is about to
// change, and augment continues from the rest, up to a limit. The BFS
// level, edge-iterator, queue and visit-mark buffers are allocated once and
// reused by every call.
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
	seen  []int // cancel's visit marks: seen[v] == stamp
	stamp int
}

// NewFlowNetwork returns an empty flow network with n vertices.
func NewFlowNetwork(n int) *FlowNetwork {
	head := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	return &FlowNetwork{n: n, head: head, level: make([]int, n), iter: make([]int, n), seen: make([]int, n)}
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

// bfs levels the residual network from s and reports whether t is
// reachable. It stops once it levels t: every vertex closer to s is leveled
// by then, and the vertices as far as t or farther lie on no shortest
// augmenting path.
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
				if v == t {
					return true
				}
				f.queue = append(f.queue, v)
			}
		}
	}
	return false
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
	return f.augment(s, t, int64(^uint64(0)>>1))
}

// augment pushes flow from s to t over the current residual capacities
// until it has pushed limit units or no augmenting path is left, and
// returns the amount pushed. A result below limit therefore means the flow
// it leaves is maximum.
func (f *FlowNetwork) augment(s, t int, limit int64) int64 {
	var flow int64
	for flow < limit && f.bfs(s, t) {
		copy(f.iter, f.head)
		for flow < limit {
			pushed := f.dfs(s, t, limit-flow)
			if pushed == 0 {
				break
			}
			flow += pushed
		}
	}
	return flow
}

// cancel removes amt units of flow along flow-carrying paths from u to goal,
// following the edges forward when fwd and backward otherwise: in residual
// terms it pushes amt units from goal to u, or from u to goal, over reverse
// edges only. It reports false when the paths carry less than amt.
func (f *FlowNetwork) cancel(u, goal int, fwd bool, amt int64) bool {
	for amt > 0 {
		f.stamp++
		got := f.unflow(u, goal, fwd, amt)
		if got == 0 {
			return false
		}
		amt -= got
	}
	return true
}

// unflow is cancel's depth-first search for one path, over vertices not
// yet marked with the current stamp. The flow on an edge is its reverse's
// residual capacity, since every reverse is added with capacity 0.
func (f *FlowNetwork) unflow(u, goal int, fwd bool, amt int64) int64 {
	if u == goal {
		return amt
	}
	f.seen[u] = f.stamp
	for e := f.head[u]; e != -1; e = f.next[e] {
		o := e // the edge whose flow this step removes
		if !fwd {
			o = e ^ 1
		}
		if o&1 != 0 || f.cap[o^1] == 0 || f.seen[f.to[e]] == f.stamp {
			continue
		}
		if got := f.unflow(f.to[e], goal, fwd, min(amt, f.cap[o^1])); got > 0 {
			f.cap[o] += got
			f.cap[o^1] -= got
			return got
		}
	}
	return 0
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
