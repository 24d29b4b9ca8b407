package graph

// FindCycle searches the directed graph for a cycle. It returns the cycle as
// a vertex sequence v0, v1, ..., vk with an edge vi -> vi+1 for each i and an
// edge vk -> v0, and ok = true. If the graph is acyclic it returns nil, false.
//
// The search is an iterative three-color depth-first traversal so that very
// large dependency graphs (hundreds of thousands of channels) do not overflow
// the goroutine stack.
func (g *Digraph) FindCycle() (cycle []int, ok bool) {
	const (
		white = 0 // unvisited
		gray  = 1 // on the current DFS path
		black = 2 // fully explored
	)
	color := make([]int8, g.N())
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
	}

	type frame struct {
		u    int
		next int // index into adj[u] of the next edge to explore
	}

	for s := 0; s < g.N(); s++ {
		if color[s] != white {
			continue
		}
		stack := []frame{{u: s}}
		color[s] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.adj[f.u]) {
				v := g.adj[f.u][f.next]
				f.next++
				switch color[v] {
				case white:
					color[v] = gray
					parent[v] = f.u
					stack = append(stack, frame{u: v})
				case gray:
					// Back edge f.u -> v closes a cycle v ... f.u.
					cycle = []int{f.u}
					for w := f.u; w != v; w = parent[w] {
						cycle = append(cycle, parent[w])
					}
					reverse(cycle)
					return cycle, true
				}
				continue
			}
			color[f.u] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil, false
}

// TopoSort returns a topological ordering of the directed graph, or ok =
// false if the graph contains a cycle.
func (g *Digraph) TopoSort() (order []int, ok bool) {
	indeg := make([]int, g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.adj[u] {
			indeg[v]++
		}
	}
	queue := make([]int, 0, g.N())
	for u, d := range indeg {
		if d == 0 {
			queue = append(queue, u)
		}
	}
	order = make([]int, 0, g.N())
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != g.N() {
		return nil, false
	}
	return order, true
}

// SCC computes the strongly connected components of the directed graph with
// Tarjan's algorithm (iterative form). It returns a component index per
// vertex and the number of components. Component indices are assigned in
// reverse topological order of the condensation.
func (g *Digraph) SCC() (comp []int, count int) {
	n := g.N()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var tarjanStack []int
	next := 0

	type frame struct {
		u    int
		next int
	}
	for s := 0; s < n; s++ {
		if index[s] != -1 {
			continue
		}
		stack := []frame{{u: s}}
		index[s], low[s] = next, next
		next++
		tarjanStack = append(tarjanStack, s)
		onStack[s] = true
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.adj[f.u]) {
				v := g.adj[f.u][f.next]
				f.next++
				if index[v] == -1 {
					index[v], low[v] = next, next
					next++
					tarjanStack = append(tarjanStack, v)
					onStack[v] = true
					stack = append(stack, frame{u: v})
				} else if onStack[v] && index[v] < low[f.u] {
					low[f.u] = index[v]
				}
				continue
			}
			u := f.u
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := stack[len(stack)-1].u
				if low[u] < low[p] {
					low[p] = low[u]
				}
			}
			if low[u] == index[u] {
				for {
					w := tarjanStack[len(tarjanStack)-1]
					tarjanStack = tarjanStack[:len(tarjanStack)-1]
					onStack[w] = false
					comp[w] = count
					if w == u {
						break
					}
				}
				count++
			}
		}
	}
	return comp, count
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
