package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDigraphBasics(t *testing.T) {
	g := NewDigraph(3)
	if g.N() != 3 || g.M() != 0 {
		t.Fatalf("empty graph: N=%d M=%d", g.N(), g.M())
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1) // parallel edge
	if g.M() != 3 {
		t.Errorf("M = %d, want 3", g.M())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Errorf("HasEdge wrong: 0->1 %v, 1->0 %v", g.HasEdge(0, 1), g.HasEdge(1, 0))
	}
	if len(g.Out(0)) != 2 {
		t.Errorf("Out(0) = %v, want two entries", g.Out(0))
	}
}

func TestDigraphVertexRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	g := NewDigraph(2)
	g.AddEdge(0, 2)
}

func TestUgraphBasics(t *testing.T) {
	g := NewUgraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if g.M() != 3 {
		t.Errorf("M = %d, want 3", g.M())
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d, want 2", g.Degree(1))
	}
	if !g.Connected() {
		t.Error("path graph should be connected")
	}
}

func TestBFSDistancesLine(t *testing.T) {
	g := NewUgraph(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	d := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	d := g.BFS(1)
	if d[0] != Unreachable || d[2] != Unreachable || d[1] != 0 {
		t.Errorf("dist = %v", d)
	}
}

func TestComponents(t *testing.T) {
	g := NewUgraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	comp, n := g.Components()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[3] != comp[4] {
		t.Errorf("component map wrong: %v", comp)
	}
	if comp[0] == comp[2] || comp[0] == comp[5] || comp[2] == comp[5] {
		t.Errorf("distinct components merged: %v", comp)
	}
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestFindCycleOnDAG(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	if cyc, ok := g.FindCycle(); ok {
		t.Errorf("DAG reported cycle %v", cyc)
	}
}

func TestFindCycleReturnsRealCycle(t *testing.T) {
	g := NewDigraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1) // cycle 1-2-3
	g.AddEdge(3, 4)
	cyc, ok := g.FindCycle()
	if !ok {
		t.Fatal("cycle not found")
	}
	verifyCycle(t, g, cyc)
}

func TestSelfLoopIsCycle(t *testing.T) {
	g := NewDigraph(2)
	g.AddEdge(1, 1)
	cyc, ok := g.FindCycle()
	if !ok {
		t.Fatal("self-loop not detected as cycle")
	}
	verifyCycle(t, g, cyc)
}

func verifyCycle(t *testing.T, g *Digraph, cyc []int) {
	t.Helper()
	if len(cyc) == 0 {
		t.Fatal("empty cycle")
	}
	for i := range cyc {
		u, v := cyc[i], cyc[(i+1)%len(cyc)]
		if !g.HasEdge(u, v) {
			t.Fatalf("cycle %v contains missing edge %d->%d", cyc, u, v)
		}
	}
}

func TestTopoSort(t *testing.T) {
	g := NewDigraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("TopoSort failed on DAG")
	}
	pos := make([]int, 5)
	for i, v := range order {
		pos[v] = i
	}
	for u := 0; u < 5; u++ {
		for _, v := range g.Out(u) {
			if pos[u] >= pos[v] {
				t.Errorf("topo order violates edge %d->%d", u, v)
			}
		}
	}
}

func TestTopoSortRejectsCycle(t *testing.T) {
	g := NewDigraph(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if _, ok := g.TopoSort(); ok {
		t.Error("TopoSort succeeded on cyclic graph")
	}
}

func TestSCC(t *testing.T) {
	// Two SCCs {0,1,2} and {3,4}, plus singleton {5}.
	g := NewDigraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 3)
	g.AddEdge(4, 5)
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("SCC count = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("{0,1,2} split: %v", comp)
	}
	if comp[3] != comp[4] {
		t.Errorf("{3,4} split: %v", comp)
	}
	if comp[0] == comp[3] || comp[3] == comp[5] || comp[0] == comp[5] {
		t.Errorf("SCCs merged: %v", comp)
	}
}

// Property: a random DAG (edges only low->high) is always acyclic, and adding
// any back edge makes it cyclic.
func TestAcyclicPropertyRandomDAG(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := NewDigraph(n)
		for i := 0; i < 3*n; i++ {
			u := rng.Intn(n - 1)
			v := u + 1 + rng.Intn(n-u-1)
			g.AddEdge(u, v)
		}
		if _, cyclic := g.FindCycle(); cyclic {
			return false
		}
		// Close a cycle along an existing path if one exists.
		d := g.BFS(0)
		for v := n - 1; v > 0; v-- {
			if d[v] > 0 {
				g.AddEdge(v, 0)
				_, cyclic := g.FindCycle()
				return cyclic
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: FindCycle on arbitrary random digraphs either returns a
// verifiable cycle or the graph topologically sorts.
func TestFindCycleConsistentWithTopoSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		g := NewDigraph(n)
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		cyc, cyclic := g.FindCycle()
		_, sortable := g.TopoSort()
		if cyclic == sortable {
			return false // must disagree: cyclic xor sortable
		}
		if cyclic {
			for i := range cyc {
				if !g.HasEdge(cyc[i], cyc[(i+1)%len(cyc)]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMatchingPerfect(t *testing.T) {
	// Complete bipartite K3,3 has a perfect matching.
	adj := [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}
	size, matchL := MaxBipartiteMatching(3, 3, adj)
	if size != 3 {
		t.Fatalf("matching size = %d, want 3", size)
	}
	seen := map[int]bool{}
	for u, v := range matchL {
		if v < 0 {
			t.Fatalf("left %d unmatched", u)
		}
		if seen[v] {
			t.Fatalf("right %d matched twice", v)
		}
		seen[v] = true
	}
}

func TestMatchingStar(t *testing.T) {
	// All left vertices share a single right vertex: max matching 1.
	adj := [][]int{{0}, {0}, {0}, {0}}
	size, _ := MaxBipartiteMatching(4, 1, adj)
	if size != 1 {
		t.Errorf("matching size = %d, want 1", size)
	}
}

func TestMatchingEmpty(t *testing.T) {
	size, matchL := MaxBipartiteMatching(3, 3, [][]int{nil, nil, nil})
	if size != 0 {
		t.Errorf("matching size = %d, want 0", size)
	}
	for _, v := range matchL {
		if v != -1 {
			t.Errorf("matchL = %v, want all -1", matchL)
		}
	}
}

// Property: Hopcroft–Karp result equals a brute-force maximum matching on
// small random bipartite graphs.
func TestMatchingAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl, nr := 1+rng.Intn(6), 1+rng.Intn(6)
		adj := make([][]int, nl)
		for u := range adj {
			for v := 0; v < nr; v++ {
				if rng.Intn(2) == 0 {
					adj[u] = append(adj[u], v)
				}
			}
		}
		size, _ := MaxBipartiteMatching(nl, nr, adj)
		return size == bruteMatch(adj, nl, nr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func bruteMatch(adj [][]int, nl, nr int) int {
	best := 0
	usedR := make([]bool, nr)
	var rec func(u, cnt int)
	rec = func(u, cnt int) {
		if cnt > best {
			best = cnt
		}
		if u == nl {
			return
		}
		rec(u+1, cnt) // leave u unmatched
		for _, v := range adj[u] {
			if !usedR[v] {
				usedR[v] = true
				rec(u+1, cnt+1)
				usedR[v] = false
			}
		}
	}
	rec(0, 0)
	return best
}

func TestMaxFlowSimple(t *testing.T) {
	// s=0 -> 1 -> t=2 with bottleneck 3.
	f := NewFlowNetwork(3)
	f.AddEdge(0, 1, 5)
	f.AddEdge(1, 2, 3)
	if got := f.MaxFlow(0, 2); got != 3 {
		t.Errorf("MaxFlow = %d, want 3", got)
	}
}

func TestMaxFlowParallelPaths(t *testing.T) {
	f := NewFlowNetwork(4)
	f.AddEdge(0, 1, 2)
	f.AddEdge(0, 2, 2)
	f.AddEdge(1, 3, 2)
	f.AddEdge(2, 3, 2)
	if got := f.MaxFlow(0, 3); got != 4 {
		t.Errorf("MaxFlow = %d, want 4", got)
	}
}

func TestMaxFlowNeedsResidual(t *testing.T) {
	// Classic diamond with a cross edge: max flow 2 requires pushing back.
	f := NewFlowNetwork(4)
	f.AddEdge(0, 1, 1)
	f.AddEdge(0, 2, 1)
	f.AddEdge(1, 2, 1)
	f.AddEdge(1, 3, 1)
	f.AddEdge(2, 3, 1)
	if got := f.MaxFlow(0, 3); got != 2 {
		t.Errorf("MaxFlow = %d, want 2", got)
	}
}

func TestMinCutSideSeparates(t *testing.T) {
	f := NewFlowNetwork(4)
	f.AddEdge(0, 1, 10)
	f.AddEdge(1, 2, 1) // bottleneck
	f.AddEdge(2, 3, 10)
	flow := f.MaxFlow(0, 3)
	if flow != 1 {
		t.Fatalf("MaxFlow = %d, want 1", flow)
	}
	side := f.MinCutSide(0)
	if !side[0] || !side[1] || side[2] || side[3] {
		t.Errorf("cut side = %v, want {0,1} | {2,3}", side)
	}
}

func TestMinBisectionTwoCliques(t *testing.T) {
	// Two K4 cliques joined by a single bridge: bisection cut = 1.
	g := NewUgraph(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j)
			g.AddEdge(i+4, j+4)
		}
	}
	g.AddEdge(0, 4)
	w := make([]int, 8)
	for i := range w {
		w[i] = 1
	}
	res := MinBisection(BisectionProblem{G: g, Weight: w}, 4, 1)
	if res.Cut != 1 {
		t.Errorf("bisection cut = %d, want 1", res.Cut)
	}
	if !res.Exact {
		t.Error("small instance should be exact")
	}
	if res.Side[0] == res.Side[4] {
		t.Error("cliques not separated")
	}
}

func TestMinBisectionK4(t *testing.T) {
	// K4 with all terminals: any balanced cut crosses 4 edges.
	g := NewUgraph(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j)
		}
	}
	res := MinBisection(BisectionProblem{G: g, Weight: []int{1, 1, 1, 1}}, 2, 1)
	if res.Cut != 4 {
		t.Errorf("K4 bisection = %d, want 4", res.Cut)
	}
}

func TestMinBisectionRoutersFree(t *testing.T) {
	// Terminals at the ends of a path; intermediate zero-weight routers can
	// sit on either side, so the cut is the single middle edge.
	g := NewUgraph(6)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, i+1)
	}
	w := []int{1, 0, 0, 0, 0, 1}
	res := MinBisection(BisectionProblem{G: g, Weight: w}, 2, 1)
	if res.Cut != 1 {
		t.Errorf("cut = %d, want 1", res.Cut)
	}
	if res.Side[0] == res.Side[5] {
		t.Error("terminals not separated")
	}
}

func TestMinBisectionHeuristicWithSeeds(t *testing.T) {
	// Ring of 20 terminals: minimum bisection is 2 (cut two opposite edges).
	// 20 terminals exceeds the exact limit, exercising the search path.
	n := 20
	g := NewUgraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	seed := make([]bool, n)
	for i := n / 2; i < n; i++ {
		seed[i] = true
	}
	res := MinBisection(BisectionProblem{G: g, Weight: w, Seeds: [][]bool{seed}}, 6, 42)
	if res.Cut != 2 {
		t.Errorf("ring bisection = %d, want 2", res.Cut)
	}
	if res.Exact {
		t.Error("20-terminal instance should not claim exactness")
	}
}

// Property: on random graphs with few terminals, the bisection result is
// balanced and its reported cut equals the actual crossing-edge count of the
// returned side assignment.
func TestMinBisectionSelfConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		g := NewUgraph(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		w := make([]int, n)
		k := 2 * (1 + rng.Intn(n/2)) // even terminal count
		if k > n {
			k = n - n%2
		}
		for i := 0; i < k; i++ {
			w[i] = 1
		}
		res := MinBisection(BisectionProblem{G: g, Weight: w}, 2, seed)
		// Balance check.
		left, right := 0, 0
		for v := 0; v < n; v++ {
			if w[v] == 0 {
				continue
			}
			if res.Side[v] {
				right++
			} else {
				left++
			}
		}
		if left != right {
			return false
		}
		// Cut consistency check.
		cut := 0
		for _, e := range g.Edges() {
			if res.Side[e[0]] != res.Side[e[1]] {
				cut++
			}
		}
		return cut == res.Cut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Dinic's max flow equals the brute-force minimum s-t cut on
// small random unit-capacity digraphs (max-flow/min-cut duality).
func TestMaxFlowMinCutDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		type edge struct{ u, v int }
		var edges []edge
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, edge{u, v})
			}
		}
		s, tt := 0, n-1

		fn := NewFlowNetwork(n)
		for _, e := range edges {
			fn.AddEdge(e.u, e.v, 1)
		}
		flow := fn.MaxFlow(s, tt)

		// Brute force: minimum over all vertex bipartitions with s left,
		// t right, of edges crossing left->right.
		best := len(edges) + 1
		for mask := 0; mask < 1<<n; mask++ {
			if mask&(1<<s) == 0 || mask&(1<<tt) != 0 {
				continue // s must be in the mask side, t outside
			}
			cut := 0
			for _, e := range edges {
				if mask&(1<<e.u) != 0 && mask&(1<<e.v) == 0 {
					cut++
				}
			}
			if cut < best {
				best = cut
			}
		}
		return int(flow) == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: SCC assigns u and v the same component exactly when each
// reaches the other.
func TestSCCAgainstReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		g := NewDigraph(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		comp, _ := g.SCC()
		reach := make([][]bool, n)
		for u := 0; u < n; u++ {
			reach[u] = make([]bool, n)
			for v, d := range g.BFS(u) {
				reach[u][v] = d != Unreachable
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := comp[u] == comp[v]
				mutual := reach[u][v] && reach[v][u]
				if same != mutual {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the min-cut side returned after MaxFlow actually separates s
// from t and its crossing capacity equals the flow value.
func TestMinCutSideCertifiesFlow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		type edge struct{ u, v, id int }
		var edges []edge
		fn := NewFlowNetwork(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				id := fn.AddEdge(u, v, 1)
				edges = append(edges, edge{u, v, id})
			}
		}
		s, tt := 0, n-1
		flow := fn.MaxFlow(s, tt)
		side := fn.MinCutSide(s)
		if !side[s] || side[tt] {
			return false
		}
		crossing := int64(0)
		for _, e := range edges {
			if side[e.u] && !side[e.v] {
				crossing++
			}
		}
		return crossing == flow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
