package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestShortestCycleAcyclic(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	if cycle, ok := g.ShortestCycle(); ok {
		t.Fatalf("acyclic graph reported cycle %v", cycle)
	}
}

func TestShortestCycleSelfLoop(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0) // 3-cycle
	g.AddEdge(2, 2) // but the self-loop is shorter
	cycle, ok := g.ShortestCycle()
	if !ok || !reflect.DeepEqual(cycle, []int{2}) {
		t.Fatalf("ShortestCycle = %v, %v; want [2], true", cycle, ok)
	}
}

func TestShortestCyclePicksMinimal(t *testing.T) {
	// A 4-cycle 0->1->2->3->0 with a chord 2->0 creating a 3-cycle
	// 0->1->2->0, and a distant 2-cycle 5<->6 that must win.
	g := NewDigraph(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	g.AddEdge(2, 0)
	g.AddEdge(5, 6)
	g.AddEdge(6, 5)
	cycle, ok := g.ShortestCycle()
	if !ok || !reflect.DeepEqual(cycle, []int{5, 6}) {
		t.Fatalf("ShortestCycle = %v, %v; want [5 6], true", cycle, ok)
	}
}

func TestShortestCycleDeterministicStart(t *testing.T) {
	// Two disjoint 3-cycles; the one containing the lowest vertex wins.
	g := NewDigraph(8)
	g.AddEdge(4, 5)
	g.AddEdge(5, 6)
	g.AddEdge(6, 4)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	cycle, ok := g.ShortestCycle()
	if !ok || !reflect.DeepEqual(cycle, []int{1, 2, 3}) {
		t.Fatalf("ShortestCycle = %v, %v; want [1 2 3], true", cycle, ok)
	}
}

func TestCycleThroughOrientation(t *testing.T) {
	// 0->1->2->0 plus a dead-end edge 2->3. The cycle through an edge
	// starts at the edge's source and follows it: CycleThrough(1, 2) is
	// [1 2 0], not a rotation starting elsewhere.
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	cycle, ok := g.CycleThrough(1, 2)
	if !ok || !reflect.DeepEqual(cycle, []int{1, 2, 0}) {
		t.Fatalf("CycleThrough(1,2) = %v, %v; want [1 2 0], true", cycle, ok)
	}
	if _, ok := g.CycleThrough(2, 3); ok {
		t.Fatal("edge 2->3 is in no cycle, want ok=false")
	}
	if _, ok := g.CycleThrough(0, 2); ok {
		t.Fatal("0->2 is not an edge, want ok=false")
	}
}

// Property: on random digraphs, self-loops and parallel edges included,
// ShortestCycle reports a cycle exactly when TopoSort fails; the cycle is
// real (every edge exists, no vertex repeats) and no longer than the one
// FindCycle's depth-first search closes.
func TestShortestCycleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		g := NewDigraph(n)
		for m := rng.Intn(2 * n); m > 0; m-- {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		cycle, cyclic := g.ShortestCycle()
		if _, sortable := g.TopoSort(); cyclic == sortable {
			t.Logf("seed %d: ShortestCycle cyclic=%v, TopoSort sortable=%v", seed, cyclic, sortable)
			return false
		}
		if !cyclic {
			return cycle == nil
		}
		seen := make(map[int]bool)
		for i, v := range cycle {
			if seen[v] || !g.HasEdge(v, cycle[(i+1)%len(cycle)]) {
				t.Logf("seed %d: %v is not a simple cycle", seed, cycle)
				return false
			}
			seen[v] = true
		}
		dfs, _ := g.FindCycle()
		if len(cycle) > len(dfs) {
			t.Logf("seed %d: shortest cycle %v longer than FindCycle's %v", seed, cycle, dfs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
