package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// freshCut is the reference evaluation: a new flow network per terminal
// assignment, terminal edges first, graph edges after.
func freshCut(p BisectionProblem, termSide []bool) (int, []bool) {
	n := p.G.N()
	s, t := n, n+1
	f := NewFlowNetwork(n + 2)
	const inf = int64(1) << 40
	for v := 0; v < n; v++ {
		switch {
		case p.Weight[v] == 0:
		case termSide[v]:
			f.AddEdge(v, t, inf)
		default:
			f.AddEdge(s, v, inf)
		}
	}
	for _, e := range p.G.Edges() {
		f.AddEdge(e[0], e[1], 1)
		f.AddEdge(e[1], e[0], 1)
	}
	cut := f.MaxFlow(s, t)
	reach := f.MinCutSide(s)
	side := make([]bool, n)
	for v := range side {
		side[v] = !reach[v]
	}
	return int(cut), side
}

// randomProblem builds a seeded random graph with the given number of
// unit-weight terminals among n vertices; the rest are zero-weight routers.
func randomProblem(rng *rand.Rand, n, terminals int) BisectionProblem {
	g := NewUgraph(n)
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	w := make([]int, n)
	for _, v := range rng.Perm(n)[:terminals] {
		w[v] = 1
	}
	return BisectionProblem{G: g, Weight: w}
}

// One evaluator, reused across many terminal assignments, must give every
// assignment exactly the cut and side a fresh network gives it; so must
// MinBisection's answer, in both the exact and the search regime.
func TestCutEvaluatorReuseMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		terminals := 6 + 2*rng.Intn(5) // exact: <= 16
		if seed%2 == 0 {
			terminals = 18 + 2*rng.Intn(8) // search: > 16
		}
		n := terminals + 4 + rng.Intn(20)
		p := randomProblem(rng, n, terminals)
		ts := terminalsOf(p)
		ev := newCutEvaluator(p, ts)
		for i := 0; i < 40; i++ {
			termSide := randomBalanced(n, ts, p.Weight, len(ts)/2, rng)
			cut := ev.eval(termSide)
			wantCut, wantSide := freshCut(p, termSide)
			if cut != wantCut || !slices.Equal(ev.side(), wantSide) {
				t.Fatalf("seed %d eval %d: reused cut %d side %v, fresh %d %v",
					seed, i, cut, ev.side(), wantCut, wantSide)
			}
		}

		res := MinBisection(p, 3, seed)
		if res.Exact != (terminals <= 16) {
			t.Errorf("seed %d: %d terminals, Exact = %v", seed, terminals, res.Exact)
		}
		wantCut, wantSide := freshCut(p, res.Side)
		if res.Cut != wantCut || !slices.Equal(res.Side, wantSide) {
			t.Errorf("seed %d: MinBisection cut %d side %v, fresh evaluation of its terminals %d %v",
				seed, res.Cut, res.Side, wantCut, wantSide)
		}
	}
}

// FuzzSwapEval checks the warm pair-swap evaluation against a fresh
// network per assignment. On a seeded random graph whose terminals weigh 1
// to 3 and mostly have several links, it swaps random left/right terminal
// pairs from the last maximum flow: the verdict must be the fresh cut's
// comparison with the current one, an accepted swap must report the fresh
// cut and side, and a rejected one must leave the evaluator on the previous
// assignment, so that its side and every later swap still match. The
// search itself then runs on the weighted instance.
func FuzzSwapEval(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		terminals := 2 + rng.Intn(28)
		n := terminals + 2 + rng.Intn(20)
		p := randomProblem(rng, n, terminals)
		ts := terminalsOf(p)
		total := 0
		for _, v := range ts {
			p.Weight[v] = 1 + rng.Intn(3)
			total += p.Weight[v]
		}
		if total%2 != 0 {
			p.Weight[ts[0]]++
			total++
		}

		ev := newCutEvaluator(p, ts)
		termSide := make([]bool, n)
		for _, v := range ts {
			termSide[v] = rng.Intn(2) == 0
		}
		termSide[ts[0]], termSide[ts[1]] = false, true
		cut := ev.eval(termSide)
		if wantCut, wantSide := freshCut(p, termSide); cut != wantCut || !slices.Equal(ev.side(), wantSide) {
			t.Fatalf("eval: cut %d side %v, fresh %d %v", cut, ev.side(), wantCut, wantSide)
		}
		for i := 0; i < 40; i++ {
			var lefts, rights []int
			for _, v := range ts {
				if termSide[v] {
					rights = append(rights, v)
				} else {
					lefts = append(lefts, v)
				}
			}
			l, r := lefts[rng.Intn(len(lefts))], rights[rng.Intn(len(rights))]
			termSide[l], termSide[r] = true, false
			wantCut, wantSide := freshCut(p, termSide)
			c2 := ev.swap(l, r, cut)
			if (c2 < cut) != (wantCut < cut) {
				t.Fatalf("swap %d (%d, %d) from cut %d: got %d, fresh cut %d", i, l, r, cut, c2, wantCut)
			}
			if c2 < cut {
				if c2 != wantCut || !slices.Equal(ev.side(), wantSide) {
					t.Fatalf("swap %d (%d, %d): cut %d side %v, fresh %d %v", i, l, r, c2, ev.side(), wantCut, wantSide)
				}
				cut = c2
				continue
			}
			termSide[l], termSide[r] = false, true
			if _, prevSide := freshCut(p, termSide); c2 != cut || !slices.Equal(ev.side(), prevSide) {
				t.Fatalf("rejected swap %d (%d, %d): cut %d side %v, previous %d %v", i, l, r, c2, ev.side(), cut, prevSide)
			}
		}

		res := MinBisection(p, 3, seed)
		if res.Cut < 0 {
			return // these weights admit no balanced split the search drew
		}
		right := 0
		for _, v := range ts {
			if res.Side[v] {
				right += p.Weight[v]
			}
		}
		if wantCut, wantSide := freshCut(p, res.Side); 2*right != total || res.Cut != wantCut || !slices.Equal(res.Side, wantSide) {
			t.Fatalf("MinBisection: cut %d, right weight %d, fresh cut %d", res.Cut, right, wantCut)
		}
	})
}

// A random greedy draw can miss a balanced split that exists; that draw
// must cost one restart, not all the remaining ones. Here 18 terminals
// share two linked routers, with weights 3,3,3,3 and fourteen 2s (total
// 40): a draw fails whenever it takes an odd number of 3s, yet every seed
// must find a balanced bisection within 8 restarts.
func TestMinBisectionFailedDrawKeepsRestarting(t *testing.T) {
	g := NewUgraph(20)
	g.AddEdge(0, 1)
	w := make([]int, 20)
	for v := 2; v < 20; v++ {
		g.AddEdge(v%2, v)
		w[v] = 2
		if v < 6 {
			w[v] = 3
		}
	}
	p := BisectionProblem{G: g, Weight: w}
	for seed := int64(1); seed <= 50; seed++ {
		res := MinBisection(p, 8, seed)
		if res.Cut < 0 {
			t.Fatalf("seed %d: no bisection found (cut %d)", seed, res.Cut)
		}
		right := 0
		for v, r := range res.Side {
			if r {
				right += w[v]
			}
		}
		if right != 20 {
			t.Errorf("seed %d: right side weighs %d, want 20", seed, right)
		}
		if wantCut, wantSide := freshCut(p, res.Side); res.Cut != wantCut || !slices.Equal(res.Side, wantSide) {
			t.Errorf("seed %d: cut %d, fresh evaluation of its terminals %d", seed, res.Cut, wantCut)
		}
	}
}

// Reset restores the capacities MaxFlow consumed, so a network solves to
// the same flow and cut every time.
func TestMaxFlowAfterReset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 30
	f := NewFlowNetwork(n)
	for i := 0; i < 120; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			f.AddEdge(u, v, int64(1+rng.Intn(5)))
		}
	}
	first := f.MaxFlow(0, n-1)
	side := f.MinCutSide(0)
	if again := f.MaxFlow(0, n-1); again != 0 {
		t.Fatalf("second MaxFlow without Reset = %d, want 0 (capacities consumed)", again)
	}
	f.Reset()
	if again := f.MaxFlow(0, n-1); again != first {
		t.Fatalf("MaxFlow after Reset = %d, want %d", again, first)
	}
	if !slices.Equal(f.MinCutSide(0), side) {
		t.Error("min-cut side changed after Reset")
	}
	if first == 0 {
		t.Fatal("degenerate instance: zero flow")
	}
}

// BenchmarkMinBisection measures the pair-swap search on a seeded random
// instance of the size of a level-2 fat fractahedron: 64 unit-weight
// terminals among 112 vertices, two random restarts.
func BenchmarkMinBisection(b *testing.B) {
	p := randomProblem(rand.New(rand.NewSource(1)), 112, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := MinBisection(p, 2, 1); res.Exact || res.Cut <= 0 {
			b.Fatalf("cut %d exact %v", res.Cut, res.Exact)
		}
	}
}
