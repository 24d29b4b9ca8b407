package graph

import "math/rand"

// BisectionProblem describes a balanced minimum-bisection instance: split
// the weighted vertices ("terminals", Weight > 0) of an undirected graph
// into two sides of equal total weight so that the number of crossing edges
// is minimal. Zero-weight vertices (routers, in the network use case) may be
// placed on either side and are assigned optimally by a minimum s-t cut once
// the terminal sides are fixed.
type BisectionProblem struct {
	G      *Ugraph
	Weight []int // per-vertex weight; the total must be even

	// Seeds are optional candidate side assignments (one bool per vertex;
	// only terminal entries are consulted). Topology builders use them to
	// inject structural cuts that the local search then tries to improve.
	Seeds [][]bool
}

// BisectionResult reports the best bisection found.
type BisectionResult struct {
	Cut   int    // number of crossing edges
	Side  []bool // side per vertex (true = right)
	Exact bool   // true when the terminal assignment space was enumerated
}

// MinBisection solves a BisectionProblem. When the number of terminals is at
// most exactLimit (after fixing one terminal by symmetry) the terminal
// assignments are enumerated and the result is exact; otherwise a local
// pair-swap search with the given number of random restarts is used and the
// result is the best cut found. Every evaluation assigns the zero-weight
// vertices optimally via max-flow, so reported cuts are always achievable.
func MinBisection(p BisectionProblem, restarts int, seed int64) BisectionResult {
	terminals := terminalsOf(p)
	total := 0
	for _, t := range terminals {
		total += p.Weight[t]
	}
	if total%2 != 0 {
		panic("graph: MinBisection requires even total weight")
	}
	half := total / 2

	const exactLimit = 16
	if len(terminals) <= exactLimit {
		return exactBisection(p, terminals, half)
	}
	return searchBisection(p, terminals, half, restarts, seed)
}

func terminalsOf(p BisectionProblem) []int {
	var ts []int
	for v := 0; v < p.G.N(); v++ {
		if p.Weight[v] > 0 {
			ts = append(ts, v)
		}
	}
	return ts
}

// cutEvaluator computes the minimum crossing-edge count over placements of
// the zero-weight vertices, given fixed sides for the terminals. It builds
// one flow network per bisection problem — the graph's edges in both
// directions with capacity 1, plus a source edge s -> v and a sink edge
// v -> t per terminal, the pinned side infinite and the other zero. eval
// solves an assignment from zero flow; swap re-solves a pair swap from the
// maximum flow the network already holds. Neither the edge order nor the
// flow a solve starts from matters to the result: the cut value is the
// maximum flow, and the s-side (the residual-reachable set) is the same for
// every maximum flow.
type cutEvaluator struct {
	f         *FlowNetwork
	s, t      int
	toS, toT  []int // per vertex: edge ids of s -> v and v -> t (terminals only)
	terminals []int
	saved     []int64 // residual capacities before a swap, restored on rejection
}

// inf is the capacity of a pinned terminal edge: more than any cut.
const inf = int64(1) << 40

func newCutEvaluator(p BisectionProblem, terminals []int) *cutEvaluator {
	n := p.G.N()
	ev := &cutEvaluator{
		f:         NewFlowNetwork(n + 2),
		s:         n,
		t:         n + 1,
		toS:       make([]int, n),
		toT:       make([]int, n),
		terminals: terminals,
	}
	for _, e := range p.G.Edges() {
		ev.f.AddEdge(e[0], e[1], 1)
		ev.f.AddEdge(e[1], e[0], 1)
	}
	for _, v := range terminals {
		ev.toS[v] = ev.f.AddEdge(ev.s, v, 0)
		ev.toT[v] = ev.f.AddEdge(v, ev.t, 0)
	}
	ev.saved = make([]int64, len(ev.f.cap))
	return ev
}

// eval returns the minimum cut with every terminal v pinned to the right
// side when termSide[v], else to the left, solved from zero flow. side
// reads the optimal placement until the next eval or accepted swap.
func (ev *cutEvaluator) eval(termSide []bool) int {
	for _, v := range ev.terminals {
		if termSide[v] {
			ev.f.SetCap(ev.toS[v], 0)
			ev.f.SetCap(ev.toT[v], inf)
		} else {
			ev.f.SetCap(ev.toS[v], inf)
			ev.f.SetCap(ev.toT[v], 0)
		}
	}
	ev.f.Reset()
	return int(ev.f.MaxFlow(ev.s, ev.t))
}

// swap moves left terminal l to the right and right terminal r to the left,
// given that the network holds a maximum flow of value cut for the current
// assignment (after eval or an accepted swap). When the new minimum cut is
// below cut, swap returns it and the network holds a maximum flow for the
// new assignment, so side reads the same placement a cold eval would.
// Otherwise swap restores the previous flow and returns cut.
//
// Only the four terminal edges of l and r change. The flow on the two that
// close is cancelled first: the flow s -> l along the flow paths from l on
// to t, then the flow r -> t along the flow paths back from r to s. In
// residual terms that pushes it back from t to l, and from r to s, along
// paths that avoid the other end. Each is at most the terminal's degree,
// and the flow paths through a terminal always carry it all. Dinic then
// augments until the flow regains its old value or is maximum below it.
func (ev *cutEvaluator) swap(l, r, cut int) int {
	f := ev.f
	copy(ev.saved, f.cap)
	a := f.cap[ev.toS[l]^1]
	if !f.cancel(l, ev.t, true, a) {
		panic("graph: the flow into a swapped terminal has no path to the sink")
	}
	setEmpty(f, ev.toS[l], 0)
	b := f.cap[ev.toT[r]^1]
	if !f.cancel(r, ev.s, false, b) {
		panic("graph: the flow out of a swapped terminal has no path from the source")
	}
	setEmpty(f, ev.toT[r], 0)
	setEmpty(f, ev.toT[l], inf)
	setEmpty(f, ev.toS[r], inf)
	if value := int64(cut) - a - b + f.augment(ev.s, ev.t, a+b); value < int64(cut) {
		return int(value)
	}
	copy(f.cap, ev.saved)
	return cut
}

// setEmpty gives edge id the residual capacity c and its reverse none: the
// edge carries no flow.
func setEmpty(f *FlowNetwork, id int, c int64) {
	f.cap[id], f.cap[id^1] = c, 0
}

// side returns the full side assignment of the last evaluation: right for
// every vertex the source cannot reach in the residual network.
func (ev *cutEvaluator) side() []bool {
	reach := ev.f.MinCutSide(ev.s)
	side := make([]bool, ev.s)
	for v := range side {
		side[v] = !reach[v]
	}
	return side
}

func exactBisection(p BisectionProblem, terminals []int, half int) BisectionResult {
	best := BisectionResult{Cut: -1, Exact: true}
	k := len(terminals)
	if k == 0 {
		side := make([]bool, p.G.N())
		return BisectionResult{Cut: 0, Side: side, Exact: true}
	}
	ev := newCutEvaluator(p, terminals)
	termSide := make([]bool, p.G.N())
	// Fix terminal 0 on the left to halve the space; enumerate subsets of
	// the rest whose weight reaches half on the right.
	for mask := 0; mask < 1<<(k-1); mask++ {
		w := 0
		for i := 0; i < k-1; i++ {
			if mask&(1<<i) != 0 {
				w += p.Weight[terminals[i+1]]
			}
		}
		if w != half {
			continue
		}
		for i := 0; i < k-1; i++ {
			termSide[terminals[i+1]] = mask&(1<<i) != 0
		}
		cut := ev.eval(termSide)
		if best.Cut == -1 || cut < best.Cut {
			best.Cut, best.Side = cut, ev.side()
		}
	}
	return best
}

func searchBisection(p BisectionProblem, terminals []int, half int, restarts int, seed int64) BisectionResult {
	rng := rand.New(rand.NewSource(seed))
	best := BisectionResult{Cut: -1}
	ev := newCutEvaluator(p, terminals)

	// Each improvement pass tries at most this many candidate swaps, so the
	// search stays tractable on instances with hundreds of terminals.
	const maxSwapTries = 512

	improve := func(termSide []bool) {
		cut, side := ev.eval(termSide), ev.side()
		// Pair-swap local search: swap one left terminal with one right
		// terminal of equal weight; keep any strict improvement.
		for improved := true; improved; {
			improved = false
			var lefts, rights []int
			for _, t := range terminals {
				if termSide[t] {
					rights = append(rights, t)
				} else {
					lefts = append(lefts, t)
				}
			}
			rng.Shuffle(len(lefts), func(i, j int) { lefts[i], lefts[j] = lefts[j], lefts[i] })
			rng.Shuffle(len(rights), func(i, j int) { rights[i], rights[j] = rights[j], rights[i] })
			tries := 0
		swap:
			for _, l := range lefts {
				for _, r := range rights {
					if p.Weight[l] != p.Weight[r] {
						continue
					}
					if tries++; tries > maxSwapTries {
						break swap
					}
					if c2 := ev.swap(l, r, cut); c2 < cut {
						termSide[l], termSide[r] = true, false
						cut, side = c2, ev.side()
						improved = true
						break swap
					}
				}
			}
		}
		if best.Cut == -1 || cut < best.Cut {
			best.Cut, best.Side = cut, side
		}
	}

	// Seeds first: structural cuts provided by topology builders.
	for _, seedSide := range p.Seeds {
		termSide := make([]bool, p.G.N())
		w := 0
		for _, t := range terminals {
			termSide[t] = seedSide[t]
			if seedSide[t] {
				w += p.Weight[t]
			}
		}
		if w != half {
			continue // unbalanced seed: ignore
		}
		improve(termSide)
	}

	for r := 0; r < restarts; r++ {
		termSide := randomBalanced(p.G.N(), terminals, p.Weight, half, rng)
		if termSide == nil {
			continue // a greedy draw can miss a balanced split that exists
		}
		improve(termSide)
	}
	return best
}

// randomBalanced produces a random terminal assignment with right weight
// exactly half, indexed by vertex over n vertices. Terminals are shuffled
// and greedily assigned; with uniform weights this always succeeds.
func randomBalanced(n int, terminals []int, weight []int, half int, rng *rand.Rand) []bool {
	order := append([]int(nil), terminals...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	termSide := make([]bool, n)
	w := 0
	for _, t := range order {
		if w+weight[t] <= half {
			termSide[t] = true
			w += weight[t]
		} else {
			termSide[t] = false
		}
	}
	if w != half {
		return nil
	}
	return termSide
}
