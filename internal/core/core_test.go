package core

import (
	"sync"
	"testing"

	"repro/internal/deadlock"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The façade reproduces Table 2: one build per system, its once-only
// contention and bisection, and the cheap analyses called directly.
func TestAnalyzeTable2(t *testing.T) {
	type row struct {
		hops       metrics.HopStats
		contention int
		bisection  int
		free       bool
		routers    int
	}
	analyze := func(spec string) row {
		sys, _, err := ParseSystem(spec)
		if err != nil {
			t.Fatal(err)
		}
		var r row
		if r.hops, err = metrics.Hops(sys.Tables); err != nil {
			t.Fatal(err)
		}
		c, err := sys.Contention()
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.Bisection()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := deadlock.Analyze(sys.Tables)
		if err != nil {
			t.Fatal(err)
		}
		r.contention, r.bisection, r.free = c.Max, b.Cut, rep.Free
		r.routers = metrics.CostOf(sys.Net).Routers
		return r
	}
	ft := analyze("fattree:d=4,u=2,nodes=64")
	fr := analyze("fat-fract:levels=2")
	if ft.contention != 12 {
		t.Errorf("fat tree contention = %d, want 12", ft.contention)
	}
	if fr.contention >= ft.contention {
		t.Errorf("fractahedron contention %d not below fat tree %d", fr.contention, ft.contention)
	}
	if ft.bisection != 8 || fr.bisection != 16 {
		t.Errorf("bisections %d/%d, want 8/16", ft.bisection, fr.bisection)
	}
	if ft.routers != 28 || fr.routers != 48 {
		t.Errorf("router counts %d/%d, want 28/48", ft.routers, fr.routers)
	}
	if !ft.free || !fr.free {
		t.Error("either system not deadlock-free")
	}
	if fr.hops.Mean >= ft.hops.Mean {
		t.Errorf("fractahedron mean hops %.3f not below fat tree %.3f", fr.hops.Mean, ft.hops.Mean)
	}
}

// Every built-in spec runs both expensive analyses without a panic. An odd
// node count has no balanced bisection and reports an error instead; a
// network above 128 nodes with no seed cut (shuffle:dim=8) still gets a cut.
func TestBuiltinAnalysesDoNotPanic(t *testing.T) {
	for _, spec := range append(BuiltinSpecs(), "ring:size=3", "shuffle:dim=8") {
		t.Run(spec, func(t *testing.T) {
			sys, _, err := ParseSystem(spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Contention(); err != nil {
				t.Fatal(err)
			}
			b, err := sys.Bisection()
			if odd := sys.Net.NumNodes()%2 != 0; odd != (err != nil) {
				t.Fatalf("%d nodes: bisection error %v", sys.Net.NumNodes(), err)
			}
			if err == nil && b.Cut <= 0 {
				t.Fatalf("bisection cut %d", b.Cut)
			}
		})
	}
}

// Concurrent first calls compute each analysis once and all callers see
// the same result (run under -race).
func TestAnalysesConcurrentCallers(t *testing.T) {
	sys, _, err := ParseSystem("fat-fract:levels=1")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	cuts := make([]int, callers)
	maxes := make([]int, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := sys.Contention()
			if err != nil {
				errs[i] = err
				return
			}
			b, err := sys.Bisection()
			cuts[i], maxes[i], errs[i] = b.Cut, c.Max, err
		}()
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if cuts[i] != cuts[0] || maxes[i] != maxes[0] {
			t.Fatalf("caller %d saw cut %d contention %d, caller 0 saw %d and %d",
				i, cuts[i], maxes[i], cuts[0], maxes[0])
		}
	}
}

func TestSystemSimulate(t *testing.T) {
	s, _, err := NewFatFractahedron(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Simulate(workload.Transfers([][2]int{{0, 7}, {3, 4}}, 8), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 2 || res.Deadlocked {
		t.Errorf("delivered=%d deadlocked=%v", res.Delivered, res.Deadlocked)
	}
}

func TestRingUnsafeDeadlocksViaFacade(t *testing.T) {
	s, _, err := NewRing(4, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SimulateUnrestricted(
		workload.Transfers(workload.RingDeadlockSet(4), 32),
		sim.Config{FIFODepth: 2, DeadlockThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Error("unsafe ring did not deadlock")
	}
}

func TestGeneralizedFractahedronFacade(t *testing.T) {
	s, f, err := NewFractahedron(topology.FractConfig{Group: 3, Down: 2, Levels: 2, Fat: true})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumNodes() != 36 {
		t.Errorf("nodes = %d", f.NumNodes())
	}
	rep, err := deadlock.Analyze(s.Tables)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Free {
		t.Error("generalized fractahedron not deadlock-free")
	}
}
