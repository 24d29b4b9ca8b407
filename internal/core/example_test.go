package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Build the paper's 64-node fat fractahedron and reproduce its Table 2 row.
func Example() {
	sys, _, err := core.NewFatFractahedron(2)
	if err != nil {
		log.Fatal(err)
	}
	hops, err := metrics.Hops(sys.Tables)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := deadlock.Analyze(sys.Tables)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("routers: %d\n", metrics.CostOf(sys.Net).Routers)
	fmt.Printf("average hops: %.1f\n", hops.Mean)
	fmt.Printf("deadlock-free: %v\n", rep.Free)
	// Output:
	// routers: 48
	// average hops: 4.3
	// deadlock-free: true
}

// The two expensive analyses run once per System and are shared by every
// later caller; routing one of the paper's §3.4 transfers shows the path
// behind them.
func ExampleSystem_analyze() {
	sys, fract, err := core.NewFatFractahedron(2)
	if err != nil {
		log.Fatal(err)
	}
	c, err := sys.Contention()
	if err != nil {
		log.Fatal(err)
	}
	b, err := sys.Bisection()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("contention: %d:1, bisection: %d links\n", c.Max, b.Cut)
	r, err := sys.Tables.Route(6, 54)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("router hops: %d\n", r.RouterHops())
	fmt.Printf("source digits: level2=%d level1=%d\n", fract.Digit(6, 2), fract.Digit(6, 1))
	// Output:
	// contention: 8:1, bisection: 16 links
	// router hops: 4
	// source digits: level2=0 level1=6
}

// Simulate the §3.4 adversarial transfer set through the wormhole simulator.
func ExampleSystem_simulate() {
	sys, _, err := core.NewFatFractahedron(2)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Simulate(workload.Transfers(workload.FractahedronWorstCase(), 16), sim.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delivered %d/4, deadlocked=%v, in order=%v\n",
		res.Delivered, res.Deadlocked, res.InOrderViolations == 0)
	// Output:
	// delivered 4/4, deadlocked=false, in order=true
}

// Parse a spec string the way the command-line tools do.
func ExampleParseSystem() {
	sys, name, err := core.ParseSystem("fattree:d=4,u=2,nodes=64")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d routers\n", name, sys.Net.NumRouters())
	// Output:
	// fattree-4-2-n64: 28 routers
}
