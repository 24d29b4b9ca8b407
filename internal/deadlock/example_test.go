package deadlock_test

import (
	"fmt"
	"log"

	"repro/internal/deadlock"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Analyze the Figure 1 ring: clockwise routing is provably deadlock-prone,
// seam-avoiding routing provably free.
func ExampleAnalyze() {
	ring := topology.NewRing(4, 1)

	bad, err := deadlock.Analyze(routing.RingClockwise(ring))
	if err != nil {
		log.Fatal(err)
	}
	good, err := deadlock.Analyze(routing.RingSeamless(ring))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clockwise free: %v (minimal cycle length %d)\n", bad.Free, len(bad.Cycle))
	fmt.Printf("seamless free: %v\n", good.Free)
	// Output:
	// clockwise free: false (minimal cycle length 4)
	// seamless free: true
}

// Virtual channels make the physically cyclic ring safe: the (channel, VC)
// dependency graph of the dateline discipline is acyclic.
func ExampleAnalyze_virtualChannels() {
	ring := topology.NewRing(4, 1)
	rep, err := deadlock.Analyze(routing.RingDateline(ring))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("free: %v with %d VCs; physical graph cyclic: %v\n",
		rep.Free, rep.NumVC, rep.PhysicalCyclic)
	// Output:
	// free: true with 2 VCs; physical graph cyclic: true
}
