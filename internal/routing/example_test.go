package routing_test

import (
	"fmt"
	"log"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Route through the fractahedron with the paper's depth-first digit
// algorithm and inspect the table-driven path.
func ExampleFractahedron() {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	tb := routing.Fractahedron(f)
	r, err := tb.Route(6, 54)
	if err != nil {
		log.Fatal(err)
	}
	for _, dev := range r.Devices {
		fmt.Println(f.Device(dev).Name)
	}
	// Output:
	// N6
	// L1.e0.l0.r3
	// L2.e0.l3.r0
	// L2.e0.l3.r3
	// L1.e6.l0.r3
	// N54
}

// Compile the tables into the region image a ServerNet router would load.
func ExampleCompileImage() {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	tb := routing.Fractahedron(f)
	img := routing.CompileImage(tb)
	st := tb.RegionSizes()
	fmt.Printf("%d routers, %d total regions (max %d per router)\n",
		st.Routers, img.Entries(), st.Max)
	// Output:
	// 48 routers, 296 total regions (max 7 per router)
}

// Generic up*/down* serves topologies with no specialized algorithm.
func ExampleUpDownGeneric() {
	c := topology.NewCCC(3)
	tb := routing.UpDownGeneric(c.Network, c.Routers[0][0])
	if err := tb.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s routes all %d pairs\n", tb.Algorithm, c.NumNodes()*(c.NumNodes()-1))
	// Output:
	// updown-generic routes all 552 pairs
}

// §2's case for reflexive routing: with one dead link, a pair whose forward
// route is healthy is still unusable when its reverse route, which carries
// the acknowledgments, crosses the fault. Clockwise-only ring routing is not
// reflexive and loses such pairs; seamless (shortest-way) routing is
// reflexive and loses none.
func Example_ackPath() {
	ring := topology.NewRing(8, 1)
	dead, _ := ring.LinkAt(ring.Routers[0], topology.RingPortCW)
	broken := func(r routing.Route) bool {
		for _, ch := range r.Channels {
			if ring.ChannelLink(ch) == dead {
				return true
			}
		}
		return false
	}
	for _, tb := range []*routing.Tables{routing.RingClockwise(ring), routing.RingSeamless(ring)} {
		healthy, lost := 0, 0
		for a := 0; a < ring.NumNodes(); a++ {
			for b := 0; b < ring.NumNodes(); b++ {
				if a == b {
					continue
				}
				fwd, err := tb.Route(a, b)
				if err != nil {
					log.Fatal(err)
				}
				if broken(fwd) {
					continue
				}
				healthy++
				rev, err := tb.Route(b, a)
				if err != nil {
					log.Fatal(err)
				}
				if broken(rev) {
					lost++
				}
			}
		}
		fmt.Printf("%s: %d forward-healthy pairs, %d lost to the ack path\n", tb.Algorithm, healthy, lost)
	}
	// Output:
	// ring-cw: 28 forward-healthy pairs, 28 lost to the ack path
	// ring-seamless: 42 forward-healthy pairs, 0 lost to the ack path
}
