package contention_test

import (
	"fmt"
	"log"

	"repro/internal/contention"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Measure the paper's §3.3 worst case: 12 transfers forced through one link
// of the 64-node 4-2 fat tree.
func ExampleMaxLinkContention() {
	ft := topology.NewFatTree(4, 2, 64)
	res, err := contention.MaxLinkContention(routing.FatTree(ft))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.String(ft.Network))
	// Output:
	// max link contention 12:1 on L2.0.0[4] -> L3.0.0[0]; witness transfers: 0->16 1->20 2->24 3->28 4->32 5->36 6->40 7->44 8->48 9->52 10->56 11->60
}

// Check the paper's hand-built §3.4 scenario on the fat fractahedron: all
// four transfers share one diagonal link of a level-2 layer.
func ExampleContentionOfSet() {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	tb := routing.Fractahedron(f)
	set := []contention.Transfer{{Src: 6, Dst: 54}, {Src: 7, Dst: 55}, {Src: 14, Dst: 62}, {Src: 15, Dst: 63}}
	shared, _, err := contention.ContentionOfSet(tb, set)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d of 4 transfers share one link\n", shared)
	// Output:
	// 4 of 4 transfers share one link
}

// Load-share §1's paired fabrics while both are healthy: X carries the pairs
// whose src+dst is even, Y the odd ones, so each pair keeps one fixed path
// and stays in order. Each fabric sees half the pair space, which cuts the
// 4-2 fat tree's worst case from 12:1 to 8:1 (a third, not a half). A
// single fault degrades the survivor to single-fabric contention, not to
// disconnection.
func ExampleMaxLinkContentionPairs() {
	worst := 0
	for fabric := 0; fabric < 2; fabric++ {
		ft := topology.NewFatTree(4, 2, 64)
		var pairs []contention.Transfer
		for a := 0; a < ft.NumNodes(); a++ {
			for b := 0; b < ft.NumNodes(); b++ {
				if a != b && (a+b)%2 == fabric {
					pairs = append(pairs, contention.Transfer{Src: a, Dst: b})
				}
			}
		}
		res, err := contention.MaxLinkContentionPairs(routing.FatTree(ft), pairs)
		if err != nil {
			log.Fatal(err)
		}
		worst = max(worst, res.Max)
	}
	fmt.Printf("load-shared contention %d:1\n", worst)
	// Output:
	// load-shared contention 8:1
}
