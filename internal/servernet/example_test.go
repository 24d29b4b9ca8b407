package servernet_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/servernet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Drive §1's transaction layer on the 16-CPU system of §2.2 (one
// tetrahedron with fan-out routers). CPUs 0-7 each read a boot image from
// controller 8+cpu, which then streams three DMA writes to the CPU and
// raises a completion interrupt. Every write completes when its ack
// returns, and on fixed paths no interrupt overtakes the data it announces
// (the in-order requirement of §3.3).
func ExampleEngine() {
	cfg := topology.Tetra(1, false)
	cfg.Fanout = true
	sys, _, err := core.NewFractahedron(cfg)
	if err != nil {
		log.Fatal(err)
	}
	e := servernet.NewEngine(sys, sim.Config{FIFODepth: 4})
	var writes [8][]int
	var interrupts [8]int
	for cpu := 0; cpu < 8; cpu++ {
		ctrl := 8 + cpu
		e.ReadTx(cpu, ctrl, 32, cpu)
		for k := 0; k < 3; k++ {
			writes[cpu] = append(writes[cpu], e.WriteTx(ctrl, cpu, 48, 10+cpu))
		}
		interrupts[cpu] = e.InterruptTx(ctrl, cpu, 11+cpu)
	}
	res, err := e.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d transactions, %d interrupt overtakes\n", res.Completed, res.InterruptOvertakes)
	for i, id := range writes[3] {
		fmt.Printf("CPU 3 write %d acked at cycle %d\n", i, res.Outcomes[id].Completed)
	}
	fmt.Printf("CPU 3 interrupt at cycle %d\n", res.Outcomes[interrupts[3]].Completed)
	// Output:
	// completed 40 transactions, 0 interrupt overtakes
	// CPU 3 write 0 acked at cycle 213
	// CPU 3 write 1 acked at cycle 405
	// CPU 3 write 2 acked at cycle 597
	// CPU 3 interrupt at cycle 598
}
