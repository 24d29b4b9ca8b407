// Command fractagen builds a topology from a spec string, validates it, and
// prints its figures of merit — or a Graphviz DOT rendering with -dot.
//
// Usage:
//
//	fractagen -spec fat-fract:levels=2 [-dot] [-no-contention] [-no-bisection]
//
// The -spec grammar is core.ParseSystem's, shared by every command.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/viz"
)

func main() {
	spec := flag.String("spec", "fat-fract:levels=2", "topology specification")
	dot := flag.Bool("dot", false, "emit Graphviz DOT instead of statistics")
	svg := flag.Bool("svg", false, "emit a layered SVG drawing instead of statistics")
	bom := flag.Bool("bom", false, "emit the cable bill of materials (fractahedrons only)")
	tableOut := flag.String("table-image", "", "write the compiled routing-table image to a file")
	noContention := flag.Bool("no-contention", false, "skip the contention matching")
	noBisection := flag.Bool("no-bisection", false, "skip the bisection search")
	flag.Parse()

	sys, name, err := core.ParseSystem(*spec)
	if err != nil {
		fail(err)
	}
	if *dot {
		if err := sys.Net.WriteDOT(os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	if *svg {
		var err error
		switch c := sys.Concrete.(type) {
		case *topology.Fractahedron:
			err = viz.WriteFractahedronSVG(os.Stdout, c)
		case *topology.FatTree:
			err = viz.WriteFatTreeSVG(os.Stdout, c)
		default:
			root := topology.DeviceID(-1)
			for _, d := range sys.Net.Devices() {
				if d.Kind == topology.Router {
					root = d.ID
					break
				}
			}
			err = viz.WriteSVG(os.Stdout, sys.Net, root)
		}
		if err != nil {
			fail(err)
		}
		return
	}

	if *bom {
		f, ok := sys.Concrete.(*topology.Fractahedron)
		if !ok {
			fmt.Fprintln(os.Stderr, "fractagen: -bom requires a fractahedron spec")
			os.Exit(2)
		}
		fmt.Print(topology.BOMString(f.CableBOM()))
		return
	}
	if *tableOut != "" {
		img := routing.CompileImage(sys.Tables)
		if err := routing.VerifyImage(img, sys.Tables); err != nil {
			fail(err)
		}
		out, err := os.Create(*tableOut)
		if err != nil {
			fail(err)
		}
		n, err := img.WriteTo(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d routing-table entries (%d bytes) to %s\n", img.Entries(), n, *tableOut)
		return
	}

	fmt.Printf("%s\n", name)
	fmt.Printf("  nodes=%d routers=%d links=%d channels=%d\n",
		sys.Net.NumNodes(), sys.Net.NumRouters(), sys.Net.NumLinks(), sys.Net.NumChannels())

	hops, err := metrics.Hops(sys.Tables)
	if err != nil {
		fail(err)
	}
	rep, err := deadlock.Analyze(sys.Tables)
	if err != nil {
		fail(err)
	}
	fmt.Printf("  routing: %s, %s\n", sys.Tables.Algorithm, hops)
	fmt.Printf("  deadlock: %s\n", rep)
	if !*noContention {
		c, err := sys.Contention()
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %s\n", c.String(sys.Net))
	}
	if !*noBisection {
		if b, err := sys.Bisection(); err != nil {
			fmt.Printf("  bisection bandwidth: none (%v)\n", err)
		} else {
			exact := "heuristic upper bound"
			if b.Exact {
				exact = "exact"
			}
			fmt.Printf("  bisection bandwidth: %d links (%s)\n", b.Cut, exact)
		}
	}
	enabled, disabled := sys.Disables.Counts()
	fmt.Printf("  path disables: %d turns enabled, %d disabled\n", enabled, disabled)
	cost := metrics.CostOf(sys.Net)
	fmt.Printf("  cost: %d routers (%0.3f per node), %d inter-router cables\n",
		cost.Routers, cost.RoutersPerNode, cost.InterRouter)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "fractagen: %v\n", err)
	os.Exit(1)
}
