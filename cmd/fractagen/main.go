// Command fractagen builds a topology from a spec string, validates it, and
// prints its figures of merit — or a Graphviz DOT rendering with -dot.
//
// Usage:
//
//	fractagen -spec fat-fract:levels=2 [-dot] [-no-contention] [-no-bisection]
//
// Spec grammar (see internal/core.ParseSystem):
//
//	fat-fract:levels=2[,fanout][,group=4][,down=2]
//	thin-fract:levels=3[,fanout]
//	fattree:d=4,u=2,nodes=64 | tree:d=4,nodes=16
//	mesh:cols=6,rows=6,nodes=2 | hypercube:dim=3[,updown]
//	ring:size=4[,unsafe] | fullmesh:m=4[,ports=6]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
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
		fmt.Fprintf(os.Stderr, "fractagen: %v\n", err)
		os.Exit(1)
	}
	if *dot {
		if err := sys.Net.WriteDOT(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "fractagen: %v\n", err)
			os.Exit(1)
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
			fmt.Fprintf(os.Stderr, "fractagen: %v\n", err)
			os.Exit(1)
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
			fmt.Fprintf(os.Stderr, "fractagen: %v\n", err)
			os.Exit(1)
		}
		out, err := os.Create(*tableOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fractagen: %v\n", err)
			os.Exit(1)
		}
		n, err := img.WriteTo(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fractagen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d routing-table entries (%d bytes) to %s\n", img.Entries(), n, *tableOut)
		return
	}

	fmt.Printf("%s\n", name)
	fmt.Printf("  nodes=%d routers=%d links=%d channels=%d\n",
		sys.Net.NumNodes(), sys.Net.NumRouters(), sys.Net.NumLinks(), sys.Net.NumChannels())

	a, err := sys.Analyze(core.AnalyzeOptions{
		SkipContention: *noContention,
		SkipBisection:  *noBisection,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fractagen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  routing: %s, %s\n", sys.Tables.Algorithm, a.Hops)
	fmt.Printf("  deadlock: %s\n", a.Deadlock)
	if !*noContention {
		fmt.Printf("  %s\n", a.Contention.String(sys.Net))
	}
	if !*noBisection {
		exact := "heuristic upper bound"
		if a.Bisection.Exact {
			exact = "exact"
		}
		fmt.Printf("  bisection bandwidth: %d links (%s)\n", a.Bisection.Cut, exact)
	}
	enabled, disabled := sys.Disables.Counts()
	fmt.Printf("  path disables: %d turns enabled, %d disabled\n", enabled, disabled)
	fmt.Printf("  cost: %d routers (%0.3f per node), %d inter-router cables\n",
		a.Cost.Routers, a.Cost.RoutersPerNode, a.Cost.InterRouter)
}
