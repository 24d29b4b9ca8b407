package routing_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The reference analyses below are the per-pair route walks the sweep
// replaced: every ordered pair is routed with Tables.Route, source-major,
// and the first failure is returned as is.

// refTurns returns the (in, out) turns the routes take at each router.
func refTurns(t *routing.Tables) (map[topology.DeviceID]map[[2]int]bool, error) {
	used := make(map[topology.DeviceID]map[[2]int]bool)
	err := forEachRoute(t, func(r routing.Route) {
		for i := 1; i < len(r.Channels); i++ {
			at := t.Net.ChannelDst(r.Channels[i-1])
			if used[at.Device] == nil {
				used[at.Device] = make(map[[2]int]bool)
			}
			used[at.Device][[2]int{at.Port, t.Net.ChannelSrc(r.Channels[i]).Port}] = true
		}
	})
	return used, err
}

// refDeps returns the sorted distinct dependency edges, over (channel, VC)
// vertices when vc is set and over physical channels otherwise.
func refDeps(t *routing.Tables, vc bool) ([][2]int, error) {
	v := t.NumVC()
	seen := make(map[[2]int]bool)
	err := forEachRoute(t, func(r routing.Route) {
		for i := 1; i < len(r.Channels); i++ {
			a, b := int(r.Channels[i-1]), int(r.Channels[i])
			if vc {
				a, b = a*v+r.VCAt(i-1), b*v+r.VCAt(i)
			}
			seen[[2]int{a, b}] = true
		}
	})
	if err != nil {
		return nil, err
	}
	edges := make([][2]int, 0, len(seen))
	for e := range seen {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges, nil
}

func refHops(t *routing.Tables) (metrics.HopStats, error) {
	st := metrics.HopStats{Min: -1, Histogram: make(map[int]int)}
	total := 0
	err := forEachRoute(t, func(r routing.Route) {
		h := r.RouterHops()
		st.Histogram[h]++
		st.Pairs++
		total += h
		if st.Min < 0 || h < st.Min {
			st.Min = h
		}
		st.Max = max(st.Max, h)
	})
	if err != nil {
		return metrics.HopStats{}, err
	}
	if st.Pairs > 0 {
		st.Mean = float64(total) / float64(st.Pairs)
	}
	return st, nil
}

func forEachRoute(t *routing.Tables, visit func(routing.Route)) error {
	n := t.Net.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			r, err := t.Route(s, d)
			if err != nil {
				return err
			}
			visit(r)
		}
	}
	return nil
}

func edgesOf(g *graph.Digraph) [][2]int {
	var edges [][2]int
	for a := 0; a < g.N(); a++ {
		for _, b := range g.Out(a) {
			edges = append(edges, [2]int{a, b})
		}
	}
	return edges
}

// sweepSystems is every built-in system plus the VC dateline routings and
// the cyclic Figure 1 ring.
func sweepSystems(t testing.TB) map[string]*routing.Tables {
	t.Helper()
	systems := make(map[string]*routing.Tables)
	for _, spec := range append(core.BuiltinSpecs(), "ring:size=4,unsafe") {
		sys, _, err := core.ParseSystem(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		systems[spec] = sys.Tables
	}
	systems["ring-dateline"] = routing.RingDateline(topology.NewRing(4, 1))
	systems["torus-dateline"] = routing.TorusDateline(topology.NewTorus(4, 3, 1))
	return systems
}

// checkAgainstReference requires every sweep-backed analysis to equal its
// route-walk reference: the same result when every pair routes, and
// otherwise exactly Tables.Verify's error.
func checkAgainstReference(t *testing.T, name string, tb *routing.Tables) {
	t.Helper()
	if deps := tb.Sweep().Deps(); !slices.IsSortedFunc(deps, routing.CompareEdges) ||
		len(slices.Compact(slices.Clone(deps))) != len(deps) {
		t.Errorf("%s: Sweep.Deps is not strictly ascending", name)
	}
	verr := tb.Verify()
	sameErr := func(what string, err error) {
		t.Helper()
		if (err == nil) != (verr == nil) || (err != nil && err.Error() != verr.Error()) {
			t.Errorf("%s: %s error %v, Verify says %v", name, what, err, verr)
		}
	}

	_, aErr := deadlock.Analyze(tb)
	sameErr("Analyze", aErr)
	hops, hErr := metrics.Hops(tb)
	sameErr("Hops", hErr)
	if verr != nil {
		return
	}

	sw := tb.Sweep()
	used, _ := refTurns(tb)
	turns := 0
	for _, d := range tb.Net.Devices() {
		if d.Kind != topology.Router {
			continue
		}
		for in := 0; in < d.Ports; in++ {
			for out := 0; out < d.Ports; out++ {
				if got, want := sw.TurnUsed(d.ID, in, out), used[d.ID][[2]int{in, out}]; got != want {
					t.Errorf("%s: TurnUsed(%s, %d, %d) = %v, route walk %v", name, d.Name, in, out, got, want)
				}
			}
		}
		turns += len(used[d.ID])
	}
	if sw.NumTurns() != turns {
		t.Errorf("%s: NumTurns = %d, route walk %d", name, sw.NumTurns(), turns)
	}
	// With one VC every dependency is one turn at the router joining its
	// channels, and each used turn is one dependency: §2.4's disables
	// permit exactly the analyzed dependencies.
	if phys, _ := refDeps(tb, false); tb.NumVC() == 1 && len(phys) != turns {
		t.Errorf("%s: route walk has %d dependencies but %d turns", name, len(phys), turns)
	}
	want, _ := refDeps(tb, true)
	if !slices.Equal(sw.Deps(), want) {
		t.Errorf("%s: Sweep.Deps differs from the route walk", name)
	}
	if g := sw.CDG(); !slices.Equal(edgesOf(g), want) {
		t.Errorf("%s: Sweep.CDG has %d edges, route walk %d (or they differ)", name, g.M(), len(want))
	}
	if want, _ := refHops(tb); !reflect.DeepEqual(hops, want) {
		t.Errorf("%s: Hops = %+v, route walk %+v", name, hops, want)
	}
	n := tb.Net.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			r, _ := tb.Route(s, d)
			if got := sw.Hops(s, d); got != r.RouterHops() {
				t.Fatalf("%s: Sweep.Hops(%d, %d) = %d, Route takes %d", name, s, d, got, r.RouterHops())
			}
		}
	}
}

// UpDownGeneric matches its per-destination reference entry for entry on
// every built-in network below level 3, rooted at the lowest-numbered
// router (as the fabric verifier roots degraded fabrics) and at the
// highest.
func TestUpDownGenericMatchesReferenceOnBuiltins(t *testing.T) {
	for _, spec := range core.BuiltinSpecs() {
		if strings.Contains(spec, "levels=3") {
			continue
		}
		sys, _, err := core.ParseSystem(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		net := sys.Net
		var routers []topology.DeviceID
		for _, d := range net.Devices() {
			if d.Kind == topology.Router {
				routers = append(routers, d.ID)
			}
		}
		for _, root := range []topology.DeviceID{routers[0], routers[len(routers)-1]} {
			got, want := routing.UpDownGeneric(net, root), routing.RefUpDownGeneric(net, root)
			for _, r := range routers {
				for dst := 0; dst < net.NumNodes(); dst++ {
					if g, w := got.OutPort(r, dst), want.OutPort(r, dst); g != w {
						t.Fatalf("%s rooted at %d: entry (%d, %d) = %d, reference %d", spec, root, r, dst, g, w)
					}
				}
			}
		}
	}
}

func TestSweepMatchesRouteWalk(t *testing.T) {
	for name, tb := range sweepSystems(t) {
		if testing.Short() && tb.Net.NumNodes() > 64 {
			continue
		}
		checkAgainstReference(t, name, tb)
	}
}

// The sweep memoizes per destination, so a failing pair's reason is the
// one its first router's in-tree walk found; every failing pair is listed,
// in (dst, src) order.
func TestSweepFailuresInDstSrcOrder(t *testing.T) {
	sys, _, err := core.ParseSystem("fat-fract:levels=1")
	if err != nil {
		t.Fatal(err)
	}
	tb := sys.Tables
	r := tb.Net.ChannelDst(mustChannel(t, tb.Net, tb.Net.NodeByIndex(0), 0)).Device
	tb.SetOutPort(r, 5, -1)
	sw := tb.Sweep()
	if len(sw.Failures) == 0 || sw.Reached()+len(sw.Failures) != sw.Pairs() {
		t.Fatalf("failures %d, reached %d of %d", len(sw.Failures), sw.Reached(), sw.Pairs())
	}
	for i, f := range sw.Failures {
		if f.Dst != 5 || sw.Hops(f.Src, f.Dst) != -1 {
			t.Errorf("failure %d = %+v, want a pair toward 5 with no hops", i, f)
		}
		if i > 0 && f.Src <= sw.Failures[i-1].Src {
			t.Errorf("failures out of order: %+v after %+v", f, sw.Failures[i-1])
		}
	}
	if sw.Err() == nil || sw.Err().Error() != tb.Verify().Error() {
		t.Errorf("Err = %v, Verify = %v", sw.Err(), tb.Verify())
	}
}

func mustChannel(t testing.TB, net *topology.Network, dev topology.DeviceID, port int) topology.ChannelID {
	t.Helper()
	ch, ok := net.ChannelFromPort(dev, port)
	if !ok {
		t.Fatalf("device %d port %d unwired", dev, port)
	}
	return ch
}

// On a broken table every all-pairs analysis fails with Verify's error,
// whatever the scheduler: the error names the first failing pair in source
// order, never a worker.
func TestBrokenTableErrorIndependentOfGOMAXPROCS(t *testing.T) {
	sys, _, err := core.ParseSystem("fat-fract:levels=2")
	if err != nil {
		t.Fatal(err)
	}
	tb := sys.Tables
	net := tb.Net
	// Holes for destinations 1 and 60 at one level-1 router. A source-
	// striped worker pool reports the first failing stripe, which here is
	// worker 0 at GOMAXPROCS 1 and 2 but worker 2 at GOMAXPROCS 4.
	holed := false
	for _, d := range net.Devices() {
		if d.Name == "L1.e0.l0.r1" {
			tb.SetOutPort(d.ID, 1, -1)
			tb.SetOutPort(d.ID, 60, -1)
			holed = true
		}
	}
	if !holed {
		t.Fatal("router L1.e0.l0.r1 not found")
	}
	want := tb.Verify()
	if want == nil {
		t.Fatal("holed tables verify")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		_, aErr := deadlock.Analyze(tb)
		_, hErr := metrics.Hops(tb)
		_, cErr := contention.MaxLinkContention(tb)
		_, uErr := contention.Utilization(tb)
		for what, err := range map[string]error{"Analyze": aErr, "Hops": hErr,
			"MaxLinkContention": cErr, "Utilization": uErr} {
			if err == nil || err.Error() != want.Error() {
				t.Errorf("GOMAXPROCS %d: %s error %q, want Verify's %q", procs, what, err, want)
			}
		}
	}
}

// FuzzSweepVsRoute mutates up to two table entries — a hole, an unwired or
// wrong port, or a port that loops back — and requires the sweep-backed
// analyses to agree with the route walk: equal outputs whenever Verify
// passes, Verify's error whenever it fails.
func FuzzSweepVsRoute(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), int8(-1), uint8(3), uint8(2), int8(0))
	f.Add(uint8(1), uint8(2), uint8(5), int8(4), uint8(0), uint8(0), int8(-1))
	f.Add(uint8(2), uint8(1), uint8(0), int8(1), uint8(1), uint8(3), int8(0))
	f.Add(uint8(3), uint8(3), uint8(2), int8(5), uint8(2), uint8(7), int8(2))
	f.Add(uint8(4), uint8(0), uint8(3), int8(0), uint8(1), uint8(1), int8(1))
	specs := []string{"fat-fract:levels=1", "mesh:cols=4,rows=4,nodes=2", "ring:size=6", "hypercube:dim=3,updown", "ring-dateline"}
	f.Fuzz(func(t *testing.T, specSel, r1, d1 uint8, p1 int8, r2, d2 uint8, p2 int8) {
		spec := specs[int(specSel)%len(specs)]
		var tb *routing.Tables
		if spec == "ring-dateline" {
			tb = routing.RingDateline(topology.NewRing(4, 1))
		} else {
			sys, _, err := core.ParseSystem(spec)
			if err != nil {
				t.Fatal(err)
			}
			tb = sys.Tables
		}
		net := tb.Net
		var routers []topology.DeviceID
		for _, d := range net.Devices() {
			if d.Kind == topology.Router {
				routers = append(routers, d.ID)
			}
		}
		mutate := func(rs, ds uint8, p int8) {
			r := routers[int(rs)%len(routers)]
			// Ports stay in [-1, Ports): Route, like the table hardware,
			// has no out-of-range entries to walk.
			port := int(p)%(net.Device(r).Ports+1) - 1
			if port < -1 {
				port += net.Device(r).Ports + 1
			}
			tb.SetOutPort(r, int(ds)%net.NumNodes(), port)
		}
		mutate(r1, d1, p1)
		mutate(r2, d2, p2)
		checkAgainstReference(t, spec, tb)
	})
}

// A sweep is memoized per table state: repeated calls share one result,
// any write drops it (even one that leaves the entry as it was), and
// concurrent callers on shared tables all get the same sweep.
func TestSweepMemo(t *testing.T) {
	sys, _, err := core.ParseSystem("fat-fract:levels=1")
	if err != nil {
		t.Fatal(err)
	}
	tb := sys.Tables
	r := tb.Net.ChannelDst(mustChannel(t, tb.Net, tb.Net.NodeByIndex(0), 0)).Device
	sw := tb.Sweep()
	if tb.Sweep() != sw {
		t.Fatal("a second Sweep with no table change swept again")
	}
	port := tb.OutPort(r, 5)
	tb.SetOutPort(r, 5, port)
	same := tb.Sweep()
	if same == sw {
		t.Fatal("Sweep after SetOutPort returned the stale sweep")
	}
	tb.SetOutPort(r, 5, -1)
	if holed := tb.Sweep(); holed == same || len(holed.Failures) == 0 {
		t.Fatalf("Sweep after a hole: %d failures", len(holed.Failures))
	}

	// With the memo dropped, the goroutines race to compute it.
	tb.SetOutPort(r, 5, port)
	got := make([]*routing.PairSweep, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = tb.Sweep()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != got[0] {
			t.Errorf("goroutine %d got a different sweep", i)
		}
	}
	if len(got[0].Failures) != 0 {
		t.Errorf("restored tables sweep with %d failures", len(got[0].Failures))
	}
}

// nextHops routes src -> dst by Tables.Next alone, which, unlike Route,
// never panics on an out-of-range port: the router hops, or -1 and the
// failing step's error.
func nextHops(tb *routing.Tables, src, dst int) (int, error) {
	net := tb.Net
	cur, dstDev := net.NodeByIndex(src), net.NodeByIndex(dst)
	for hops := 0; hops <= net.NumDevices(); hops++ {
		ch, _, err := tb.Next(cur, dst)
		if err != nil {
			return -1, err
		}
		if cur = net.ChannelDst(ch).Device; cur == dstDev {
			return hops, nil
		}
		if net.Device(cur).Kind != topology.Router {
			return -1, fmt.Errorf("walk enters foreign end node %s", net.Device(cur).Name)
		}
	}
	return -1, fmt.Errorf("routing loop")
}

// Any int a table entry is set to reads back through OutPort, whether it
// is stored in the entry's byte or escaped, and the sweep agrees with
// Next's walk on it; where Route can walk the value, Sweep.Err is exactly
// Verify's error.
func TestOutPortEncodingRoundTrip(t *testing.T) {
	sys, _, err := core.ParseSystem("fat-fract:levels=1")
	if err != nil {
		t.Fatal(err)
	}
	tb := sys.Tables
	net := tb.Net
	const dst = 5
	r := tb.Net.ChannelDst(mustChannel(t, net, net.NodeByIndex(0), 0)).Device
	ports := net.Device(r).Ports

	// FuzzSweepVsRoute's [-1, Ports), the byte-encoding edges, and every
	// int16 FuzzMutatedTetra can write.
	var values []int
	for p := -1; p < ports; p++ {
		values = append(values, p)
	}
	values = append(values, -2, 252, 253, 254, 255, 1<<20, math.MinInt32)
	for p := math.MinInt16; p <= math.MaxInt16; p++ {
		values = append(values, p)
	}
	for _, v := range values {
		tb.SetOutPort(r, dst, v)
		if got := tb.OutPort(r, dst); got != v {
			t.Fatalf("SetOutPort(%d) reads back %d", v, got)
		}
		sw := tb.Sweep()
		for s := 0; s < net.NumNodes(); s++ {
			if s == dst {
				continue
			}
			want, werr := nextHops(tb, s, dst)
			if got := sw.Hops(s, dst); got != want {
				t.Fatalf("port %d: Sweep.Hops(%d, %d) = %d, Next's walk %d (%v)", v, s, dst, got, want, werr)
			}
		}
		if sw.Reached()+len(sw.Failures) != sw.Pairs() {
			t.Fatalf("port %d: %d reached + %d failures != %d pairs", v, sw.Reached(), len(sw.Failures), sw.Pairs())
		}
		if v < ports {
			if err, verr := sw.Err(), tb.Verify(); (err == nil) != (verr == nil) ||
				(err != nil && err.Error() != verr.Error()) {
				t.Fatalf("port %d: Sweep.Err %v, Verify %v", v, err, verr)
			}
		}
	}
}

// End nodes have no table, and an out-of-range destination panics rather
// than reading or writing another router's entry.
func TestOutPortBounds(t *testing.T) {
	sys, _, err := core.ParseSystem("fat-fract:levels=1")
	if err != nil {
		t.Fatal(err)
	}
	tb := sys.Tables
	net := tb.Net
	var routers []topology.DeviceID
	for _, d := range net.Devices() {
		if d.Kind == topology.Router {
			routers = append(routers, d.ID)
		}
	}
	entries := func() []int {
		var e []int
		for _, r := range routers {
			for dst := 0; dst < net.NumNodes(); dst++ {
				e = append(e, tb.OutPort(r, dst))
			}
		}
		return e
	}
	before := entries()
	panics := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), want) {
				t.Errorf("%s: panic %v, want one containing %q", what, p, want)
			}
		}()
		f()
	}
	panics("OutPort on an end node", "has no table", func() { tb.OutPort(net.NodeByIndex(0), 0) })
	panics("SetOutPort on an end node", "has no table", func() { tb.SetOutPort(net.NodeByIndex(0), 0, 1) })
	for _, r := range routers {
		for _, dst := range []int{-1, net.NumNodes(), -net.NumNodes()} {
			panics("OutPort", "out of range", func() { tb.OutPort(r, dst) })
			panics("SetOutPort", "out of range", func() { tb.SetOutPort(r, dst, 1) })
		}
	}
	if !slices.Equal(entries(), before) {
		t.Error("an out-of-range write changed some entry")
	}
}

// BenchmarkSweep measures the all-pairs sweep of the 512-CPU level-3 fat
// fractahedron (261,632 ordered pairs), including the dependency list a
// CDG is built from: cold, with the memo dropped by rewriting one entry
// before each sweep, and memoized.
func BenchmarkSweep(b *testing.B) {
	tb := routing.Fractahedron(topology.NewFractahedron(topology.Tetra(3, true)))
	r := tb.Net.ChannelDst(mustChannel(b, tb.Net, tb.Net.NodeByIndex(0), 0)).Device
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb.SetOutPort(r, 0, tb.OutPort(r, 0))
			sw := tb.Sweep()
			if sw.Err() != nil || len(sw.Deps()) == 0 {
				b.Fatal(sw.Err())
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		tb.Sweep()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sw := tb.Sweep(); sw.Err() != nil {
				b.Fatal(sw.Err())
			}
		}
	})
}
