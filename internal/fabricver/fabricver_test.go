package fabricver

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// faultBudget gates full single-fault enumeration in tests: specs beyond
// this many faults (links + routers) are verified with SkipFaults here and
// covered by `make verify-fabric` / CI running the compiled binary over
// the full matrix.
const faultBudget = 250

// TestAllBuiltinSpecs proves the full verification matrix: every built-in
// topology × routing pair must certify — consistent tables, acyclic CDG,
// all-pairs reachability within the analytical hop bound, exact disables —
// and, for the specs within the fault budget, survive every single link
// and router failure.
func TestAllBuiltinSpecs(t *testing.T) {
	for _, spec := range core.BuiltinSpecs() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			sys, _, err := core.ParseSystem(spec)
			if err != nil {
				t.Fatalf("ParseSystem: %v", err)
			}
			opt := Options{Workers: 2}
			if sys.Net.NumLinks()+sys.Net.NumRouters() > faultBudget {
				opt.SkipFaults = true
			}
			cert := Verify(sys, spec, opt)
			if !cert.OK {
				t.Fatalf("spec not certified; violations: %v", cert.Violations)
			}
			if !cert.Tables.OK || !cert.CDG.Acyclic || !cert.Reach.OK || !cert.Disables.OK {
				t.Fatalf("check flags inconsistent with OK: %+v", cert)
			}
			if cert.Reach.MaxHops > cert.HopBound {
				t.Fatalf("max hops %d exceeds analytical bound %d (%s)",
					cert.Reach.MaxHops, cert.HopBound, cert.HopBoundRule)
			}
			if cert.CDG.CertificateSize != cert.CDG.Vertices {
				t.Fatalf("acyclic verdict covers %d of %d vertices",
					cert.CDG.CertificateSize, cert.CDG.Vertices)
			}
			if !opt.SkipFaults {
				if cert.Faults == nil || !cert.Faults.OK {
					t.Fatalf("fault enumeration failed: %+v", cert.Faults)
				}
				if cert.Faults.LinkFaults.Tried != sys.Net.NumLinks() ||
					cert.Faults.RouterFaults.Tried != sys.Net.NumRouters() {
					t.Fatalf("fault coverage %d links + %d routers, want %d + %d",
						cert.Faults.LinkFaults.Tried, cert.Faults.RouterFaults.Tried,
						sys.Net.NumLinks(), sys.Net.NumRouters())
				}
			}
		})
	}
}

// TestUnsafeRingCounterexample drives the verifier into the deliberately
// cyclic routing the paper warns about (a clockwise ring with no dateline)
// and demands the minimal 4-channel dependency cycle as counterexample.
func TestUnsafeRingCounterexample(t *testing.T) {
	cert, err := VerifySpec("ring:size=4,unsafe", Options{Workers: 2})
	if err != nil {
		t.Fatalf("VerifySpec: %v", err)
	}
	if cert.OK {
		t.Fatal("unsafe ring certified; want a CDG violation")
	}
	if cert.CDG.Acyclic || cert.CDG.CertificateSize != 0 {
		t.Fatalf("CDG check did not flag the cycle: %+v", cert.CDG)
	}
	if len(cert.CDG.MinimalCycle) != 4 {
		t.Fatalf("minimal cycle has %d channels, want 4: %v", len(cert.CDG.MinimalCycle), cert.CDG.MinimalCycle)
	}
	var hasCDG bool
	for _, v := range cert.Violations {
		if v.Check == "cdg" && strings.Contains(v.Detail, "minimal cycle (4 channels)") {
			hasCDG = true
		}
	}
	if !hasCDG {
		t.Fatalf("no cdg violation with the minimal cycle: %v", cert.Violations)
	}
	// The ring's tables are consistent and every pair reaches — only the
	// dependency structure is broken, and the checks must stay separable.
	if !cert.Tables.OK || !cert.Reach.OK {
		t.Fatalf("unrelated checks failed: tables=%+v reach=%+v", cert.Tables, cert.Reach)
	}
	if _, err := MarshalCertificate(cert); err != nil {
		t.Fatalf("violating certificate fails to marshal: %v", err)
	}
}

// TestMutatedTableHole verifies the table-consistency counterexample: a
// hole (-1 entry) becomes a dead entry with a rendered violation, and the
// verifier reports rather than panics.
func TestMutatedTableHole(t *testing.T) {
	sys, _, err := core.ParseSystem("fat-fract:levels=1")
	if err != nil {
		t.Fatal(err)
	}
	var router = firstRouter(t, sys)
	sys.Tables.SetOutPort(router, 2, -1)
	cert := Verify(sys, "fat-fract:levels=1 (hole)", Options{SkipFaults: true})
	if cert.OK {
		t.Fatal("corrupted tables certified")
	}
	if cert.Tables.OK || cert.Tables.Dead == 0 {
		t.Fatalf("hole not classified as dead entry: %+v", cert.Tables)
	}
	if !hasViolation(cert, "tables", "table hole") {
		t.Fatalf("no table-hole violation: %v", cert.Violations)
	}
}

// TestMutatedTableLoop verifies the looping-entry counterexample: a router
// that bounces a destination between neighbors must be reported as a loop
// and as unreachable pairs, never as a hang or panic.
func TestMutatedTableLoop(t *testing.T) {
	sys, _, err := core.ParseSystem("fat-fract:levels=1")
	if err != nil {
		t.Fatal(err)
	}
	// Point every router's entry for destination 0 at a router-to-router
	// port, chosen so the walk never ejects: with all entries diverted off
	// the node ports, destination 0 becomes unreachable and some walk
	// revisits a router.
	net := sys.Net
	for _, d := range net.Devices() {
		if !isRouter(net, d.ID) {
			continue
		}
		p := firstRouterPort(t, sys, d.ID)
		sys.Tables.SetOutPort(d.ID, 0, p)
	}
	cert := Verify(sys, "fat-fract:levels=1 (loop)", Options{SkipFaults: true})
	if cert.OK {
		t.Fatal("looping tables certified")
	}
	if cert.Tables.Loops == 0 {
		t.Fatalf("no looping entries classified: %+v", cert.Tables)
	}
	if !hasViolation(cert, "tables", "revisits") {
		t.Fatalf("no loop violation: %v", cert.Violations)
	}
}

// TestMutatedTableUnreachable verifies the reachability counterexample
// path: divert one router's entry so it ejects into the wrong end node.
func TestMutatedTableUnreachable(t *testing.T) {
	sys, _, err := core.ParseSystem("fat-fract:levels=1")
	if err != nil {
		t.Fatal(err)
	}
	net := sys.Net
	// Find a router entry for a destination NOT attached to it, and point
	// it at one of its own node ports: the walk ejects at the wrong node.
	var mutated bool
	for _, d := range net.Devices() {
		if !isRouter(net, d.ID) || mutated {
			continue
		}
		for p := 0; p < d.Ports; p++ {
			ch, ok := net.ChannelFromPort(d.ID, p)
			if !ok {
				continue
			}
			far := net.ChannelDst(ch).Device
			if isRouter(net, far) {
				continue
			}
			for dst := 0; dst < net.NumNodes(); dst++ {
				if net.NodeByIndex(dst) != far {
					sys.Tables.SetOutPort(d.ID, dst, p)
					mutated = true
					break
				}
			}
			break
		}
	}
	if !mutated {
		t.Fatal("could not construct the wrong-node mutation")
	}
	cert := Verify(sys, "fat-fract:levels=1 (wrong node)", Options{SkipFaults: true})
	if cert.OK {
		t.Fatal("mis-ejecting tables certified")
	}
	if !hasViolation(cert, "tables", "wrong end node") {
		t.Fatalf("no wrong-node violation: %v", cert.Violations)
	}
}

// TestTetrahedronFaultAccounting pins the exact single-fault arithmetic on
// the level-1 fat fractahedron (the paper's tetrahedron with doubled
// links): 14 links + 4 routers, all survived; the 8 node-injection links
// each sever one node (14 ordered pairs), the 6 inter-router links sever
// nothing; each router failure severs its 2 nodes (26 ordered pairs).
func TestTetrahedronFaultAccounting(t *testing.T) {
	cert, err := VerifySpec("fat-fract:levels=1", Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.OK || cert.Faults == nil {
		t.Fatalf("not certified: %+v", cert.Violations)
	}
	f := cert.Faults
	if f.LinkFaults.Tried != 14 || f.LinkFaults.Survived != 14 || f.LinkFaults.SeveredPairs != 8*14 {
		t.Fatalf("link faults = %+v, want 14 tried, 14 survived, 112 severed", f.LinkFaults)
	}
	if f.RouterFaults.Tried != 4 || f.RouterFaults.Survived != 4 || f.RouterFaults.SeveredPairs != 4*26 {
		t.Fatalf("router faults = %+v, want 4 tried, 4 survived, 104 severed", f.RouterFaults)
	}
}

func hasViolation(c Certificate, check, substr string) bool {
	for _, v := range c.Violations {
		if v.Check == check && strings.Contains(v.Detail, substr) {
			return true
		}
	}
	return false
}

func isRouter(net *topology.Network, id topology.DeviceID) bool {
	return net.Device(id).Kind == topology.Router
}

func firstRouter(t testing.TB, sys *core.System) topology.DeviceID {
	t.Helper()
	for _, d := range sys.Net.Devices() {
		if isRouter(sys.Net, d.ID) {
			return d.ID
		}
	}
	t.Fatal("no router in system")
	return 0
}

// firstRouterPort returns a port of the router wired to another router.
func firstRouterPort(t *testing.T, sys *core.System, r topology.DeviceID) int {
	t.Helper()
	net := sys.Net
	for p := 0; p < net.Device(r).Ports; p++ {
		ch, ok := net.ChannelFromPort(r, p)
		if !ok {
			continue
		}
		if isRouter(net, net.ChannelDst(ch).Device) {
			return p
		}
	}
	t.Fatalf("router %d has no router-to-router port", r)
	return -1
}

// BenchmarkCheckFault measures one single-fault re-proof of the two-level
// fat fractahedron — the degraded fabric rebuilt, re-routed up*/down*,
// swept and checked — for an inter-router link fault and for a fault of
// the lowest-numbered router (the up*/down* root of the intact fabric).
func BenchmarkCheckFault(b *testing.B) {
	sys, _, err := core.ParseSystem("fat-fract:levels=2")
	if err != nil {
		b.Fatal(err)
	}
	net := sys.Net
	var link topology.LinkID = -1
	for _, l := range net.Links() {
		if isRouter(net, l.A.Device) && isRouter(net, l.B.Device) {
			link = l.ID
			break
		}
	}
	router := firstRouter(b, sys)
	for _, f := range []struct {
		name string
		link topology.LinkID
		dev  topology.DeviceID
	}{{"link", link, -1}, {"router", -1, router}} {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if ok, _, v := checkFault(net, f.link, f.dev, f.name+" down"); !ok {
					b.Fatal(v)
				}
			}
		})
	}
}

// BenchmarkEnumerateFaults measures the whole single-fault enumeration of
// the two-level fat fractahedron with fan-out: all 408 link and router
// faults re-proved on one worker, so the number is the fault layer's CPU
// cost with no scheduling in it.
func BenchmarkEnumerateFaults(b *testing.B) {
	sys, _, err := core.ParseSystem("fat-fract:levels=2,fanout")
	if err != nil {
		b.Fatal(err)
	}
	violate := func(check, format string, args ...any) {
		b.Fatalf("%s: "+format, append([]any{check}, args...)...)
	}
	b.ReportAllocs()
	for range b.N {
		fc := enumerateFaults(sys.Net, 1, violate)
		if tried := fc.LinkFaults.Tried + fc.RouterFaults.Tried; !fc.OK || tried != 408 {
			b.Fatalf("%d faults tried, ok=%v", tried, fc.OK)
		}
	}
}

// BenchmarkVerifySpec measures the static certification of the 4096-node
// level-4 fat fractahedron: build, table consistency, the all-pairs sweep,
// CDG acyclicity, reachability and disables, without the fault
// enumeration. It is the largest fabric any built-in check reaches.
func BenchmarkVerifySpec(b *testing.B) {
	const spec = "fat-fract:levels=4"
	b.Run(spec, func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			cert, err := VerifySpec(spec, Options{SkipFaults: true})
			if err != nil {
				b.Fatal(err)
			}
			if !cert.OK {
				b.Fatal(cert.Violations)
			}
		}
	})
}
