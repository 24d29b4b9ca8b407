package fabricver

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// FuzzMutatedTetra drives the verifier's never-panic contract: arbitrary
// single-entry corruptions of the tetrahedron's routing tables — holes,
// out-of-range ports, self-loops, mis-ejections — must always yield a
// certificate that either passes every check or carries a concrete
// counterexample, and the two outcomes must agree with the OK flag. This
// is the fuzzing face of §2.4: the paper's hardware survives corrupted
// tables by path-disables; the verifier must survive them by diagnosis.
func FuzzMutatedTetra(f *testing.F) {
	f.Add(uint8(0), uint8(0), int16(-1))
	f.Add(uint8(1), uint8(3), int16(99))
	f.Add(uint8(2), uint8(5), int16(0))
	f.Add(uint8(3), uint8(7), int16(5))
	f.Fuzz(func(t *testing.T, routerSel, dstSel uint8, port int16) {
		sys, _, err := core.ParseSystem("fat-fract:levels=1")
		if err != nil {
			t.Fatal(err)
		}
		net := sys.Net
		var routers []topology.DeviceID
		for _, d := range net.Devices() {
			if d.Kind == topology.Router {
				routers = append(routers, d.ID)
			}
		}
		r := routers[int(routerSel)%len(routers)]
		dst := int(dstSel) % net.NumNodes()
		sys.Tables.SetOutPort(r, dst, int(port))

		checkTablesAgree(t, "fuzz", sys.Tables, 1+int(port)&7)
		cert := Verify(sys, "fuzz", Options{Workers: 1})
		if cert.OK != (len(cert.Violations) == 0) {
			t.Fatalf("OK=%v but %d violations", cert.OK, len(cert.Violations))
		}
		if !cert.Tables.OK && cert.OK {
			t.Fatal("bad tables but certificate OK")
		}
		if _, err := MarshalCertificate(cert); err != nil {
			t.Fatalf("certificate does not marshal: %v", err)
		}
	})
}

// FuzzFileTopology drives the file: spec end to end: arbitrary bytes are
// written as a topology file, parsed by topology.Parse, routed up*/down*
// from the first router, and verified with the single-fault enumeration
// on. Each input must either fail with a clean parse error or certify, and
// nothing may panic. Up*/down* is deadlock-free and connects every
// connected topology, so a parsed file that fails certification is a
// finding about the verifier or the router, not an input to skip.
func FuzzFileTopology(f *testing.F) {
	for _, seed := range []string{
		"router a 4\nrouter b 4\nnode n0\nnode n1\nlink a b\nlink a n0\nlink b n1\n",
		// A ring of three routers: link faults reroute, router faults sever.
		"router a 3\nrouter b 3\nrouter c 3\nnode x\nnode y\nnode z\n" +
			"link a b\nlink b c\nlink c a\nlink a x\nlink b y\nlink c z\n",
		// Parallel links and explicit ports.
		"router a 4\nrouter b 4\nnode n0\nnode n1\nlink a:0 b:0\nlink a:1 b:1\nlink a:3 n0\nlink b:3 n1\n",
		"# only a node\nnode n0\n",
		"router a 2\nlink a a\n",
		"link x y\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound sizes so the fuzzer explores structure, not memory: a
		// 1024-port router alone carries a million-entry disable matrix.
		if len(data) > 512 {
			return
		}
		num := 0
		for _, c := range data {
			if c < '0' || c > '9' {
				num = 0
				continue
			}
			if num = num*10 + int(c-'0'); num > 64 {
				return
			}
		}
		path := filepath.Join(t.TempDir(), "fuzz.topo")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		spec := "file:" + path
		sys, _, err := core.ParseSystem(spec)
		if err != nil {
			return
		}
		cert := Verify(sys, spec, Options{Workers: 1})
		if !cert.OK {
			t.Fatalf("parsed topology not certified:\n%s\nviolations: %v", data, cert.Violations)
		}
		if _, err := MarshalCertificate(cert); err != nil {
			t.Fatalf("certificate does not marshal: %v", err)
		}
	})
}
