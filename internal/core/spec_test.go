package core

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestParseSystemKinds(t *testing.T) {
	cases := []struct {
		spec    string
		nodes   int
		routers int
	}{
		{"fat-fract:levels=2", 64, 48},
		{"thin-fract:levels=2", 64, 36},
		{"fat-fract:levels=1,fanout", 16, 12},
		{"fat-fract:levels=2,group=3", 36, 27},
		{"fattree:d=4,u=2,nodes=64", 64, 28},
		{"fattree:d=3,u=3,nodes=64", 64, 100},
		{"fattree:d=4,u=2,nodes=23", 23, 14},
		{"fattree:d=4,u=2", 64, 28},
		{"tree:d=4", 16, 5},
		{"tree:d=4,nodes=16", 16, 5},
		{"mesh:cols=3,rows=3,nodes=1", 9, 9},
		{"hypercube:dim=3", 8, 8},
		{"hypercube:dim=3,updown", 8, 8},
		{"ring:size=5", 5, 5},
		{"fullmesh:m=4", 12, 4},
	}
	for _, c := range cases {
		sys, name, err := ParseSystem(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if name == "" {
			t.Errorf("%s: empty name", c.spec)
		}
		if sys.Net.NumNodes() != c.nodes || sys.Net.NumRouters() != c.routers {
			t.Errorf("%s: nodes=%d routers=%d, want %d/%d",
				c.spec, sys.Net.NumNodes(), sys.Net.NumRouters(), c.nodes, c.routers)
		}
	}
}

func TestParseSystemRejects(t *testing.T) {
	for _, spec := range []string{
		"",
		"nosuch:levels=2",
		"fat-fract:levels=2,bogus=1",
		"mesh:cols=x",
		"ring:size=4,unsafe,extra",
		// Out-of-range builder parameters: the builders panic, ParseSystem
		// returns an error.
		"mesh:cols=0",
		"fat-fract:levels=0",
		"ring:size=2",
		"ccc:dim=1",
		"tree:d=1", // used to loop forever looking for a tree height
	} {
		if _, _, err := ParseSystem(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestParseSystemUnknownKeyFirst pins the order of the checks: an unknown
// key is reported before the builder sees its out-of-range arguments.
func TestParseSystemUnknownKeyFirst(t *testing.T) {
	_, _, err := ParseSystem("ring:size=1,bogus=1")
	if err == nil || !strings.Contains(err.Error(), `unknown option "bogus"`) {
		t.Fatalf("err = %v, want unknown option \"bogus\"", err)
	}
}

func TestParseSystemUnsafeRing(t *testing.T) {
	sys, _, err := ParseSystem("ring:size=4,unsafe")
	if err != nil {
		t.Fatal(err)
	}
	if sys.Tables.Algorithm != "ring-cw" {
		t.Errorf("algorithm = %s, want ring-cw", sys.Tables.Algorithm)
	}
}

func TestParseSystemFromFile(t *testing.T) {
	path := t.TempDir() + "/net.topo"
	topo := "router a 4\nrouter b 4\nnode n0\nnode n1\nlink a b\nlink a n0\nlink b n1\n"
	if err := os.WriteFile(path, []byte(topo), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, name, err := ParseSystem("file:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if name != path || sys.Net.NumNodes() != 2 {
		t.Errorf("name=%q nodes=%d", name, sys.Net.NumNodes())
	}
	if err := sys.Tables.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParseSystem("file:/nonexistent/zzz"); err == nil {
		t.Error("missing file accepted")
	}
	// A file with only nodes fails cleanly (no routers, disconnected).
	bad := t.TempDir() + "/bad.topo"
	if err := os.WriteFile(bad, []byte("node n0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParseSystem("file:" + bad); err == nil {
		t.Error("router-less file accepted")
	}
}

func TestThinFractahedronConstructor(t *testing.T) {
	sys, f, err := NewThinFractahedron(2)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRouters() != 36 || sys.Tables.Algorithm != "fractahedron-thin" {
		t.Errorf("routers=%d alg=%s", f.NumRouters(), sys.Tables.Algorithm)
	}
}

// SpecDevices counts exactly the devices a spec builds, for every
// built-in spec and the kinds' other shapes; populate= makes it an upper
// bound. Absurd arguments saturate, and specs ParseSystem refuses for
// their kind or keys are refused the same way.
func TestSpecDevices(t *testing.T) {
	specs := append(BuiltinSpecs(),
		"fat-fract:levels=1,fanout-depth=2", "thin-fract:levels=2,fanout", "fat-fract:levels=2,down=3",
		"fattree:d=2,u=3,nodes=9", "fattree:d=4,u=2,nodes=1", "tree:d=3,nodes=28",
		"mesh:cols=3,rows=2,nodes=0", "hypercube:dim=2,nodes=3", "ring:size=7,nodes=2",
		"fullmesh:m=3,ports=3", "ccc:dim=4", "shuffle:dim=3", "ring:size=4,unsafe")
	for _, spec := range specs {
		sys, _, err := ParseSystem(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		n, err := SpecDevices(spec)
		built := sys.Net.NumDevices()
		switch {
		case err != nil:
			t.Errorf("%s: %v", spec, err)
		case strings.Contains(spec, "populate=") && n < built:
			t.Errorf("%s: SpecDevices %d below the %d built", spec, n, built)
		case !strings.Contains(spec, "populate=") && n != built:
			t.Errorf("%s: SpecDevices %d, built %d", spec, n, built)
		}
	}
	for _, spec := range []string{"fat-fract:levels=100000", "hypercube:dim=100000,nodes=5", "ccc:dim=1000",
		"fattree:d=2,u=100,nodes=100000000", "ring:size=100000000000,nodes=100000000000"} {
		if n, err := SpecDevices(spec); err != nil || n != math.MaxInt32 {
			t.Errorf("%s: SpecDevices = %d, %v; want it saturated", spec, n, err)
		}
	}
	for _, spec := range []string{"", "nosuch:levels=2", "fat-fract:levels=2,bogus=1", "file:net.topo"} {
		if _, err := SpecDevices(spec); err == nil {
			t.Errorf("SpecDevices(%q) succeeded", spec)
		}
	}
}
