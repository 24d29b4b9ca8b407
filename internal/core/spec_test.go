package core

import (
	"os"
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
