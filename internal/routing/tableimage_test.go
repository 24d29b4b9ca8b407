package routing_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Every built-in system below level 3 compiles to an image that answers
// each lookup as its tables do.
func TestImageMatchesTables(t *testing.T) {
	for _, spec := range core.BuiltinSpecs() {
		if strings.Contains(spec, "levels=3") {
			continue
		}
		sys, _, err := core.ParseSystem(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		tb := sys.Tables
		img := routing.CompileImage(tb)
		if err := routing.VerifyImage(img, tb); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		// Entries equal the sum of per-router region counts from RegionSizes.
		if img.Entries() != tb.RegionSizes().Total {
			t.Errorf("%s: entries = %d, want %d", spec, img.Entries(), tb.RegionSizes().Total)
		}
	}
}

func TestImageRoundTrip(t *testing.T) {
	ft := topology.NewFatTree(4, 2, 64)
	tb := routing.FatTree(ft)
	img := routing.CompileImage(tb)

	var buf bytes.Buffer
	n, err := img.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := routing.ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != img.Algorithm || back.Nodes != img.Nodes {
		t.Errorf("header mismatch: %q/%d vs %q/%d", back.Algorithm, back.Nodes, img.Algorithm, img.Nodes)
	}
	if err := routing.VerifyImage(back, tb); err != nil {
		t.Fatal(err)
	}
}

func TestImageRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("not a table image"),
		[]byte("SNRT1\n"), // truncated after magic
	} {
		if _, err := routing.ReadImage(bytes.NewReader(data)); err == nil {
			t.Errorf("garbage %q accepted", data)
		}
	}
}

func TestImageLookupMisses(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	tb := routing.FullMesh(fm)
	img := routing.CompileImage(tb)
	if img.Lookup(fm.NodeByIndex(0), 1) != -1 {
		t.Error("lookup on a non-router device succeeded")
	}
	if img.Lookup(fm.Routers[0], 99) != -1 {
		t.Error("lookup past the address space succeeded")
	}
}

// Property: compile/serialize/parse/verify succeeds for random topologies.
func TestImageRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tb *routing.Tables
		switch rng.Intn(4) {
		case 0:
			tb = routing.Fractahedron(topology.NewFractahedron(topology.FractConfig{
				Group: 3 + rng.Intn(2), Down: 1 + rng.Intn(2), Levels: 1 + rng.Intn(2),
				Fat: rng.Intn(2) == 0,
			}))
		case 1:
			tb = routing.FatTree(topology.NewFatTree(2+rng.Intn(3), 1+rng.Intn(2), 4+rng.Intn(30)))
		case 2:
			tb = routing.MeshDimOrder(topology.NewMesh(2+rng.Intn(4), 2+rng.Intn(4), 1), rng.Intn(2) == 0)
		default:
			c := topology.NewCCC(3)
			tb = routing.UpDownGeneric(c.Network, c.Routers[rng.Intn(8)][rng.Intn(3)])
		}
		img := routing.CompileImage(tb)
		var buf bytes.Buffer
		if _, err := img.WriteTo(&buf); err != nil {
			return false
		}
		back, err := routing.ReadImage(&buf)
		if err != nil {
			return false
		}
		return routing.VerifyImage(back, tb) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// FuzzReadImage feeds arbitrary bytes to ReadImage and whatever parses to
// VerifyImage against the tetrahedron's tables: neither may panic, and a
// WriteTo/ReadImage round trip must keep VerifyImage's verdict.
func FuzzReadImage(f *testing.F) {
	sys, _, err := core.ParseSystem("fat-fract:levels=1")
	if err != nil {
		f.Fatal(err)
	}
	tb := sys.Tables
	var good bytes.Buffer
	if _, err := routing.CompileImage(tb).WriteTo(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()/2])
	f.Add([]byte("SNRT1\n"))
	f.Add([]byte("SNRT1\n\x00\x10\x01\x04\x01\x00\x0f\x07"))
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := routing.ReadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		verdict := routing.VerifyImage(img, tb)
		var buf bytes.Buffer
		if _, err := img.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		back, err := routing.ReadImage(&buf)
		if err != nil {
			t.Fatalf("a written image does not read back: %v", err)
		}
		if again := routing.VerifyImage(back, tb); (again == nil) != (verdict == nil) ||
			(again != nil && again.Error() != verdict.Error()) {
			t.Fatalf("verdict %v before the round trip, %v after", verdict, again)
		}
	})
}

// BenchmarkTableImage measures region-table compilation, serialization and
// verification for the 512-node fat fractahedron.
func BenchmarkTableImage(b *testing.B) {
	f := topology.NewFractahedron(topology.Tetra(3, true))
	tb := routing.Fractahedron(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := routing.CompileImage(tb)
		if err := routing.VerifyImage(img, tb); err != nil {
			b.Fatal(err)
		}
	}
}
