package fabricver

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden certificate fixtures")

// goldenSpecs are the specs whose full JSON certificates (faults included)
// are pinned byte for byte: the paper's tetrahedron building block, the
// two-level fractahedron, and the 4-2 fat tree it is compared against.
// The level-3 fractahedra's goldens in the same directory take minutes to
// certify, too slow for the race-detector suite; CI's fabricver job
// compares the compiled binary's certificates against them instead.
var goldenSpecs = []string{
	"fat-fract:levels=1",
	"fat-fract:levels=2",
	"fattree:d=4,u=2,nodes=64",
}

// TestGoldenCertificates pins the exact certificate bytes for the three
// reference fabrics and proves the determinism contract the schema
// promises: the encoding is identical across runs and across fault-pool
// worker counts.
func TestGoldenCertificates(t *testing.T) {
	for _, spec := range goldenSpecs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			cert, err := VerifySpec(spec, Options{Workers: 1})
			if err != nil {
				t.Fatalf("VerifySpec: %v", err)
			}
			got, err := MarshalCertificate(cert)
			if err != nil {
				t.Fatalf("MarshalCertificate: %v", err)
			}

			// Same fabric, different worker count: byte-identical.
			cert4, err := VerifySpec(spec, Options{Workers: 4})
			if err != nil {
				t.Fatalf("VerifySpec(workers=4): %v", err)
			}
			got4, err := MarshalCertificate(cert4)
			if err != nil {
				t.Fatalf("MarshalCertificate(workers=4): %v", err)
			}
			if !bytes.Equal(got, got4) {
				t.Fatalf("certificate differs between 1 and 4 workers:\n--- w=1\n%s\n--- w=4\n%s", got, got4)
			}

			name := strings.TrimSuffix(CertFileName(spec), ".json") + ".golden.json"
			path := filepath.Join("testdata", "certs", name)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("certificate drifted from golden %s;\nre-run with -update if the change is intended\n--- got\n%s\n--- want\n%s",
					path, got, want)
			}
		})
	}
}
