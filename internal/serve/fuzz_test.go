package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallSpec reports whether a topology spec names a system small enough
// to build inside the fuzzer: at most 64 bytes and no number above 8, so
// the fuzzer explores admission, not memory limits. File specs need no
// skip: admission refuses them before building.
func smallSpec(spec string) bool {
	if len(spec) > 64 {
		return false
	}
	num := 0
	for _, c := range spec {
		if c < '0' || c > '9' {
			num = 0
			continue
		}
		if num = num*10 + int(c-'0'); num > 8 {
			return false
		}
	}
	return true
}

// FuzzJobSpec feeds arbitrary request bodies through admission: decodeJob
// and validate must never panic, and an accepted job's
// canonical bytes must decode, validate and key exactly as the job did,
// so a job and its canonical form share one artifact.
func FuzzJobSpec(f *testing.F) {
	good, err := json.Marshal(testSweep(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"kind":"sweep","sweep":{"specs":["ring:size=4"],"rates":[0.1],"cycles":10,"flits":1,"fifo_depth":1125899906842624}}`))
	f.Add([]byte(`{"kind":"sweep","sweep":{"specs":["ring:size=4"],"rates":[0.1],"cycles":10,"flits":1,"fifo_depth":1,"vcs":1125899906842624}}`))
	f.Add([]byte(`{"kind":"chaos","chaos":{"trials":2,"packets":10,"flits":1,"seed":3}}`))
	f.Add([]byte(`{"kind":"sweep"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJob(bytes.NewReader(body))
		if err != nil {
			return
		}
		if spec.Sweep != nil {
			for _, s := range spec.Sweep.Specs {
				if !smallSpec(s) {
					return
				}
			}
		}
		if spec.validate() != nil {
			return
		}
		canon := spec.canonical()
		again, err := decodeJob(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form %s of an accepted job does not decode: %v", canon, err)
		}
		if err := again.validate(); err != nil {
			t.Fatalf("canonical form %s of an accepted job fails admission: %v", canon, err)
		}
		if k0, k1 := jobKey("rev", spec), jobKey("rev", again); k0 != k1 {
			t.Fatalf("canonical form %s keys %s, the job keyed %s", canon, k1, k0)
		}
	})
}

// FuzzReadCheckpoint feeds arbitrary file contents to readCheckpoint: it
// must never panic, and it returns either an error or rows whose points
// all lie in [0, header points).
func FuzzReadCheckpoint(f *testing.F) {
	hdr := `{"key":"` + strings.Repeat("ab", 32) + `","revision":"r","points":4,"spec":{}}` + "\n"
	f.Add([]byte(hdr + `{"point":0,"row":{"p":0}}` + "\n" + `{"point":3,"row":{"p":3}}` + "\n"))
	f.Add([]byte(hdr + `{"point":1,"row":{"p":1}}` + "\n" + `{"point":2,"row":{"p"`))
	f.Add([]byte(hdr + `{"point":-1,"row":1}` + "\n" + `{"point":4,"row":1}` + "\n" + `{"point":0,"row":null}` + "\n"))
	f.Add([]byte(`{"key":"k","points":-3}` + "\n" + `{"point":0,"row":0}` + "\n"))
	f.Add([]byte(hdr))
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "job.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		hdr, rows, err := readCheckpoint(path)
		if err != nil {
			return
		}
		for p := range rows {
			if p < 0 || p >= hdr.Points {
				t.Fatalf("point %d outside [0, %d)", p, hdr.Points)
			}
		}
	})
}
