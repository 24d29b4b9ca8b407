package main

import (
	"bytes"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/fabricver"
)

// runCertify is the fault-recertification path: fabricver's certificate
// with single-fault enumeration for every spec in sz.CertSpecs, in an
// order shuffled by the seed. No simulator runs.
func runCertify(b *bench) error {
	specs := append([]string(nil), b.sz.CertSpecs...)
	rand.New(rand.NewSource(b.seed)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	// The specs with golden certificates in fabricver's own tests are
	// byte-compared against them too.
	goldens := map[string][]byte{}
	for _, spec := range specs {
		name := strings.TrimSuffix(fabricver.CertFileName(spec), ".json") + ".golden.json"
		g, err := os.ReadFile(filepath.Join(b.root, "internal", "fabricver", "testdata", "certs", name))
		switch {
		case err == nil:
			goldens[spec] = g
		case !errors.Is(err, fs.ErrNotExist):
			return err
		}
	}

	// A set-up pass builds every system 8 times (about 0.25 s at default
	// sizes), so that timer and scheduler noise average out; the last
	// build is the one certified.
	systems := make([]*core.System, len(specs))
	err := b.setup(func(_ int, tr *tracer) error {
		root := tr.start(0, "setup", "systems")
		defer tr.end(root)
		for range 8 {
			for i, spec := range specs {
				var err error
				tr.do(root, "core.build", spec, func() { systems[i], _, err = core.ParseSystem(spec) })
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var faults int
	var verifyAlloc []float64
	err = b.loop(true, func(_ int, tr *tracer) error {
		root := tr.start(0, "job", "certify")
		defer tr.end(root)
		faults = 0
		var alloc uint64
		var m0, m1 runtime.MemStats
		for i, spec := range specs {
			if tr != nil {
				tr.do(root, "fabricver.static", spec, func() {
					fabricver.Verify(systems[i], spec, fabricver.Options{SkipFaults: true})
				})
				runtime.ReadMemStats(&m0)
			}
			var cert fabricver.Certificate
			tr.do(root, "fabricver.verify", spec, func() { cert = fabricver.Verify(systems[i], spec, fabricver.Options{}) })
			if tr != nil {
				runtime.ReadMemStats(&m1)
				alloc += m1.TotalAlloc - m0.TotalAlloc
			}
			got, err := fabricver.MarshalCertificate(cert)
			if err != nil {
				return err
			}
			b.check(sha(got) == b.dig.Certs[spec], "%s certificate sha256 %s, pinned %q", spec, sha(got), b.dig.Certs[spec])
			if g, ok := goldens[spec]; ok {
				b.check(bytes.Equal(got, g), "%s certificate differs from fabricver's golden", spec)
			}
			if cert.Faults != nil {
				faults += cert.Faults.LinkFaults.Tried + cert.Faults.RouterFaults.Tried
			}
		}
		if tr != nil {
			verifyAlloc = append(verifyAlloc, float64(alloc)/(1<<20))
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.add("peak_rss_mb", "MB", "lower", peakRSSMB())
	if b.tr == nil {
		return nil
	}

	spans := b.tr.snapshot()
	b.addLayer("core.build_s", spans, buildSpans...)
	static, _ := perRoot(spans, "fabricver.static")
	full, _ := perRoot(spans, "fabricver.verify")
	b.add("fabricver.static_s", "s", "lower", static)
	b.add("fabricver.faults_s", "s", "lower", full-static)
	b.add("fabricver.faults", "count", "higher", float64(faults))
	b.add("fabricver.us_per_fault", "us", "lower", (full-static)*1e6/float64(max(faults, 1)))
	b.add("fabricver.alloc_mb", "MB", "lower", verifyAlloc...)
	return nil
}
