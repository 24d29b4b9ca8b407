package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabricver"
)

// TestAllNoFaultsVerdict: with the fault enumeration skipped, the -all
// verdict must not claim single-fault survivability it never checked.
func TestAllNoFaultsVerdict(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-all", "-no-faults"}, &out); code != 0 {
		t.Fatalf("fabricver -all -no-faults exited %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(core.BuiltinSpecs())+1 {
		t.Fatalf("%d output lines for %d specs:\n%s", len(lines), len(core.BuiltinSpecs()), out.String())
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, "exact disables") || strings.Contains(last, "survivable") {
		t.Fatalf("verdict without fault enumeration: %q", last)
	}
}

// TestVerdictClaimsOnlyWhatRan: survivability is claimed exactly when
// every certificate carries a fault enumeration, and any failed
// certificate turns the verdict into FAILED.
func TestVerdictClaimsOnlyWhatRan(t *testing.T) {
	faulted := fabricver.Certificate{OK: true, Faults: &fabricver.FaultCheck{}}
	plain := fabricver.Certificate{OK: true}
	for _, c := range []struct {
		name  string
		certs []fabricver.Certificate
		want  string
		not   string
	}{
		{"all faulted", []fabricver.Certificate{faulted, faulted}, "exact disables, single-fault survivable", "FAILED"},
		{"one skipped", []fabricver.Certificate{faulted, plain}, "2 topology-routing pairs verified", "survivable"},
		{"violation", []fabricver.Certificate{faulted, {}}, "FAILED", "verified"},
	} {
		v := verdict(c.certs)
		if !strings.Contains(v, c.want) || strings.Contains(v, c.not) {
			t.Errorf("%s: verdict %q, want %q and no %q", c.name, v, c.want, c.not)
		}
	}
}
