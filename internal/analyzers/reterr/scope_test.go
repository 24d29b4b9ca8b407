package reterr

import "testing"

// reterr covers the experiment engine and the commands; the module-root
// package is out of scope like the rest of the repo, and fixture packages
// outside the module are always in.
func TestInScope(t *testing.T) {
	for path, want := range map[string]bool{
		"repro":                      false,
		"repro/internal/x":           false,
		"repro/internal/experiments": true,
		"repro/cmd/paper":            true,
		"reterr":                     true,
		"example.com/fixture/reterr": true,
	} {
		if got := inScope(path); got != want {
			t.Errorf("inScope(%q) = %v, want %v", path, got, want)
		}
	}
}
