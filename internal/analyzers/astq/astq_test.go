package astq

import "testing"

// The module-root package is a repo package, held to the scope like any
// other; only paths outside the module (the fixtures) are always in scope.
func TestInScope(t *testing.T) {
	scope := map[string]bool{"repro/internal/x": true}
	for _, c := range []struct {
		path         string
		repo, scoped bool
	}{
		{"repro", true, false},
		{"repro/internal/x", true, true},
		{"repro/internal/y", true, false},
		{"reprox", false, true},
		{"printfloat", false, true},
	} {
		if got := InRepo(c.path); got != c.repo {
			t.Errorf("InRepo(%q) = %v, want %v", c.path, got, c.repo)
		}
		if got := InScope(c.path, scope); got != c.scoped {
			t.Errorf("InScope(%q) = %v, want %v", c.path, got, c.scoped)
		}
	}
}
