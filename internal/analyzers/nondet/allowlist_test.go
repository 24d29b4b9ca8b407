package nondet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllowlistFilesExist: every allowlisted file must exist in its
// package, so deleting or renaming a file cannot leave a stale exemption
// behind that a new file of the same name would silently inherit.
func TestAllowlistFilesExist(t *testing.T) {
	root := filepath.Join("..", "..", "..") // the module root, from internal/analyzers/nondet
	for name, allow := range map[string]map[string]map[string]bool{
		"allowWallClock":  allowWallClock,
		"allowGoroutines": allowGoroutines,
	} {
		for pkg, files := range allow {
			dir := filepath.Join(root, strings.TrimPrefix(pkg, "repro/"))
			for file := range files {
				if _, err := os.Stat(filepath.Join(dir, file)); err != nil {
					t.Errorf("%s names %s in %s: %v", name, file, pkg, err)
				}
			}
		}
	}
}
