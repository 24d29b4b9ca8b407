package load

import (
	"go/types"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// repoRoot locates the module root from this file's position, so the
// tests work regardless of the test binary's working directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Join(filepath.Dir(file), "..", "..", "..")
}

func TestPackagesTypeChecksRunner(t *testing.T) {
	pkgs, err := Packages(repoRoot(t), "repro/internal/runner")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.ImportPath != "repro/internal/runner" {
		t.Errorf("import path %q", p.ImportPath)
	}
	obj := p.Types.Scope().Lookup("PointSeed")
	if obj == nil {
		t.Fatal("runner.PointSeed not found in type-checked package")
	}
	if _, ok := obj.Type().(*types.Signature); !ok {
		t.Errorf("PointSeed is %T, want function", obj.Type())
	}
	if len(p.TypesInfo.Uses) == 0 {
		t.Error("TypesInfo.Uses empty; type information missing")
	}
}

func TestPackagesResolvesIntraModuleImports(t *testing.T) {
	// experiments imports runner, sim, topology, ...: exercises export
	// data resolution for both std and repro packages.
	pkgs, err := Packages(repoRoot(t), "repro/internal/experiments")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
}

func TestPackagesMultiFile(t *testing.T) {
	pkgs, err := Packages(repoRoot(t), "repro/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	// Every non-test source file must be parsed, and there must be
	// several of them for the test to mean anything.
	srcs, err := filepath.Glob(filepath.Join(repoRoot(t), "internal", "sim", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, f := range srcs {
		if !strings.HasSuffix(f, "_test.go") {
			want++
		}
	}
	if n := len(pkgs[0].Files); n != want || n < 2 {
		t.Errorf("sim parsed into %d files, want all %d non-test files (multi-file package)", n, want)
	}
	// Every parsed file must have type info recorded in the shared Info.
	if len(pkgs[0].TypesInfo.Defs) == 0 {
		t.Error("TypesInfo.Defs empty for multi-file package")
	}
}

func TestPackagesMultiplePatterns(t *testing.T) {
	pkgs, err := Packages(repoRoot(t), "repro/internal/graph", "repro/internal/topology")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	// Packages sorts by import path regardless of pattern order.
	if pkgs[0].ImportPath != "repro/internal/graph" || pkgs[1].ImportPath != "repro/internal/topology" {
		t.Errorf("packages out of order: %s, %s", pkgs[0].ImportPath, pkgs[1].ImportPath)
	}
}

func TestFixtureTypeCheckFailure(t *testing.T) {
	_, err := Fixture(filepath.Join(filepath.Dir(mustCallerFile(t)), "testdata", "badpkg"))
	if err == nil {
		t.Fatal("loading badpkg succeeded, want type-check error")
	}
	if !strings.Contains(err.Error(), "type-checking badpkg") {
		t.Errorf("error %q does not name the failing package", err)
	}
}

func TestModuleRoot(t *testing.T) {
	root, err := ModuleRoot(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := filepath.Abs(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("ModuleRoot = %s, want %s", got, want)
	}
}

func mustCallerFile(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(1)
	if !ok {
		t.Fatal("no caller info")
	}
	return file
}
