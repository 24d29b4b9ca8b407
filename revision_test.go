package repro

import (
	"bytes"
	"io/fs"
	"maps"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// sourceCopy copies the embedded tree into a MapFS a test can edit.
func sourceCopy(t *testing.T) fstest.MapFS {
	t.Helper()
	m := fstest.MapFS{}
	err := fs.WalkDir(source, ".", func(name string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := fs.ReadFile(source, name)
		m[name] = &fstest.MapFile{Data: b}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRevisionFollowsEngineSource is the gate on the engine identity: a
// semantic edit to the engine, here halving workload.Bernoulli's offered
// load, gives a new revision, while edits to tests and test fixtures
// leave it alone.
func TestRevisionFollowsEngineSource(t *testing.T) {
	tree := sourceCopy(t)
	base := revisionOf(tree)
	if base != Revision() {
		t.Fatalf("copied tree hashes to %s, embedded tree to %s", base, Revision())
	}
	edited := func(name string, edit func([]byte) []byte) string {
		t.Helper()
		m := maps.Clone(tree)
		var old []byte
		if f, ok := tree[name]; ok {
			old = f.Data
		}
		m[name] = &fstest.MapFile{Data: edit(old)}
		return revisionOf(m)
	}
	appendLine := func(b []byte) []byte { return append(slices.Clip(b), "\n// edited\n"...) }

	const workload = "internal/workload/workload.go"
	halved := edited(workload, func(b []byte) []byte {
		out := bytes.Replace(b, []byte("rng.Float64() >= rate {"), []byte("rng.Float64() >= rate*0.5 {"), 1)
		if bytes.Equal(out, b) {
			t.Fatalf("%s: Bernoulli's rate test not found", workload)
		}
		return out
	})
	if halved == base {
		t.Errorf("halving Bernoulli's offered load kept revision %s", base)
	}
	for _, name := range []string{"go.mod", workload, "internal/workload/added.go", "revision.go"} {
		if edited(name, appendLine) == base {
			t.Errorf("editing %s kept the revision", name)
		}
	}
	for _, name := range []string{
		"internal/workload/workload_test.go",
		"internal/workload/added_test.go",
		"internal/core/testdata/added.go",
		"internal/analysis/codecert/testdata/codecert.golden.json",
		"internal/workload/notes.txt",
	} {
		if edited(name, appendLine) != base {
			t.Errorf("editing %s changed the revision", name)
		}
	}
}

// TestRevisionCoversCampaignd checks the hashed file set against the
// campaign server's build: every non-test Go file of every module package
// campaignd links is hashed, and campaignd links none of the
// static-analysis suite.
func TestRevisionCoversCampaignd(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps",
		"-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./cmd/campaignd").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	hashed := map[string]bool{}
	for _, name := range engineFiles(source) {
		hashed[name] = true
	}
	pkgs := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Split(line, "\t")
		path, dir := fields[0], fields[1]
		if path != "repro" && !strings.HasPrefix(path, "repro/") {
			continue
		}
		pkgs++
		if strings.HasPrefix(path, "repro/internal/analysis") || strings.HasPrefix(path, "repro/internal/analyzers") {
			t.Errorf("campaignd links %s", path)
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range strings.Fields(fields[2]) {
			if name := filepath.ToSlash(filepath.Join(rel, f)); !hashed[name] {
				t.Errorf("%s (package %s) is not hashed", name, path)
			}
		}
	}
	if pkgs == 0 || !hashed["go.mod"] {
		t.Fatalf("%d module packages listed, go.mod hashed: %v", pkgs, hashed["go.mod"])
	}
}
