package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// TestQuickDigest runs `paper -quick` in process on a pool of four, where
// experiments run side by side, and on a pool of one, where they run one
// after another. Both must print the bytes the benchmark pins.
func TestQuickDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the quick paper twice")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "bench", "testdata", "digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pins struct {
		Paper map[string]string `json:"paper"`
	}
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	want := pins.Paper["paper -quick"]
	if want == "" {
		t.Fatal(`digests.json has no "paper -quick" pin`)
	}
	for _, workers := range []int{4, 1} {
		var out bytes.Buffer
		p := params{lab: &experiments.Lab{Workers: workers}, levels: 2, quick: true}
		if err := regenerate(&out, paperExperiments, "", p, ""); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers %d: stdout sha256 %s, pinned %s", workers, got, want)
		}
	}
}

// TestFailureStopsInOrder gives regenerate a list whose middle experiment
// fails. At any pool size it must print every earlier text in order, write
// only their files, and report the failure by name, as a serial run did.
func TestFailureStopsInOrder(t *testing.T) {
	ok := func(s string) func(params) (output, error) {
		return func(params) (output, error) { return text(s), nil }
	}
	boom := errors.New("boom")
	exps := []experiment{
		{"a", ok("A")},
		{"b", ok("B")},
		{"c", func(params) (output, error) { return output{}, boom }},
		{"d", ok("D")},
		{"e", ok("E")},
	}
	for _, workers := range []int{1, 4} {
		var out bytes.Buffer
		dir := t.TempDir()
		err := regenerate(&out, exps, "", params{lab: &experiments.Lab{Workers: workers}}, dir)
		if !errors.Is(err, boom) || err.Error() != "c: boom" {
			t.Errorf("workers %d: err = %v, want c: boom", workers, err)
		}
		if got := out.String(); got != "A\nB\n" {
			t.Errorf("workers %d: printed %q, want %q", workers, got, "A\nB\n")
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*"))
		if len(files) != 2 || filepath.Base(files[0]) != "a.txt" || filepath.Base(files[1]) != "b.txt" {
			t.Errorf("workers %d: wrote %v, want a.txt and b.txt", workers, files)
		}
	}

	err := regenerate(new(bytes.Buffer), exps, "nosuch", params{lab: new(experiments.Lab)}, "")
	if !errors.Is(err, errUnknown) {
		t.Errorf("-only nosuch: err = %v, want an unknown experiment", err)
	}
}
