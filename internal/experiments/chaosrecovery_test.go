package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// chaosGrid keeps the campaign cheap enough for -race while still firing
// all three fault kinds per trial.
var chaosGrid = struct {
	trials, packets, flits int
	seed                   int64
}{2, 150, 3, 2}

// TestChaosRecoveryDeterminism pins the acceptance criterion: the campaign
// JSON is byte-identical across worker counts.
func TestChaosRecoveryDeterminism(t *testing.T) {
	var want []byte
	for _, w := range []int{1, 4} {
		lab := Lab{Workers: w}
		cr, err := lab.ChaosRecovery(chaosGrid.trials, chaosGrid.packets, chaosGrid.flits, chaosGrid.seed)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		data, err := cr.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = data
			// Sanity of the run itself, once: full accounting, online
			// recovery actually exercised.
			if cr.Delivered+cr.Lost+cr.Unresolved != cr.Transfers {
				t.Fatalf("campaign accounting broken: %+v", cr)
			}
			if cr.Unresolved != 0 || cr.Deadlocked != 0 {
				t.Fatalf("unresolved=%d deadlocked=%d", cr.Unresolved, cr.Deadlocked)
			}
			if cr.FailedOver == 0 || cr.Reconfigurations == 0 {
				t.Fatalf("recovery not exercised: %+v", cr)
			}
			continue
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("workers=%d campaign JSON diverged:\n%s\n---\n%s", w, data, want)
		}
	}
}

// TestChaosRecoveryGolden pins the campaign JSON to a committed fixture so
// the fault-plan and recovery behavior cannot drift silently. Regenerate
// with `go test ./internal/experiments -run Golden -update`.
func TestChaosRecoveryGolden(t *testing.T) {
	cr, err := new(Lab).ChaosRecovery(chaosGrid.trials, chaosGrid.packets, chaosGrid.flits, chaosGrid.seed)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "chaosrecovery.golden.json")
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("campaign JSON diverged from golden fixture:\n got %s\nwant %s", data, want)
	}
}
