package runner

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrder checks results land at their point index regardless of the
// worker schedule.
func TestMapOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := Map(Config{Workers: workers}, 50, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: point %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapDeterministicAcrossWorkerCounts is the engine-level version of the
// experiment determinism property: points that derive their randomness from
// PointSeed produce identical merged output for any pool size.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int64 {
		out, err := Map(Config{Workers: workers}, 40, func(i int) (int64, error) {
			rng := RNG(99, i)
			var sum int64
			for k := 0; k < 100; k++ {
				sum += rng.Int63n(1000)
			}
			return sum, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 33} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from sequential", workers)
		}
	}
}

// TestMapError checks the lowest-index error is the one reported.
func TestMapError(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Map(Config{Workers: 4}, 20, func(i int) (int, error) {
		if i >= 10 {
			return 0, fmt.Errorf("point %d: %w", i, sentinel)
		}
		return i, nil
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	// The reported index must be the smallest failing point that ran; with
	// short-circuiting that is at least 10 and deterministic given a
	// single-worker pool.
	_, err = Map(Config{Workers: 1}, 20, func(i int) (int, error) {
		if i >= 10 {
			return 0, sentinel
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "point 10") {
		t.Fatalf("sequential err = %v, want point 10", err)
	}
}

// TestMapErrorDeterministic pins the bugfix for first-writer-wins error
// selection: with several failing points spread across a multi-worker
// pool, the reported error must always be the lowest-index failing
// point's, on every run and for every worker count. Before the fix the
// early-exit flag let whichever failure the schedule hit first suppress
// the lower-index ones.
func TestMapErrorDeterministic(t *testing.T) {
	failing := map[int]bool{9: true, 30: true, 50: true, 63: true}
	for _, workers := range []int{2, 4, 8, 16} {
		for rep := 0; rep < 25; rep++ {
			_, err := Map(Config{Workers: workers}, 64, func(i int) (int, error) {
				if failing[i] {
					return 0, fmt.Errorf("injected failure at %d", i)
				}
				// Skew point costs so the schedule reaches high-index
				// failures before low-index ones on most runs.
				if i < 20 {
					time.Sleep(200 * time.Microsecond)
				}
				return i, nil
			})
			if err == nil || !strings.Contains(err.Error(), "runner: point 9:") {
				t.Fatalf("workers=%d rep=%d: err = %v, want lowest failing point 9", workers, rep, err)
			}
		}
	}
}

// TestMapResume checks the completed-set skip and the streaming hook:
// skipped points install their checkpointed result without running fn,
// fresh points reach emit exactly once, and the merged slice is identical
// to an uninterrupted run.
func TestMapResume(t *testing.T) {
	const n = 40
	full, err := Map(Config{Workers: 4}, n, func(i int) (int, error) { return i * 3, nil })
	if err != nil {
		t.Fatal(err)
	}
	var ran, emitted [n]atomic.Int64
	resumed, err := MapResume(Config{Workers: 4}, n,
		func(i int) (int, bool) {
			if i%2 == 0 { // even points are "already checkpointed"
				return i * 3, true
			}
			return 0, false
		},
		func(i int) (int, error) {
			ran[i].Add(1)
			return i * 3, nil
		},
		func(i int, r int) {
			emitted[i].Add(1)
			if r != i*3 {
				t.Errorf("emit(%d) got %d, want %d", i, r, i*3)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Fatal("resumed merge diverged from uninterrupted run")
	}
	for i := 0; i < n; i++ {
		wantRan := int64(0)
		if i%2 == 1 {
			wantRan = 1
		}
		if got := ran[i].Load(); got != wantRan {
			t.Errorf("point %d ran %d times, want %d", i, got, wantRan)
		}
		if got := emitted[i].Load(); got != wantRan {
			t.Errorf("point %d emitted %d times, want %d (skipped points must not re-emit)", i, got, wantRan)
		}
	}
}

// TestMapEmpty and degenerate widths.
func TestMapEmpty(t *testing.T) {
	out, err := Map(Config{}, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty map: %v %v", out, err)
	}
	out, err = Map(Config{Workers: -3}, 3, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 3 {
		t.Fatalf("negative workers: %v %v", out, err)
	}
}

// TestPointSeed pins the derivation's basic properties: deterministic,
// index-sensitive, seed-sensitive.
func TestPointSeed(t *testing.T) {
	if PointSeed(1, 0) != PointSeed(1, 0) {
		t.Fatal("PointSeed not deterministic")
	}
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := PointSeed(42, i)
		if seen[s] {
			t.Fatalf("collision at index %d", i)
		}
		seen[s] = true
	}
	if PointSeed(1, 7) == PointSeed(2, 7) {
		t.Fatal("seed does not affect derivation")
	}
}

// TestStats exercises concurrent recording and the summary aggregate.
func TestStats(t *testing.T) {
	st := NewStats()
	_, err := Map(Config{Workers: 8}, 100, func(i int) (int, error) {
		st.Record(Stat{Cycles: 10, FlitMoves: 3, Wall: time.Microsecond})
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := st.Summary()
	if sum.Runs != 100 || sum.Cycles != 1000 || sum.FlitMoves != 300 || sum.SimWall != 100*time.Microsecond {
		t.Fatalf("summary = %+v", sum)
	}
	if !strings.Contains(st.String(), "100 runs") {
		t.Errorf("summary text: %s", st)
	}
	// nil Stats is a silent sink.
	var nils *Stats
	nils.Record(Stat{Cycles: 1})
	if nils.Summary().Runs != 0 {
		t.Error("nil stats recorded something")
	}
}
