package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/runner"
)

// TestSweepSpecPoints pins the point layout (spec-major within one rate),
// the validation, and point determinism: Row(i) must be a pure function
// of (spec, i), identical across calls.
func TestSweepSpecPoints(t *testing.T) {
	spec := SweepSpec{
		Specs:     []string{"fat-fract:levels=1", "ring:size=4"},
		Rates:     []float64{0.01, 0.03},
		Cycles:    200,
		Flits:     4,
		FIFODepth: 4,
		Seed:      7,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := spec.Points(); got != 4 {
		t.Fatalf("Points() = %d, want 4", got)
	}
	for i := 0; i < spec.Points(); i++ {
		a, err := spec.Row(i, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantSpec := spec.Specs[i%2]
		wantRate := spec.Rates[i/2]
		if a.Spec != wantSpec || a.Rate != wantRate {
			t.Fatalf("point %d: (%s, %v), want (%s, %v)", i, a.Spec, a.Rate, wantSpec, wantRate)
		}
		b, err := spec.Row(i, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("point %d: repeated row diverged: %+v vs %+v", i, a, b)
		}
	}

	bad := []SweepSpec{
		{Rates: []float64{0.1}, Cycles: 10, Flits: 1, FIFODepth: 1},
		{Specs: []string{"ring:size=4"}, Cycles: 10, Flits: 1, FIFODepth: 1},
		{Specs: []string{"no-such-topo:x=1"}, Rates: []float64{0.1}, Cycles: 10, Flits: 1, FIFODepth: 1},
		{Specs: []string{"ring:size=4"}, Rates: []float64{-0.5}, Cycles: 10, Flits: 1, FIFODepth: 1},
		{Specs: []string{"ring:size=4"}, Rates: []float64{0.1}, Cycles: 0, Flits: 1, FIFODepth: 1},
		// Sizes sim.New cannot allocate: Row would panic in makeslice.
		{Specs: []string{"ring:size=4"}, Rates: []float64{0.1}, Cycles: 10, Flits: 1, FIFODepth: 1 << 50},
		{Specs: []string{"ring:size=4"}, Rates: []float64{0.1}, Cycles: 10, Flits: 1, FIFODepth: 1, VCs: 1 << 50},
		// More (cycle, node) injection slots than int32 packet ids.
		{Specs: []string{"ring:size=4"}, Rates: []float64{0.1}, Cycles: 1 << 50, Flits: 1, FIFODepth: 1},
		// No destination besides the source: the workload cannot draw one.
		{Specs: []string{"mesh:cols=1,rows=1,nodes=1"}, Rates: []float64{1}, Cycles: 10, Flits: 1, FIFODepth: 1},
		// Out-of-range builder parameters are an error, not a panic.
		{Specs: []string{"mesh:cols=0"}, Rates: []float64{0.1}, Cycles: 10, Flits: 1, FIFODepth: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
	if _, err := spec.Row(spec.Points(), 0); err == nil {
		t.Error("out-of-range point accepted")
	}
	// The bounds admit their own limits.
	edge := SweepSpec{Specs: []string{"ring:size=4"}, Rates: []float64{0.1}, Flits: 1,
		Cycles: maxSweepInjections / 4, FIFODepth: maxSweepFIFODepth, VCs: maxSweepVCs}
	if err := edge.Validate(); err != nil {
		t.Errorf("spec at the bounds rejected: %v", err)
	}
}

// TestChaosRecoverySpecMatchesExperiment proves the exported spec runs
// the exact campaign the batch experiment runs: trial-by-trial execution
// through chaos.Trial merges to the same JSON bytes.
func TestChaosRecoverySpecMatchesExperiment(t *testing.T) {
	const trials, packets, flits, seed = 2, 100, 3, 2
	lab := Lab{Workers: 2}
	batch, err := lab.ChaosRecovery(trials, packets, flits, seed)
	if err != nil {
		t.Fatal(err)
	}
	spec := ChaosRecoverySpec(trials, packets, flits, seed)
	var got []chaos.TrialResult
	for i := 0; i < trials; i++ {
		tr, err := chaos.Trial(spec, i)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tr)
	}
	if !reflect.DeepEqual(got, batch.Trials) {
		t.Fatal("trial-by-trial execution diverged from the batch campaign")
	}
}

// TestStatsNeverReachesRows machine-checks the one wall-clock exemption
// in the determinism contract: runner.Stats is summary-only, so no
// campaign row type — nothing that is marshalled into campaign JSON or
// streamed by the campaign server — may carry a wall-clock-typed value,
// and a stats-attached run must produce byte-identical row JSON to a
// stats-free one. Together with the nondet analyzer's allowlist
// (wall-clock reads only in campaign.go, feeding runner.Stats), this
// pins that Stats output can never reach a result row.
func TestStatsNeverReachesRows(t *testing.T) {
	rowTypes := map[string]reflect.Type{
		"SweepRow":             reflect.TypeOf(SweepRow{}),
		"SweepPointRow":        reflect.TypeOf(SweepPointRow{}),
		"DBScenarioRow":        reflect.TypeOf(DBScenarioRow{}),
		"chaos.CampaignResult": reflect.TypeOf(chaos.CampaignResult{}),
		"chaos.TrialResult":    reflect.TypeOf(chaos.TrialResult{}),
	}
	for name, typ := range rowTypes {
		if path := findWallClock(typ, nil); path != "" {
			t.Errorf("%s carries a wall-clock-typed field at %s", name, path)
		}
	}
	// The exemption itself must still hold wall time — otherwise the
	// check above is vacuous.
	if findWallClock(reflect.TypeOf(runner.Summary{}), nil) == "" {
		t.Error("runner.Summary no longer carries wall time; the exemption test is vacuous")
	}

	// Behavioral half: identical row JSON with and without stats attached,
	// across two runs whose wall-clock costs necessarily differ.
	run := func(lab *Lab) []byte {
		rows, err := lab.SimSweep([]float64{0.01}, 200, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := run(new(Lab))
	st := runner.NewStats()
	withStats := run(&Lab{Workers: 3, Stats: st})
	if string(plain) != string(withStats) {
		t.Fatal("stats-attached run changed the row JSON")
	}
	if st.Summary().Runs == 0 {
		t.Fatal("stats were not recorded; the comparison is vacuous")
	}
	if !strings.Contains(st.String(), "runs") {
		t.Fatalf("summary text: %s", st)
	}
}

// findWallClock walks a type for time.Time / time.Duration fields,
// returning the path of the first offender ("" if clean).
func findWallClock(typ reflect.Type, seen []reflect.Type) string {
	for _, s := range seen {
		if s == typ {
			return ""
		}
	}
	seen = append(seen, typ)
	switch typ {
	case reflect.TypeOf(time.Time{}), reflect.TypeOf(time.Duration(0)):
		return typ.String()
	}
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
		if typ.Kind() == reflect.Map {
			if p := findWallClock(typ.Key(), seen); p != "" {
				return "[key]" + p
			}
		}
		if p := findWallClock(typ.Elem(), seen); p != "" {
			return "[]" + p
		}
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := findWallClock(f.Type, seen); p != "" {
				return f.Name + "." + p
			}
		}
	}
	return ""
}
