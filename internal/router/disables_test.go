package router

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

func TestAllowAllExceptUTurns(t *testing.T) {
	fm := topology.NewFullMesh(3, 6)
	d := AllowAll(fm.Network)
	for _, r := range fm.Routers {
		for in := 0; in < 6; in++ {
			for out := 0; out < 6; out++ {
				want := in != out
				if d.Allowed(r, in, out) != want {
					t.Errorf("router %d turn %d->%d allowed=%v, want %v",
						r, in, out, d.Allowed(r, in, out), want)
				}
			}
		}
	}
	enabled, disabled := d.Counts()
	if enabled != 3*30 || disabled != 0 {
		t.Errorf("counts = %d enabled %d disabled, want 90/0", enabled, disabled)
	}
}

func TestFromTablesEnablesExactlyUsedTurns(t *testing.T) {
	fm := topology.NewFullMesh(3, 6)
	tb := routing.FullMesh(fm)
	d, err := FromTables(tb)
	if err != nil {
		t.Fatal(err)
	}
	wantEnabled := tb.Sweep().NumTurns()
	enabled, disabled := d.Counts()
	if enabled != wantEnabled {
		t.Errorf("enabled = %d, want %d", enabled, wantEnabled)
	}
	if enabled+disabled != 3*30 {
		t.Errorf("enabled+disabled = %d, want 90", enabled+disabled)
	}
	// Spot check: direct routing never turns router-to-router at an
	// intermediate hop, so inter-router input -> inter-router output is
	// disabled everywhere.
	for _, r := range fm.Routers {
		for in := 0; in < 2; in++ { // intra ports on a 3-group are 0,1
			for out := 0; out < 2; out++ {
				if in != out && d.Allowed(r, in, out) {
					t.Errorf("router %d transit turn %d->%d should be disabled", r, in, out)
				}
			}
		}
	}
}

func TestDisableEnableRoundTrip(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	d := AllowAll(fm.Network)
	r := fm.Routers[0]
	d.Disable(r, 1, 2)
	if d.Allowed(r, 1, 2) {
		t.Error("turn still allowed after Disable")
	}
	d.Enable(r, 1, 2)
	if !d.Allowed(r, 1, 2) {
		t.Error("turn still disabled after Enable")
	}
}

func TestAllowedPanicsOnNode(t *testing.T) {
	fm := topology.NewFullMesh(2, 6)
	d := AllowAll(fm.Network)
	defer func() {
		if recover() == nil {
			t.Error("Allowed on an end node did not panic")
		}
	}()
	d.Allowed(fm.NodeByIndex(0), 0, 0)
}

// BenchmarkFromTables measures path-disable configuration for the 512-CPU
// level-3 fat fractahedron: one all-pairs sweep for the used turns, then
// the per-router permission matrices. Rewriting one entry before each call
// drops the memoized sweep, so every iteration sweeps cold.
func BenchmarkFromTables(b *testing.B) {
	f := topology.NewFractahedron(topology.Tetra(3, true))
	tb := routing.Fractahedron(f)
	l, _ := f.LinkAt(f.NodeByIndex(0), 0)
	r := f.OtherEnd(l, f.NodeByIndex(0)).Device
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.SetOutPort(r, 0, tb.OutPort(r, 0))
		d, err := FromTables(tb)
		if err != nil {
			b.Fatal(err)
		}
		if enabled, _ := d.Counts(); enabled == 0 {
			b.Fatal("no turns enabled")
		}
	}
}
