package routing_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
)

// oldRoute is the table walk Route performed before it was built on
// AppendRoute: it records each device as it enters it and reports the
// path so far in a loop's error.
func oldRoute(t *routing.Tables, src, dst int) (routing.Route, error) {
	if src == dst {
		return routing.Route{}, fmt.Errorf("routing: src == dst == %d", src)
	}
	r := routing.Route{Src: src, Dst: dst}
	cur := t.Net.NodeByIndex(src)
	dstDev := t.Net.NodeByIndex(dst)
	port := 0
	for steps := 0; ; steps++ {
		if steps > t.Net.NumDevices() {
			return routing.Route{}, fmt.Errorf("routing[%s]: loop routing %d -> %d (path %v)",
				t.Algorithm, src, dst, r.Devices)
		}
		r.Devices = append(r.Devices, cur)
		if cur == dstDev {
			return r, nil
		}
		if steps > 0 {
			if t.Net.Device(cur).Kind != topology.Router {
				return routing.Route{}, fmt.Errorf("routing[%s]: walked into end node %s while routing %d -> %d",
					t.Algorithm, t.Net.Device(cur).Name, src, dst)
			}
			port = t.OutPort(cur, dst)
			if port < 0 {
				return routing.Route{}, fmt.Errorf("routing[%s]: no table entry at %s for dst %d",
					t.Algorithm, t.Net.Device(cur).Name, dst)
			}
		}
		ch, ok := t.Net.ChannelFromPort(cur, port)
		if !ok {
			return routing.Route{}, fmt.Errorf("routing[%s]: %s port %d unwired (dst %d)",
				t.Algorithm, t.Net.Device(cur).Name, port, dst)
		}
		r.Channels = append(r.Channels, ch)
		if t.NumVC() > 1 {
			_, vc, err := t.Next(cur, dst)
			if err != nil {
				panic(err) // Next fails only where the walk above already did
			}
			r.VCs = append(r.VCs, vc)
		}
		cur = t.Net.ChannelDst(ch).Device
	}
}

// checkWalker requires, for every ordered pair, that Route equals the old
// walk (its derived Devices included) and that AppendRoute appends exactly
// Route's channels and VCs after a prefix, or leaves the prefix as it was
// and returns the same error.
func checkWalker(t *testing.T, name string, tb *routing.Tables) {
	t.Helper()
	n := tb.Net.NumNodes()
	prefix := []topology.ChannelID{-7}
	vprefix := []int{-7}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			r, err := tb.Route(s, d)
			want, wantErr := oldRoute(tb, s, d)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: %d -> %d: Route error %v, old walk %v", name, s, d, err, wantErr)
			}
			if !slices.Equal(r.Channels, want.Channels) || !slices.Equal(r.Devices, want.Devices) ||
				!slices.Equal(r.VCs, want.VCs) || (r.VCs == nil) != (want.VCs == nil) {
				t.Fatalf("%s: %d -> %d: Route %+v, old walk %+v", name, s, d, r, want)
			}
			chs, vcs, aErr := tb.AppendRoute(slices.Clip(prefix), slices.Clip(vprefix), s, d)
			if fmt.Sprint(aErr) != fmt.Sprint(err) {
				t.Fatalf("%s: %d -> %d: AppendRoute error %v, Route %v", name, s, d, aErr, err)
			}
			wantVCs := vprefix
			if tb.NumVC() > 1 {
				wantVCs = append(slices.Clip(vprefix), r.VCs...)
			}
			if !slices.Equal(chs, append(slices.Clip(prefix), r.Channels...)) || !slices.Equal(vcs, wantVCs) {
				t.Fatalf("%s: %d -> %d: AppendRoute gives %v %v after the prefix, Route %v %v",
					name, s, d, chs, vcs, r.Channels, r.VCs)
			}
		}
	}
}

// Route and AppendRoute are one walker, and it walks exactly as the old
// per-device walk did, on every built-in system, the VC dateline
// routings and the cyclic Figure 1 ring.
func TestWalkerMatchesOldWalk(t *testing.T) {
	for name, tb := range sweepSystems(t) {
		if testing.Short() && tb.Net.NumNodes() > 64 {
			continue
		}
		checkWalker(t, name, tb)
	}
}

// A routing loop is reported with the path walked so far, the same by
// both walkers.
func TestWalkerErrors(t *testing.T) {
	sys, _, err := core.ParseSystem("ring:size=4")
	if err != nil {
		t.Fatal(err)
	}
	tb := sys.Tables
	net := tb.Net
	for _, d := range net.Devices() {
		if d.Kind == topology.Router {
			tb.SetOutPort(d.ID, 2, topology.RingPortCW) // node 2's router forwards past it forever
		}
	}
	if _, err = tb.Route(0, 2); err == nil || !strings.Contains(err.Error(), "loop routing 0 -> 2 (path [") {
		t.Fatalf("a table loop gives %v", err)
	}
	checkWalker(t, "looped ring", tb)
}

// With room in the slices it is given, AppendRoute allocates nothing.
func TestAppendRouteAllocatesNothing(t *testing.T) {
	sys, _, err := core.ParseSystem("fat-fract:levels=2")
	if err != nil {
		t.Fatal(err)
	}
	tb := sys.Tables
	chs := make([]topology.ChannelID, 0, 64)
	n := tb.Net.NumNodes()
	if a := testing.AllocsPerRun(10, func() {
		for d := 1; d < n; d++ {
			var err error
			if chs, _, err = tb.AppendRoute(chs[:0], nil, 0, d); err != nil {
				t.Fatal(err)
			}
		}
	}); a != 0 {
		t.Fatalf("AppendRoute allocates %v times per %d routes", a, n-1)
	}
}
