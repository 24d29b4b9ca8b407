package fabricver

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
)

// refCheckTables is the per-entry table walk checkTables replaced, kept
// verbatim as its oracle: a fresh visited map and rendered path for every
// (router, destination) entry.
func refCheckTables(tb *routing.Tables, bound int, violate func(check, format string, args ...any)) TableCheck {
	net := tb.Net
	tc := TableCheck{}
	detail := 0
	report := func(format string, args ...any) {
		if detail < maxDetail {
			violate("tables", format, args...)
		}
		detail++
	}

	nNodes := net.NumNodes()
	for _, dev := range net.Devices() {
		if dev.Kind != topology.Router {
			continue
		}
		tc.Routers++
		for dst := 0; dst < nNodes; dst++ {
			tc.Entries++
			dstName := net.Device(net.NodeByIndex(dst)).Name
			dstDev := net.NodeByIndex(dst)
			hops := 0
			cur := dev.ID
			visited := map[topology.DeviceID]bool{}
			var path []string
			terminated := false
			for {
				if visited[cur] {
					tc.Loops++
					report("entry (%s, %s): walk revisits %s (self-looping entry; path %v)",
						dev.Name, dstName, net.Device(cur).Name, path)
					break
				}
				visited[cur] = true
				path = append(path, net.Device(cur).Name)
				hops++
				port := tb.OutPort(cur, dst)
				if port < 0 {
					tc.Dead++
					report("entry (%s, %s): table hole at %s (no entry for the destination)",
						dev.Name, dstName, net.Device(cur).Name)
					break
				}
				if port >= net.Device(cur).Ports {
					tc.Dead++
					report("entry (%s, %s): %s routes out port %d but has only %d ports",
						dev.Name, dstName, net.Device(cur).Name, port, net.Device(cur).Ports)
					break
				}
				ch, wired := net.ChannelFromPort(cur, port)
				if !wired {
					tc.Dead++
					report("entry (%s, %s): %s port %d is unwired (dead entry)",
						dev.Name, dstName, net.Device(cur).Name, port)
					break
				}
				next := net.ChannelDst(ch).Device
				if net.Device(next).Kind == topology.Node {
					if next == dstDev {
						terminated = true // ejected at the destination
					} else {
						tc.Dead++
						report("entry (%s, %s): walk ejects into wrong end node %s (dead entry)",
							dev.Name, dstName, net.Device(next).Name)
					}
					break
				}
				cur = next
			}
			if !terminated {
				continue
			}
			if hops > tc.MaxWalk {
				tc.MaxWalk = hops
			}
			if hops > bound {
				report("entry (%s, %s): walk visits %d routers, exceeding the analytical bound %d (path %v)",
					dev.Name, dstName, hops, bound, path)
			}
		}
	}
	if detail > maxDetail {
		violate("tables", "table consistency:%s", capNote(detail))
	}
	tc.OK = detail == 0
	return tc
}

// checkTablesAgree requires checkTables to equal its reference on the
// tables: the same counts, the same verdict, and the same violations.
func checkTablesAgree(t *testing.T, name string, tb *routing.Tables, bound int) {
	t.Helper()
	record := func(into *[]string) func(check, format string, args ...any) {
		return func(check, format string, args ...any) {
			*into = append(*into, check+": "+fmt.Sprintf(format, args...))
		}
	}
	var got, want []string
	gotTC := checkTables(tb, bound, record(&got))
	wantTC := refCheckTables(tb, bound, record(&want))
	if gotTC != wantTC || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (bound %d): checkTables %+v %q,\nreference %+v %q", name, bound, gotTC, got, wantTC, want)
	}
}

// The memoized table walk agrees with the per-entry walk on randomly
// corrupted tables — holes, out-of-range, unwired and wrong ports, loops —
// and under bounds tight enough that terminating walks exceed them, where
// more than maxDetail entries fail and the capped list must pick the same
// entries.
func TestCheckTablesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, spec := range []string{"fat-fract:levels=1", "fat-fract:levels=2", "hypercube:dim=3", "ring:size=6", "mesh:cols=4,rows=4,nodes=2"} {
		for trial := range 40 {
			sys, _, err := core.ParseSystem(spec)
			if err != nil {
				t.Fatal(err)
			}
			net := sys.Net
			var routers []topology.DeviceID
			for _, d := range net.Devices() {
				if d.Kind == topology.Router {
					routers = append(routers, d.ID)
				}
			}
			for range trial % 12 {
				r := routers[rng.Intn(len(routers))]
				sys.Tables.SetOutPort(r, rng.Intn(net.NumNodes()), rng.Intn(net.Device(r).Ports+3)-1)
			}
			checkTablesAgree(t, fmt.Sprintf("%s trial %d", spec, trial), sys.Tables, 1+trial%6)
		}
	}
}
