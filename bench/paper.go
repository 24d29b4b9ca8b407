package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/contention"
	"repro/internal/deadlock"
	"repro/internal/metrics"
)

// paperExperiments is cmd/paper's experiment list in print order. A
// traced run regenerates the paper one experiment per process; the
// concatenated outputs must match the whole-run digest, which also
// catches this list drifting from cmd/paper's.
var paperExperiments = []string{
	"claims", "figure1", "figure2", "figure3", "figure5", "table1", "mesh",
	"hypercube", "fattree", "table2", "deadlock", "avoidance", "zoo", "tables",
	"linkclass", "silicon", "frontier", "locality", "permutations", "saturation",
	"failover", "chaos", "large", "sweep", "db", "ablations",
}

func buildPaper(root, dir string) (string, error) {
	bin := filepath.Join(dir, "paper")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/paper")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/paper: %w", err)
	}
	return bin, nil
}

// child is one finished run of a program the benchmark started.
type child struct {
	out    []byte  // standard output
	rssMB  float64 // peak resident set
	heapMB float64 // largest live heap any GC cycle reported
}

// gcLive matches the heap sizes of a GODEBUG=gctrace=1 line: at GC
// start, at GC end, and live.
var gcLive = regexp.MustCompile(`(\d+)->(\d+)->(\d+) MB`)

// runChild runs bin from root with GC tracing on, so its peak live heap
// can be read from standard error.
func runChild(root, bin string, args ...string) (child, error) {
	var c child
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var msgs []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if m := gcLive.FindStringSubmatch(line); m != nil && strings.HasPrefix(line, "gc ") {
			live, _ := strconv.ParseFloat(m[3], 64)
			c.heapMB = max(c.heapMB, live)
		} else if line != "" {
			msgs = append(msgs, line)
		}
	}
	if err != nil {
		return c, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, strings.Join(msgs, "; "))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) / 1024 // kB on Linux
	}
	c.out = stdout.Bytes()
	return c, nil
}

// runPaper is the user's main job: cmd/paper regenerating every table
// and figure. Its inputs are fixed; the seed does not change them.
func runPaper(b *bench) error {
	bin, err := buildPaper(b.root, b.build)
	if err != nil {
		return err
	}
	args := b.sz.PaperArgs
	want := b.dig.Paper[paperKey(args)]

	// Set-up is the binary's start-up: its cheapest experiment, run 200
	// times per pass, so that a pass (about 0.25 s) is long enough for
	// timer and scheduler noise to average out.
	err = b.setup(func(int, *tracer) error {
		for i := 0; i < 200; i++ {
			if _, err := runChild(b.root, bin, append([]string{"-only", "figure1"}, args...)...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var rss float64
	err = b.loop(false, func(_ int, tr *tracer) error {
		var out []byte
		var heap float64
		run := func(args ...string) bool {
			c, err := runChild(b.root, bin, args...)
			out, rss, heap = append(out, c.out...), max(rss, c.rssMB), max(heap, c.heapMB)
			return b.check(err == nil, "%v", err)
		}
		if tr == nil {
			if !run(args...) {
				return nil
			}
			b.add("peak_heap_mb", "MB", "lower", heap)
		} else {
			root := tr.start(0, "job", "paper")
			for _, e := range paperExperiments {
				id := tr.start(root, "experiments.run", e)
				ok := run(append([]string{"-only", e}, args...)...)
				tr.end(id)
				if !ok {
					return nil
				}
			}
			tr.end(root)
		}
		b.check(sha(out) == want, "%s stdout sha256 %s, pinned %s", paperKey(args), sha(out), want)
		return nil
	})
	if err != nil {
		return err
	}
	b.add("peak_rss_mb", "MB", "lower", rss)
	if b.tr == nil {
		return nil
	}
	for _, s := range b.tr.snapshot() {
		if s.Op == "experiments.run" {
			b.add("experiments."+s.Name+"_s", "s", "lower", s.seconds())
		}
	}
	return paperProbe(b, !slices.Contains(args, "-quick"))
}

// paperProbe times, in this process, the analytic layers behind the
// paper's Table 1 and Table 2 on the systems those tables build. The
// paper itself runs in child processes, which the benchmark cannot trace
// inside; the runtime.* metrics of this workload are the probe's.
func paperProbe(b *bench, level3 bool) error {
	type system struct {
		name       string
		topo       topoFunc
		analytic   bool // all-pairs hops and CDG; Table 1 samples level 3 instead
		contention bool // Table 2 rows only
		restarts   int  // bisection random restarts
	}
	var systems []system
	for n := 1; n <= 3; n++ {
		if n == 3 && !level3 {
			break
		}
		for _, fat := range []bool{false, true} {
			s := system{name: fmt.Sprintf("table1 fract L%d fat=%v", n, fat), topo: fractTopo(n, fat), analytic: n <= 2, restarts: 2}
			if n == 3 {
				s.restarts = 0
			}
			systems = append(systems, s)
		}
	}
	systems = append(systems,
		system{"table2 4-2 fat tree", fatTreeTopo(4, 2, 64), true, true, 2},
		system{"table2 fat fract L2", fractTopo(2, true), true, true, 2},
		system{"table2 thin fract L2", fractTopo(2, false), true, true, 2},
		system{"table2 6x6 mesh", meshTopo(6, 6, 2), true, true, 2},
		system{"table2 3-3 fat tree", fatTreeTopo(3, 3, 64), true, true, 2},
	)

	tr := b.tr
	var m0, before, after runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := tr.start(0, "probe", "tables")
	var deps int
	var bisectionAlloc uint64
	for _, s := range systems {
		sys, err := buildLayered(tr, root, s.name, s.topo)
		if err != nil {
			return err
		}
		if s.analytic {
			var err error
			tr.do(root, "routing.hops", s.name, func() { _, err = metrics.Hops(sys.Tables) })
			if err != nil {
				return err
			}
			var rep deadlock.Report
			tr.do(root, "deadlock.cdg", s.name, func() { rep, err = deadlock.Analyze(sys.Tables) })
			if err != nil {
				return err
			}
			b.check(rep.Free, "%s: CDG has a cycle", s.name)
			deps += rep.Deps
		}
		if s.contention {
			var err error
			tr.do(root, "contention.matching", s.name, func() { _, err = contention.MaxLinkContention(sys.Tables) })
			if err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&before)
		tr.do(root, "metrics.bisection", s.name, func() { metrics.Bisection(sys.Net, s.restarts, 1) })
		runtime.ReadMemStats(&after)
		bisectionAlloc += after.TotalAlloc - before.TotalAlloc
	}
	tr.end(root)
	b.runtimeSince(&m0)

	spans := tr.snapshot()
	b.addLayer("core.build_s", spans, buildSpans...)
	for _, l := range []struct{ metric, op string }{
		{"topology.build_s", "topology.build"},
		{"routing.compile_s", "routing.compile"},
		{"routing.hops_s", "routing.hops"},
		{"router.disables_s", "router.disables"},
		{"deadlock.cdg_s", "deadlock.cdg"},
		{"contention.matching_s", "contention.matching"},
		{"metrics.bisection_s", "metrics.bisection"},
	} {
		b.addLayer(l.metric, spans, l.op)
	}
	b.add("deadlock.cdg_deps", "count", "lower", float64(deps))
	b.add("metrics.bisection_alloc_mb", "MB", "lower", float64(bisectionAlloc)/(1<<20))
	return nil
}
