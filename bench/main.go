// Command bench is the repository's end-to-end benchmark. It runs one
// workload closed-loop for a fixed time, checks every output the program
// produces, and prints each metric by name with its unit, median, min,
// max and sample count. The last line of standard output is a JSON
// summary. Build and run it from the repository root with run.sh:
//
//	bash bench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                          # every workload, each in its own process
//	bash bench/run.sh -trace 1 -workload fract # per-layer metrics from a traced run
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// BENCHMARK.json at the root names the workloads and the metrics the
// summary line carries; README.md explains them.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// config is the part of BENCHMARK.json the benchmark reads.
type config struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadConfig(root string) (config, error) {
	var c config
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return c, nil
}

// summary is one metric of one run.
type summary struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// record is one run as the result file stores it: one JSON line, with
// the host and the sizes, so no number is compared across hosts or
// sizes by accident.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	StartUnixNS int64              `json:"start_unix_ns"`
	Host        host               `json:"host"`
	Sizes       sizes              `json:"sizes"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]summary `json:"metrics,omitempty"`
}

type metric struct {
	unit, better string
	samples      []float64
}

// bench is the state of one workload run. Workload code calls add and
// check from the driving goroutine only.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	sz       sizes
	root     string
	build    string // directory for binaries and temporary files
	dig      digests
	workers  int     // nproc: GOMAXPROCS, runner pool width and point workers
	tr       *tracer // nil unless this is a traced run
	heap     *heapWatch
	cal      *calibrator
	idle     func() error // waits until the workload has no work in flight; may be nil

	names     []string
	metrics   map[string]*metric
	attempted int
	failed    int
}

// add records samples of a metric.
func (b *bench) add(name, unit, better string, vs ...float64) {
	if len(vs) == 0 {
		return
	}
	m := b.metrics[name]
	if m == nil {
		m = &metric{unit: unit, better: better}
		b.metrics[name] = m
		b.names = append(b.names, name)
	}
	m.samples = append(m.samples, vs...)
}

// check counts one checked output and reports a mismatch on stderr.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: output check failed: %s\n", b.workload, fmt.Sprintf(format, args...))
	}
	return ok
}

// settle waits until the program is quiet: the workload has no work in
// flight, and a forced collection has finished the marking and sweeping
// that earlier work left. Every timed call ends with it, so that work
// counts toward the call that caused it, and the reference kernel, which
// runs between calls, never shares the CPUs with it.
func (b *bench) settle() error {
	if b.idle != nil {
		if err := b.idle(); err != nil {
			return err
		}
	}
	runtime.GC()
	return nil
}

// setup times fn sz.SetupReps times, each up to the program being quiet
// again, as setup_wall_s.
func (b *bench) setup(fn func(rep int, tr *tracer) error) error {
	if err := b.settle(); err != nil {
		return err
	}
	for rep := 0; rep < b.sz.SetupReps; rep++ {
		b.cal.sample()
		t := time.Now()
		err := fn(rep, b.tr)
		if err == nil {
			err = b.settle()
		}
		if err != nil {
			return err
		}
		b.add("setup_wall_s", "s", "lower", time.Since(t).Seconds())
	}
	return nil
}

// loop runs job closed-loop and records each call's wall time, up to the
// program being quiet again, as job_wall_s: at least sz.MinJobs calls,
// then more while one more call of the median length so far still ends
// inside the time budget. In a traced run the calls alternate untraced and
// traced (tr non-nil); only untraced calls count toward job_wall_s, and
// the difference gives trace.overhead_pct. With inProcess set, each
// untraced call's peak live heap is recorded as peak_heap_mb, and a traced
// call's Go allocation and GC counts, the closing collection included, as
// the runtime.* metrics.
func (b *bench) loop(inProcess bool, job func(i int, tr *tracer) error) error {
	var plain, traced []float64
	need := b.sz.MinJobs
	if b.tr != nil {
		need = max(need, 2)
	}
	start := time.Now()
	for i := 0; ; i++ {
		var tr *tracer
		if b.tr != nil && i%2 == 1 {
			tr = b.tr
		}
		var m0 runtime.MemStats
		if tr != nil && inProcess {
			runtime.ReadMemStats(&m0)
		}
		b.cal.sample()
		b.heap.take()
		t := time.Now()
		err := job(i, tr)
		if err == nil {
			err = b.settle()
		}
		if err != nil {
			return err
		}
		d := time.Since(t).Seconds()
		if tr == nil {
			plain = append(plain, d)
			if inProcess {
				b.add("peak_heap_mb", "MB", "lower", b.heap.take())
			}
		} else {
			traced = append(traced, d)
			if inProcess {
				b.runtimeSince(&m0)
			}
		}
		all := append(append([]float64(nil), plain...), traced...)
		if i+1 >= need && time.Since(start).Seconds()+median(all) > b.budget.Seconds() {
			break
		}
	}
	b.cal.sample()
	b.add("job_wall_s", "s", "lower", plain...)
	if len(traced) > 0 {
		b.add("trace.overhead_pct", "%", "lower", 100*(median(traced)/median(plain)-1))
	}
	return nil
}

// scale records host_speed, and job_s and setup_s: the wall times at the
// reference host speed (calibrate.go).
func (b *bench) scale() {
	speed := b.cal.speed()
	b.add("host_speed", "ratio", "higher", speed)
	for _, m := range []string{"job", "setup"} {
		if w := b.metrics[m+"_wall_s"]; w != nil {
			for _, v := range w.samples {
				b.add(m+"_s", "s", "lower", v*speed)
			}
		}
	}
}

// runtimeSince records the Go runtime's allocation and GC work since m0.
func (b *bench) runtimeSince(m0 *runtime.MemStats) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	b.add("runtime.alloc_mb", "MB", "lower", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	b.add("runtime.gc_cycles", "count", "lower", float64(m1.NumGC-m0.NumGC))
	b.add("runtime.gc_pause_ms", "ms", "lower", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
}

// tempDir makes a fresh directory under the build directory.
func (b *bench) tempDir() (string, error) {
	dir := filepath.Join(b.build, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, b.workload+"-")
}

var workloads = map[string]func(*bench) error{
	"paper":          runPaper,
	"certify-faults": runCertify,
	"campaign":       runCampaign,
	"fract":          runFract,
}

type options struct {
	workload, size, out, traceOut, build string
	seed                                 int64
	seconds, trace                       int
	update, compare                      bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper, certify-faults, campaign or fract (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "time budget of the measured loop, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default <build>/trace-<workload>-<seed>.json)")
	flag.StringVar(&o.size, "size", "default", "input sizes: smoke or default")
	flag.StringVar(&o.out, "out", "", "append the run's result record to this JSON-lines file")
	flag.StringVar(&o.build, "build", ".bench_build", "directory for binaries and temporary files")
	flag.BoolVar(&o.update, "update", false, "regenerate testdata/digests.json from the current program")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare parent.jsonl change.jsonl")
	flag.Parse()
	os.Exit(run(o))
}

func run(o options) int {
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	cfg, err := loadConfig(root)
	if err != nil {
		return fail(err)
	}
	if o.build, err = filepath.Abs(o.build); err != nil {
		return fail(err)
	}
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			return fail(errors.New("-compare needs two result files"))
		}
		return compareFiles(os.Stdout, cfg, flag.Arg(0), flag.Arg(1))
	case o.update:
		if err := updateDigests(root, o.build); err != nil {
			return fail(err)
		}
		return 0
	case o.workload == "":
		return runAll(cfg, o)
	}
	return runOne(root, cfg, o)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// findRoot walks up from the working directory to the module that holds
// the program: the go.mod that declares "module repro".
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module repro\n")) {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("repository root not found: no go.mod declaring module repro above the working directory")
		}
		dir = up
	}
}

// runAll runs every workload in a fresh child process with the same
// flags and reports failure if any of them fails.
func runAll(cfg config, o options) int {
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	code := 0
	for _, w := range cfg.Workloads {
		args := []string{"-workload", w.Name}
		flag.Visit(func(f *flag.Flag) {
			v := f.Value.String()
			if f.Name == "trace-out" {
				v = strings.TrimSuffix(v, ".json") + "-" + w.Name + ".json"
			}
			args = append(args, "-"+f.Name+"="+v)
		})
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

func runOne(root string, cfg config, o options) int {
	wl := workloads[o.workload]
	if wl == nil {
		return fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	sz, err := sizesFor(o.size)
	if err != nil {
		return fail(err)
	}
	dig, err := loadDigests(root)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(o.build, 0o755); err != nil {
		return fail(err)
	}
	b := &bench{
		workload: o.workload, seed: o.seed, budget: time.Duration(o.seconds) * time.Second,
		sz: sz, root: root, build: o.build, dig: dig, workers: runtime.NumCPU(),
		metrics: map[string]*metric{}, heap: watchHeap(),
	}
	if b.cal, err = newCalibrator(b.workers); err != nil {
		return fail(err)
	}
	defer b.cal.close()
	if o.trace != 0 {
		b.tr = newTracer()
	}
	rec := record{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: b.tr != nil,
		StartUnixNS: time.Now().UnixNano(), Host: hostFacts(root), Sizes: sz,
	}
	defer b.heap.stop()
	if err := wl(b); err != nil {
		return fail(fmt.Errorf("%s: %w", o.workload, err))
	}
	b.scale()

	rec.Correct, rec.Attempted, rec.Failed = b.failed == 0, b.attempted, b.failed
	rec.Metrics = map[string]summary{}
	for name, m := range b.metrics {
		rec.Metrics[name] = summary{
			Unit: m.unit, Better: m.better, N: len(m.samples),
			Median: median(m.samples), Min: slices.Min(m.samples), Max: slices.Max(m.samples),
		}
	}
	printTable(os.Stdout, rec, b.names)

	if b.tr != nil {
		path := o.traceOut
		if path == "" {
			path = filepath.Join(b.build, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		}
		if err := writeTrace(path, rec, b.tr.snapshot()); err != nil {
			return fail(err)
		}
	}
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			return fail(err)
		}
	}

	// The summary line carries exactly the metrics BENCHMARK.json lists
	// for this kind of run.
	defs := cfg.EndToEnd
	if b.tr != nil {
		defs = cfg.PerLayer
	}
	line := map[string]any{}
	for _, d := range defs {
		s, ok := rec.Metrics[d.Name]
		if !ok || math.IsNaN(s.Median) {
			return fail(fmt.Errorf("%s: metric %s was not measured", o.workload, d.Name))
		}
		line[d.Name] = map[string]any{"value": s.Median, "unit": d.Unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": line,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	if !rec.Correct {
		return 1
	}
	return 0
}

func printTable(w io.Writer, rec record, order []string) {
	h := rec.Host
	fmt.Fprintf(w, "workload %s  seed %d  size %s  seconds %d  trace %v\n", rec.Workload, rec.Seed, rec.Sizes.Name, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "host %d CPUs (GOMAXPROCS %d), %s, %s, commit %s\n", h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.GitCommit)
	fmt.Fprintf(w, "checks %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	fmt.Fprintf(w, "  %-34s %-7s %14s %14s %14s %5s\n", "metric", "unit", "median", "min", "max", "n")
	names := append([]string(nil), order...)
	sort.SliceStable(names, func(i, j int) bool { return layerRank(names[i]) < layerRank(names[j]) })
	for _, name := range names {
		s := rec.Metrics[name]
		fmt.Fprintf(w, "  %-34s %-7s %14.6g %14.6g %14.6g %5d\n", name, s.Unit, s.Median, s.Min, s.Max, s.N)
	}
}

// layerRank puts end-to-end metrics (no layer prefix) first.
func layerRank(name string) int {
	if strings.Contains(name, ".") {
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
