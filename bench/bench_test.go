package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python: statistics.median and
	// statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.2, 1.5, 9.9, 4.4}, 1.925, 3.8, 8.525},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2.5, 7.25, 1, 8, 3}, 1.75, 3, 7.625},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q3 := quartiles(c.data)
		if m := median(c.data); !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		data []float64
		q    float64
		want float64
	}{
		{hundred, 50, 50},
		{hundred, 95, 95},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{[]float64{7}, 95, 7},
		{[]float64{1, 2}, 50, 1},
		{[]float64{1, 2}, 51, 2},
	} {
		if got := percentile(c.data, c.q); got != c.want {
			t.Errorf("p%v of %d samples = %v, want %v", c.q, len(c.data), got, c.want)
		}
	}
}

func TestGainNeedsNineOfTenPairsAndAGapPastTheIQR(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	faster := make([]float64, len(parent))
	for i, p := range parent {
		faster[i] = p - 1
	}
	if w := pairWins(parent, faster, false); w != 10 {
		t.Fatalf("wins %d, want 10", w)
	}
	if !isGain(parent, faster, false) {
		t.Error("ten wins and a gap of 1 against an IQR of 0.2: not a gain")
	}

	eight := append([]float64(nil), faster...)
	eight[0], eight[1] = parent[0]+1, parent[1] // one loss, one tie
	if w := pairWins(parent, eight, false); w != 8 {
		t.Fatalf("wins %d, want 8", w)
	}
	if isGain(parent, eight, false) {
		t.Error("8 of 10 pairs counted as a gain")
	}

	nine := append([]float64(nil), faster...)
	nine[0] = parent[0]
	if !isGain(parent, nine, false) {
		t.Error("9 of 10 pairs with a wide gap not counted as a gain")
	}

	small := make([]float64, len(parent))
	for i, p := range parent {
		small[i] = p - 0.05 // wins every pair, but inside the parent's IQR
	}
	if isGain(parent, small, false) {
		t.Error("a gap smaller than the parent's IQR counted as a gain")
	}

	higher := make([]float64, len(parent))
	for i, p := range parent {
		higher[i] = p + 1
	}
	if !isGain(parent, higher, true) || isGain(parent, higher, false) {
		t.Error("direction of better not respected")
	}
}

func TestJudge(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higher         bool
		want           string
	}{
		{"same", base, base, false, "unchanged"},
		{"slower past the bound", base, scale(1.2), false, "regression"},
		{"slower inside the bound", base, scale(1.05), false, "unchanged"},
		{"faster", base, scale(0.8), false, "gain"},
		{"lower throughput", base, scale(0.8), true, "regression"},
		{"too noisy", noisy, noisy, false, "unresolved"},
	} {
		v := verdict{parent: c.parent, change: c.change, bound: 0.1}
		v.judge(c.higher)
		if v.outcome != c.want {
			t.Errorf("%s: %s, want %s", c.name, v.outcome, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	// root 0..100 has children a 10..40 and b 30..60 (overlapping, as
	// parallel workers), and c 90..120, which runs past the root's end.
	// a has one child 15..25.
	spans := []span{
		{ID: 1, Op: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: "sim.run", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: "sim.run", Start: 30, End: 60},
		{ID: 4, Parent: 1, Op: "sim.build", Start: 90, End: 120},
		{ID: 5, Parent: 2, Op: "sim.finish", Start: 15, End: 25},
		{ID: 6, Op: "job", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 20, 3: 30, 4: 30, 5: 10, 6: 10} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
	// sim.run self time 50 ns, all inside one of the two roots.
	if v, ok := perRoot(spans, "sim.run"); !ok || !near(v, 50e-9) {
		t.Errorf("perRoot(sim.run) = %v, %v; want 5e-08", v, ok)
	}
	// Both roots hold a job span: (40+10) ns over two roots.
	if v, ok := perRoot(spans, "job"); !ok || !near(v, 25e-9) {
		t.Errorf("perRoot(job) = %v, %v; want 2.5e-08", v, ok)
	}
	if _, ok := perRoot(spans, "serve.submit"); ok {
		t.Error("perRoot found an op no span has")
	}
}

// node is a 64-byte heap object with a pointer, so collections mark it.
type node struct {
	next *node
	_    [56]byte
}

var spinSink atomic.Uint64

// spin is a fixed amount of CPU work.
func spin(rounds int) {
	h := uint64(1)
	for i := 0; i < rounds; i++ {
		h = (h ^ uint64(i)) * 0x9e3779b97f4a7c15
	}
	spinSink.Add(h)
}

// leftover is a job that, with heavy set, is slower in the ways a change
// to the program might be, and leaves work running when it returns: twice
// the CPU work, 128 MB of garbage, a collection still marking a 64 MB
// list linked in random memory order, and a goroutine still computing,
// which idle waits for as the campaign workload waits for its server.
type leftover struct {
	rounds int
	heavy  bool
	head   *node // reachable while the collection the job starts runs
	wg     sync.WaitGroup
}

func (l *leftover) job(int, *tracer) error {
	l.head = nil
	if !l.heavy {
		spin(l.rounds)
		return nil
	}
	spin(2 * l.rounds)
	var garbage *node
	for i := 0; i < 1<<21; i++ {
		garbage = &node{next: garbage}
		if i%(1<<16) == 0 {
			garbage = nil
		}
	}
	nodes := make([]*node, 1<<20)
	for i := range nodes {
		nodes[i] = &node{}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	for i := 1; i < len(nodes); i++ {
		nodes[i-1].next = nodes[i]
	}
	l.head = nodes[0]
	go runtime.GC()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		spin(l.rounds / 2)
	}()
	return nil
}

func (l *leftover) idle() error {
	l.wg.Wait()
	return nil
}

// TestScalingKeepsProgramSlowdowns injects a slowdown into a job and
// checks that job_s rises by the same ratio as job_wall_s: the work a
// slower program leaves running must not slow the reference kernel, or a
// regression would cancel part of itself.
func TestScalingKeepsProgramSlowdowns(t *testing.T) {
	if testing.Short() {
		t.Skip("times the reference kernel")
	}
	run := func(heavy bool) (wall, scaled float64) {
		cal, err := newCalibrator(runtime.NumCPU())
		if err != nil {
			t.Fatal(err)
		}
		defer cal.close()
		cal.every = 0
		l := &leftover{rounds: 1 << 26, heavy: heavy}
		b := &bench{workload: "test", sz: sizes{MinJobs: 4}, workers: runtime.NumCPU(),
			metrics: map[string]*metric{}, heap: watchHeap(), cal: cal, idle: l.idle}
		defer b.heap.stop()
		if err := b.loop(false, l.job); err != nil {
			t.Fatal(err)
		}
		b.scale()
		return median(b.metrics["job_wall_s"].samples), median(b.metrics["job_s"].samples)
	}
	// Alternate light and slow runs and take the median of the ratios, so
	// a drift in the host's own speed does not decide the outcome.
	var wallRatio, scaledRatio []float64
	for k := 0; k < 3; k++ {
		lw, ls := run(false)
		hw, hs := run(true)
		wallRatio, scaledRatio = append(wallRatio, hw/lw), append(scaledRatio, hs/ls)
	}
	w, s := median(wallRatio), median(scaledRatio)
	t.Logf("slow/light: wall %.3f, scaled %.3f", w, s)
	if w < 1.8 {
		t.Fatalf("the injected slowdown moved the wall time only %.2fx", w)
	}
	// Without settle's collection, or without settle, the scaled ratio fell
	// 30-45% short of the wall ratio on a 2-vCPU Xeon; with it, the two
	// were within 7%.
	if math.Abs(s/w-1) > 0.15 {
		t.Errorf("the slowdown moved the wall time %.3fx but the scaled time %.3fx", w, s)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do(0, "sim.run", "", func() { ran = true })
	if id := tr.start(0, "job", ""); id != 0 || !ran || tr.snapshot() != nil {
		t.Errorf("nil tracer: id %d, ran %v, spans %v", id, ran, tr.snapshot())
	}
	tr = newTracer()
	root := tr.start(0, "job", "x")
	tr.do(root, "sim.run", "y", func() {})
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Op != "sim.run" || s[0].End < s[1].End {
		t.Errorf("spans %+v", s)
	}
}

func TestPairUpNeedsAlternatingPairs(t *testing.T) {
	mk := func(starts ...int64) []record {
		var out []record
		for _, s := range starts {
			out = append(out, record{StartUnixNS: s})
		}
		return out
	}
	// Parent first in even pairs, change first in odd ones.
	var p, c []int64
	for k := int64(0); k < minPairs; k++ {
		a, b := 10*k, 10*k+1
		if k%2 == 1 {
			a, b = b, a
		}
		p, c = append(p, a), append(c, b)
	}
	ps, cs, err := pairUp(mk(p...), mk(c...))
	if err != nil || len(ps) != minPairs || len(cs) != minPairs {
		t.Fatalf("alternating pairs refused: %v", err)
	}
	for i := range ps {
		if ps[i].StartUnixNS/10 != cs[i].StartUnixNS/10 {
			t.Errorf("pair %d joins runs %d and %d", i, ps[i].StartUnixNS, cs[i].StartUnixNS)
		}
	}
	if _, _, err := pairUp(mk(p[:minPairs-1]...), mk(c[:minPairs-1]...)); err == nil {
		t.Error("fewer than minPairs pairs accepted")
	}
	same := append([]int64(nil), p...)
	for k := range same {
		same[k] = 10 * int64(k) // parent always first
	}
	csame := append([]int64(nil), same...)
	for k := range csame {
		csame[k]++
	}
	if _, _, err := pairUp(mk(same...), mk(csame...)); err == nil {
		t.Error("pairs that never alternate which side runs first accepted")
	}
	blocks := make([]int64, minPairs)
	cblocks := make([]int64, minPairs)
	for k := range blocks {
		blocks[k], cblocks[k] = int64(k), int64(100+k) // all parent runs, then all change runs
	}
	if _, _, err := pairUp(mk(blocks...), mk(cblocks...)); err == nil {
		t.Error("unpaired blocks of runs accepted")
	}
}

func TestCompareRefusesOtherHostsAndSizes(t *testing.T) {
	cfg := config{EndToEnd: []metricDef{{Name: "job_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	runs := func(h host, sz string, offset int64) []record {
		var out []record
		for k := int64(0); k < minPairs; k++ {
			start := 10*k + offset
			if k%2 == 1 {
				start = 10*k + 1 - offset
			}
			out = append(out, record{
				Workload: "fract", StartUnixNS: start, Host: h, Sizes: sizes{Name: sz},
				Attempted: 1, Metrics: map[string]summary{"job_s": {Unit: "s", Better: "lower", Median: 1}},
			})
		}
		return out
	}
	h := host{NProc: 2, GOMAXPROCS: 2, CPUModel: "x", GoVersion: "go1.24.0", GitCommit: "a"}
	other := h
	other.GitCommit = "b"
	vs, errRate, err := compare(cfg, runs(h, "default", 0), runs(other, "default", 1))
	if err != nil || len(vs) != 1 || vs[0].outcome != "unchanged" || len(errRate) != 0 {
		t.Fatalf("same host, other commit: %v %+v %v", err, vs, errRate)
	}
	cpus := h
	cpus.NProc = 4
	if _, _, err := compare(cfg, runs(h, "default", 0), runs(cpus, "default", 1)); err == nil {
		t.Error("runs from hosts with different nproc compared")
	}
	if _, _, err := compare(cfg, runs(h, "default", 0), runs(h, "smoke", 1)); err == nil {
		t.Error("runs with different sizes compared")
	}
	failing := runs(h, "default", 1)
	failing[3].Failed = 1
	if _, errRate, err := compare(cfg, runs(h, "default", 0), failing); err != nil || len(errRate) != 1 {
		t.Errorf("higher error rate not reported: %v %v", err, errRate)
	}
}

// TestSmoke runs every workload at smoke sizes, untraced and (except
// paper, whose traced run regenerates the paper twice) traced, and
// fails on any output-check failure or missing metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/paper")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig(root)
	if err != nil {
		t.Fatal(err)
	}
	build := t.TempDir()
	for _, w := range cfg.Workloads {
		for _, trace := range []int{0, 1} {
			if trace == 1 && w.Name == "paper" {
				continue
			}
			o := options{workload: w.Name, size: "smoke", seed: 3, seconds: 0, trace: trace, build: build}
			if code := runOne(root, cfg, o); code != 0 {
				t.Errorf("%s trace=%d: exit code %d", w.Name, trace, code)
			}
		}
	}
}
