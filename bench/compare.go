package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
)

// minPairs is the fewest parent/change pairs a comparison accepts.
const minPairs = 10

// verdict is the comparison of one metric on one workload.
type verdict struct {
	workload, metric, unit string
	parent, change         []float64 // per-run medians, pair order
	wins                   int
	bound                  float64
	outcome                string // gain, regression, unresolved or unchanged
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// compareFiles compares a parent's result file with a change's and
// returns the exit code: 0 when nothing regressed, 1 on a regression or
// a higher error rate, 2 when the files cannot be compared.
func compareFiles(w io.Writer, cfg config, parentPath, changePath string) int {
	parent, err := readRecords(parentPath)
	if err == nil {
		var change []record
		if change, err = readRecords(changePath); err == nil {
			var vs []verdict
			var errRate []string
			if vs, errRate, err = compare(cfg, parent, change); err == nil {
				return report(w, vs, errRate)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "bench: compare:", err)
	return 2
}

// compare pairs the runs of each workload and judges every end-to-end
// metric of BENCHMARK.json, the only place bounds are declared. It
// refuses results from different hosts or sizes, and fewer than minPairs
// alternating pairs. errRate names the workloads whose change failed a
// larger share of its checks than the parent.
func compare(cfg config, parent, change []record) (vs []verdict, errRate []string, err error) {
	if len(parent) == 0 || len(change) == 0 {
		return nil, nil, fmt.Errorf("no untraced runs to compare")
	}
	ref := parent[0]
	for _, r := range append(append([]record(nil), parent...), change...) {
		if !r.Host.sameMachine(ref.Host) {
			return nil, nil, fmt.Errorf("runs from different hosts: %+v and %+v", ref.Host, r.Host)
		}
		if !reflect.DeepEqual(r.Sizes, ref.Sizes) {
			return nil, nil, fmt.Errorf("runs with different sizes: %s and %s", ref.Sizes.Name, r.Sizes.Name)
		}
	}
	byWorkload := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	var names []string
	for w := range pw {
		if cw[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("the files share no workload")
	}
	for _, w := range names {
		ps, cs, err := pairUp(pw[w], cw[w])
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w, err)
		}
		if errorRate(cs) > errorRate(ps) {
			errRate = append(errRate, w)
		}
		for _, d := range cfg.EndToEnd {
			v := verdict{workload: w, metric: d.Name, unit: d.Unit, bound: d.Bound}
			for i := range ps {
				p, okP := ps[i].Metrics[d.Name]
				c, okC := cs[i].Metrics[d.Name]
				if !okP || !okC {
					return nil, nil, fmt.Errorf("%s: metric %s missing from a run", w, d.Name)
				}
				v.parent, v.change = append(v.parent, p.Median), append(v.change, c.Median)
			}
			v.judge(d.Better == "higher")
			vs = append(vs, v)
		}
	}
	return vs, errRate, nil
}

// pairUp checks that the runs of both sides alternate in time — every
// consecutive two runs hold one of each side, and the side that runs
// first alternates from pair to pair — and returns them in pair order.
func pairUp(parent, change []record) (ps, cs []record, err error) {
	if len(parent) != len(change) || len(parent) < minPairs {
		return nil, nil, fmt.Errorf("%d parent and %d change runs; need at least %d pairs", len(parent), len(change), minPairs)
	}
	type run struct {
		r        record
		isParent bool
	}
	var all []run
	for _, r := range parent {
		all = append(all, run{r, true})
	}
	for _, r := range change {
		all = append(all, run{r, false})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].r.StartUnixNS < all[j].r.StartUnixNS })
	for k := 0; k < len(all); k += 2 {
		a, b := all[k], all[k+1]
		if a.isParent == b.isParent {
			return nil, nil, fmt.Errorf("runs %d and %d in time order are both from the same side; pairs must alternate", k+1, k+2)
		}
		if k > 0 && a.isParent == all[k-2].isParent {
			return nil, nil, fmt.Errorf("pair %d starts with the same side as pair %d; alternate which side runs first", k/2+1, k/2)
		}
		if !a.isParent {
			a, b = b, a
		}
		ps, cs = append(ps, a.r), append(cs, b.r)
	}
	return ps, cs, nil
}

func errorRate(rs []record) float64 {
	var a, f int
	for _, r := range rs {
		a, f = a+r.Attempted, f+r.Failed
	}
	return float64(f) / float64(max(a, 1))
}

// judge sets the outcome. A median worse than the parent's by more than
// the bound is a regression. Otherwise, when either side's spread
// exceeds the bound, the metric is unresolved unless every change run
// reads better than every parent run. A gain needs nine tenths of the
// pairs won and a median gap wider than the parent's interquartile
// range.
func (v *verdict) judge(higherBetter bool) {
	pm, cm := median(v.parent), median(v.change)
	worse := (cm - pm) / pm
	if higherBetter {
		worse = -worse
	}
	v.wins = pairWins(v.parent, v.change, higherBetter)
	allBetter := true
	for _, p := range v.parent {
		for _, c := range v.change {
			allBetter = allBetter && ((higherBetter && c > p) || (!higherBetter && c < p))
		}
	}
	switch {
	case worse > v.bound:
		v.outcome = "regression"
	case (spread(v.parent) > v.bound || spread(v.change) > v.bound) && !allBetter:
		v.outcome = "unresolved"
	case isGain(v.parent, v.change, higherBetter):
		v.outcome = "gain"
	default:
		v.outcome = "unchanged"
	}
}

func report(w io.Writer, vs []verdict, errRate []string) int {
	code := 0
	fmt.Fprintf(w, "%-15s %-17s %-6s %30s %7s %30s %7s %8s %6s %6s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3]", "spread", "change median [q1, q3]", "spread", "delta", "wins", "bound", "verdict")
	side := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
	}
	for _, v := range vs {
		pm, cm := median(v.parent), median(v.change)
		fmt.Fprintf(w, "%-15s %-17s %-6s %30s %6.1f%% %30s %6.1f%% %+7.1f%% %3d/%-2d %5.0f%%  %s\n",
			v.workload, v.metric, v.unit, side(v.parent), 100*spread(v.parent), side(v.change), 100*spread(v.change),
			100*(cm-pm)/pm, v.wins, len(v.parent), 100*v.bound, v.outcome)
		if v.outcome == "regression" {
			code = 1
		}
	}
	for _, wl := range errRate {
		fmt.Fprintf(w, "%s: the change fails a larger share of its output checks than the parent\n", wl)
		code = 1
	}
	return code
}
