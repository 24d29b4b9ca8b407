package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
)

// host identifies the machine and toolchain a result was measured on.
// Compare mode refuses to put results from different hosts side by side.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

func hostFacts(root string) host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(root),
	}
}

// sameMachine reports whether two results can be compared: everything
// but the commit must match.
func (h host) sameMachine(o host) bool {
	h.GitCommit, o.GitCommit = "", ""
	return h == o
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from root/.git without running git, which would
// search the parent directories; it is "unknown" outside a checkout.
func gitCommit(root string) string {
	dir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(dir, "packed-refs"))
	for _, line := range bytes.Split(packed, []byte("\n")) {
		if sha, name, ok := strings.Cut(string(line), " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// peakRSSMB is this process's peak resident set (VmHWM) in MB.
// It is informational only: how far a Go program's resident set peaks
// depends on when the collector and the scavenger happen to run, and on a
// shared 2-vCPU Xeon virtual machine it varied by a third between
// identical runs.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// heapWatch records the largest live heap the GC cycles of this process
// measure, from a finalizer that re-arms itself on every cycle. The live
// heap is the memory the program's data needs; unlike the resident set it
// does not depend on when the scavenger returns pages.
type heapWatch struct {
	peak atomic.Uint64
	done atomic.Bool
}

// gcSentinel holds a pointer so it is not a tiny allocation, whose
// finalizer could wait on its neighbours.
type gcSentinel struct {
	_ *byte
	_ [8]byte
}

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		v := liveHeap()
		for cur := w.peak.Load(); v > cur && !w.peak.CompareAndSwap(cur, v); cur = w.peak.Load() {
		}
		if !w.done.Load() {
			w.arm()
		}
	})
}

// take returns the peak live heap since the previous call, in MB, or the
// last cycle's live heap when no cycle has finished since.
func (w *heapWatch) take() float64 {
	v := w.peak.Swap(0)
	if v == 0 {
		v = liveHeap()
	}
	return float64(v) / (1 << 20)
}

// stop stops re-arming; the finalizer of the current cycle still runs.
func (w *heapWatch) stop() { w.done.Store(true) }

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
