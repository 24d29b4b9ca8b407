package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Parent is 0 for a root span: a set-up pass, a job or a probe.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`   // layer.operation, e.g. "sim.run"
	Name   string `json:"name"` // the input, e.g. a topology spec or a rate
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally. It is safe for
// concurrent use: runner.Map workers open spans of their own.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent and returns its id.
func (t *tracer) start(parent int, op, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(parent int, op, name string, fn func()) {
	id := t.start(parent, op, name)
	fn()
	t.end(id)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of it covered by its child spans. Children that overlap
// (parallel workers) are counted once.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, lo, hi := int64(0), int64(0), int64(-1)
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = a, b
			} else {
				hi = max(hi, b)
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// perRoot sums the self time, in seconds, of the spans whose op is one
// of ops, and divides it by the number of root spans that contain at
// least one of them: the layer's cost per pass that enters the layer.
// It returns false when no span matches.
func perRoot(spans []span, ops ...string) (float64, bool) {
	want := map[string]bool{}
	for _, op := range ops {
		want[op] = true
	}
	parent := make(map[int]int, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	rootOf := func(id int) int {
		for parent[id] != 0 {
			id = parent[id]
		}
		return id
	}
	self := selfTimes(spans)
	roots := map[int]bool{}
	var total int64
	for _, s := range spans {
		if want[s.Op] {
			total += self[s.ID]
			roots[rootOf(s.ID)] = true
		}
	}
	if len(roots) == 0 {
		return 0, false
	}
	return float64(total) / 1e9 / float64(len(roots)), true
}

// durations returns the durations, in seconds, of the spans with op.
func durations(spans []span, op string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Op == op {
			out = append(out, s.seconds())
		}
	}
	return out
}

// writeTrace writes the spans with the run's identity as one JSON file.
func writeTrace(path string, head record, spans []span) error {
	b, err := json.Marshal(struct {
		record
		Spans []span `json:"spans"`
	}{head, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
