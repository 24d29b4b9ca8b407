package experiments

import (
	"sync"

	"repro/internal/core"
	"repro/internal/runner"
)

// Lab is one paper run: its settings and its systems. Workers and Stats
// apply to every experiment the Lab runs. Experiments name their systems
// by core.ParseSystem spec; the Lab builds each spec once, on first use,
// and hands every later caller the same *core.System, so a system's
// once-only contention and bisection are shared too. Two spellings of one
// system are two entries. The zero Lab is ready to use.
//
// A Lab is safe for concurrent use, so experiments can run side by side:
// callers of one spec wait for its single build and share its system, or
// its error. A Lab lives as long as its run; there is no process-wide
// cache.
type Lab struct {
	// Workers is the worker-pool size of every fan-out; <= 0 means
	// GOMAXPROCS. Rows are identical for any value.
	Workers int
	// Stats, when non-nil, accumulates the cost of every simulation run.
	Stats *runner.Stats

	mu    sync.Mutex
	built map[string]*labEntry
}

// labEntry is one spec's build, done once however many callers race to it.
type labEntry struct {
	once sync.Once
	sys  *core.System
	err  error
}

// System returns the system spec builds, building it on the first call.
func (l *Lab) System(spec string) (*core.System, error) {
	l.mu.Lock()
	e, ok := l.built[spec]
	if !ok {
		if l.built == nil {
			l.built = make(map[string]*labEntry)
		}
		e = new(labEntry)
		l.built[spec] = e
	}
	l.mu.Unlock()
	e.once.Do(func() { e.sys, _, e.err = core.ParseSystem(spec) })
	return e.sys, e.err
}

// namedSpec is a system under the display name an experiment prints.
type namedSpec struct{ name, spec string }

// namedSystem is a built namedSpec.
type namedSystem struct {
	name string
	sys  *core.System
}

// systems builds each named spec.
func (l *Lab) systems(specs ...namedSpec) ([]namedSystem, error) {
	out := make([]namedSystem, len(specs))
	for i, s := range specs {
		sys, err := l.System(s.spec)
		if err != nil {
			return nil, err
		}
		out[i] = namedSystem{s.name, sys}
	}
	return out, nil
}
