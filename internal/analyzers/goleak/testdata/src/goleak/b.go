// Second fixture file: spawned named functions with the obligation on a
// parameter (mapped back to the caller's argument), and the struct-field
// WaitGroup pattern where another method owns the Wait — a worker pool's
// shape.
package goleak

import "sync"

func worker(wg *sync.WaitGroup) {
	defer wg.Done()
}

// okParam joins a named-function spawn through the mapped argument.
func okParam() {
	var wg sync.WaitGroup
	wg.Add(1)
	go worker(&wg)
	wg.Wait()
}

// leakParam maps the same obligation but never joins it.
func leakParam() {
	var wg sync.WaitGroup
	wg.Add(1)
	go worker(&wg) // want `Wait on leakParam.wg is not guaranteed on every exit path`
}

// pool is the worker-pool shape: the Wait lives in close, not next to the
// spawn, so the field rule must find it package-wide.
type pool struct {
	wg   sync.WaitGroup
	jobs chan func()
}

func newPool() *pool {
	p := &pool{jobs: make(chan func())}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for f := range p.jobs {
			f()
		}
	}()
	return p
}

func (p *pool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// leakyPool has the same spawn but nobody in the package ever Waits.
type leakyPool struct {
	wg sync.WaitGroup
}

func newLeakyPool() *leakyPool {
	p := &leakyPool{}
	p.wg.Add(1)
	go func() { // want `no Wait on goleak.leakyPool.wg anywhere in the package`
		defer p.wg.Done()
	}()
	return p
}
