package experiments

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// TestLabConcurrentSystem has eight goroutines ask one Lab for each of
// three specs at once, the way concurrent experiments do. Every caller of
// a spec must get the one system the Lab built, and a spec that fails
// must give every caller the same error. Run under -race it also checks
// that the Lab's map is guarded.
func TestLabConcurrentSystem(t *testing.T) {
	specs := []string{"ring:size=4", "mesh:cols=3,rows=3,nodes=1", "ring:size=1"}
	const callers = 8
	var lab Lab
	type got struct {
		sys *core.System
		err error
	}
	res := make([][callers]got, len(specs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for s, spec := range specs {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				sys, err := lab.System(spec)
				res[s][c] = got{sys, err}
			}()
		}
	}
	close(start)
	wg.Wait()

	for s, spec := range specs {
		first := res[s][0]
		wantErr := spec == "ring:size=1"
		if (first.err != nil) != wantErr || (first.sys == nil) != wantErr {
			t.Fatalf("%s: got system %p, error %v", spec, first.sys, first.err)
		}
		for c, r := range res[s] {
			if r.sys != first.sys || r.err != first.err {
				t.Errorf("%s: caller %d got (%p, %v), caller 0 got (%p, %v)", spec, c, r.sys, r.err, first.sys, first.err)
			}
		}
		// A later call is served from the same entry.
		if sys, err := lab.System(spec); sys != first.sys || err != first.err {
			t.Errorf("%s: a later call got (%p, %v)", spec, sys, err)
		}
	}
	if len(lab.built) != len(specs) {
		t.Errorf("lab holds %d entries, want %d", len(lab.built), len(specs))
	}
}
