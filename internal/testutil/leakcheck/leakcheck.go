// Package leakcheck asserts goroutine quiescence in tests: capture a
// baseline count before starting concurrent machinery, run it through any
// shutdown path (normal drain, context cancellation, watchdog abort,
// mid-run fault), and require the live goroutine count to return to the
// baseline. Every concurrent subsystem's tests share this one
// implementation, and a failure dumps every live stack so the leaked
// goroutine is identified, not just counted.
//
// The check polls rather than comparing once: goroutines unwind
// asynchronously after a WaitGroup releases its waiter, and the runtime's
// own test goroutines come and go. A bounded poll keeps the assertion
// deterministic for any scheduler while never sleeping longer than the
// unwind actually takes.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// timeout bounds the poll: well past any real unwind, far below the test
// binary timeout, so a leak fails the one test that caused it.
const timeout = 5 * time.Second

// Baseline records the current live goroutine count. Call it before
// constructing the machinery under test.
func Baseline() int { return runtime.NumGoroutine() }

// Check fails the test unless the live goroutine count returns to (or
// below) the baseline within the poll window, dumping all goroutine
// stacks on failure so the leak is attributable.
func Check(t testing.TB, baseline int) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d live, baseline %d; stacks:\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}
