// Fixture for the blockcheck analyzer: a clean hot path, a hot path
// reaching an unbounded receive through a helper (flagged with its
// witness chain), a bounded lock on the hot path (still barred, distinct
// message), and a polling select with default (non-blocking).
package blockcheck

import "sync"

type state struct {
	mu sync.Mutex
	ch chan int
}

// hotClean computes without synchronizing: the effect is non-blocking.
//
//simlint:hotpath
func hotClean(s *state) int {
	n := 0
	for i := 0; i < 4; i++ {
		n += i
	}
	return n
}

// helperRecv parks until some other goroutine sends.
func helperRecv(s *state) int { return <-s.ch }

// hotBlocking reaches the unbounded receive through the helper: the
// effect propagates up the call chain and the witness names it.
//
//simlint:hotpath
func hotBlocking(s *state) int { // want `hot-path function blockcheck\.hotBlocking may block indefinitely: blockcheck\.hotBlocking -> blockcheck\.helperRecv \(recv\)`
	return helperRecv(s)
}

// hotBounded takes a mutex: bounded blocking, still barred from the hot
// path, with its own message.
//
//simlint:hotpath
func hotBounded(s *state) { // want `hot-path function blockcheck\.hotBounded blocks boundedly on the hot path: blockcheck\.hotBounded \(lock\)`
	s.mu.Lock()
	s.mu.Unlock()
}

// hotSelectDefault polls without parking — the default clause makes
// every comm non-blocking.
//
//simlint:hotpath
func hotSelectDefault(s *state) int {
	select {
	case v := <-s.ch:
		return v
	default:
		return 0
	}
}
