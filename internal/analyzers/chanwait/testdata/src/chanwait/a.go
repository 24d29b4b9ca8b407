// Fixture for the chanwait analyzer: the four deliberate shapes of the
// acceptance list — an unbuffered send/recv cycle between two
// goroutines, the same shape broken by a select (adaptive routing), a
// capacity-bounded ring still flagged with its VC counts, and a
// call-mediated request/response loopback — plus a WaitGroup-vs-channel
// cycle, a clean pipeline, and a clean worker-pool replica guarding the
// release-on-return rule.
package chanwait

import "sync"

// crossedPair: two goroutines each send first and receive second, on
// crossed channels. Each receive waits behind the other's send: the
// two-vertex cycle of a crossed rendezvous, the canonical CDG cycle.
func crossedPair() {
	a := make(chan int)
	b := make(chan int)
	go func() {
		a <- 1
		<-b // want `channel wait-for cycle: chanwait\.crossedPair\.b -> chanwait\.crossedPair\.a -> chanwait\.crossedPair\.b`
	}()
	go func() {
		b <- 1
		<-a // want `channel wait-for cycle: chanwait\.crossedPair\.a -> chanwait\.crossedPair\.b -> chanwait\.crossedPair\.a`
	}()
}

// selectBreaks is crossedPair with the second goroutine turned into a
// select: either arm may fire, so neither is a hold point — the escape
// path adaptive routing adds to a cyclic CDG. No diagnostic.
func selectBreaks() {
	a := make(chan int)
	b := make(chan int)
	go func() {
		a <- 1
		<-b
	}()
	go func() {
		select {
		case b <- 1:
		case <-a:
		}
	}()
}

// bufferedRing is crossedPair with one-slot buffers: capacity delays the
// deadlock by one round but cannot break the cycle — finite VCs on a
// cyclic CDG. Flagged, with each channel's capacity in the message.
func bufferedRing() {
	a := make(chan int, 1)
	b := make(chan int, 1)
	go func() {
		a <- 1
		<-b // want `finite VCs on a cyclic CDG`
	}()
	go func() {
		b <- 1
		<-a // want `finite VCs on a cyclic CDG`
	}()
}

// loopback: the cycle is only visible through calls — each turn blocks
// on one field channel and then sends on the other via a helper. The
// callee's ops fold at the call site, closing req -> resp -> req.
type loopback struct {
	req  chan int
	resp chan int
}

func newLoopback() *loopback {
	return &loopback{req: make(chan int), resp: make(chan int)}
}

func (l *loopback) sendReq()  { l.req <- 1 }
func (l *loopback) sendResp() { l.resp <- 1 }

func (l *loopback) clientTurn() {
	<-l.resp
	l.sendReq() // want `channel wait-for cycle: chanwait\.loopback\.req -> chanwait\.loopback\.resp -> chanwait\.loopback\.req`
}

func (l *loopback) serverTurn() {
	<-l.req
	l.sendResp() // want `channel wait-for cycle: chanwait\.loopback\.resp -> chanwait\.loopback\.req -> chanwait\.loopback\.resp`
}

// pipeline: a straight-line producer chain. `c2 <- <-c1` receives before
// it sends (evaluation order), so the only edge is c2 -> c1. Clean.
func pipeline() {
	c1 := make(chan int)
	c2 := make(chan int)
	go func() {
		c1 <- 1
		close(c1)
	}()
	go func() {
		c2 <- <-c1
		close(c2)
	}()
	<-c2
}

// waitBeforeSend: the main goroutine waits on the WaitGroup before
// feeding the channel the waited-on goroutine is parked on. The Done
// cannot run until the receive completes, the send cannot run until the
// Wait returns: a genuine channel/WaitGroup cycle.
func waitBeforeSend() {
	var wg sync.WaitGroup
	ch := make(chan int)
	wg.Add(1)
	go func() {
		<-ch
		wg.Done() // want `channel wait-for cycle: chanwait\.waitBeforeSend\.wg -> chanwait\.waitBeforeSend\.ch -> chanwait\.waitBeforeSend\.wg`
	}()
	wg.Wait()
	ch <- 1 // want `channel wait-for cycle: chanwait\.waitBeforeSend\.ch -> chanwait\.waitBeforeSend\.wg -> chanwait\.waitBeforeSend\.ch`
}

// pool is a barrier worker pool: a worker ranging
// over a job channel and answering on a buffered done channel, a
// dispatcher doing send-then-receive, and a shutdown doing
// close-then-Wait. The locals are published into fields, so every
// context meets on the field identities. Acyclic: done waits behind
// jobs, the WaitGroup behind both — no edge ever points back.
type pool struct {
	jobs chan func() error
	done chan error
	wg   sync.WaitGroup
}

func newPool() *pool {
	p := &pool{}
	job := make(chan func() error)
	done := make(chan error, 1)
	p.jobs = job
	p.done = done
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for fn := range job {
			done <- fn()
		}
	}()
	return p
}

func (p *pool) dispatch(fn func() error) error {
	p.jobs <- fn
	return <-p.done
}

func (p *pool) stop() {
	close(p.jobs)
	p.wg.Wait()
}

// twice dispatches back to back: the second send must not pair against
// the first receive — a call that returned has completed its rendezvous
// (release-on-return) — or the clean barrier round-trip would read as a
// jobs -> done -> jobs cycle.
func twice(p *pool) {
	_ = p.dispatch(func() error { return nil })
	_ = p.dispatch(func() error { return nil })
}
