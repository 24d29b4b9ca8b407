// Package nondetfix is a deliberately-bad fixture: every diagnostic the
// nondet analyzer can produce appears at least once, so the analysistest
// suite fails loudly if the analyzer regresses to zero findings.
package nondetfix

import (
	mrand "math/rand"
	"time"
)

func globalRand() int {
	n := mrand.Intn(10)                 // want `global math/rand Intn`
	mrand.Shuffle(n, func(i, j int) {}) // want `global math/rand Shuffle`
	mrand.Seed(42)                      // want `global math/rand Seed`
	return n + int(mrand.Int63())       // want `global math/rand Int63`
}

func wallClock() time.Duration {
	start := time.Now()          // want `wall-clock time.Now outside the accounting allowlist`
	time.Sleep(time.Millisecond) // want `wall-clock time.Sleep outside the accounting allowlist`
	return time.Since(start)     // want `wall-clock time.Since outside the accounting allowlist`
}

func clockSeed() *mrand.Rand {
	// Both the wall-clock read and the clock-derived seed are reported.
	return mrand.New(mrand.NewSource(time.Now().UnixNano())) // want `rand New seeded from the wall clock` `rand NewSource seeded from the wall clock` `wall-clock time.Now outside the accounting allowlist`
}

func explicitOK(seed int64) *mrand.Rand {
	// Constructing an explicit generator from a caller-supplied seed is
	// exactly what the contract wants; no diagnostics here.
	return mrand.New(mrand.NewSource(seed))
}

func suppressed() int {
	return mrand.Intn(3) //simlint:ignore nondet fixture exercises the directive
}

func rogueGoroutine(ch chan int) {
	// A bare goroutine in a contract package is a scheduling dependence
	// waiting to leak into a result; only the audited pools may fan out.
	go func() { ch <- 1 }() // want `goroutine launched outside the audited pools`
}
