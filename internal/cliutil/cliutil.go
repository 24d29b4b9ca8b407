// Package cliutil is the shared flag-validation vocabulary of the
// command-line tools. Every cmd validates its numeric flags through the
// same two predicates and reports failures the same way: message to
// stderr, flag usage, exit status 2 — so a bad -workers value behaves
// identically whether it was passed to netsim, chaos, paper or
// campaignd.
package cliutil

import (
	"flag"
	"fmt"
	"os"
)

// Positive returns an error unless v >= 1. Use it for counts that must
// exist to mean anything: trials, runs, flits, queue depths.
func Positive(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("-%s must be >= 1, got %d", name, v)
	}
	return nil
}

// NonNegative returns an error unless v >= 0. Use it for sizes where 0
// selects a default (worker pools, rate limits).
func NonNegative(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("-%s must be >= 0, got %d (0 selects the default)", name, v)
	}
	return nil
}

// Backends netsim's execution-backend flag accepts: the deterministic
// indexed engine and the concurrent live fabric.
var Backends = []string{"indexed", "live"}

// Backend returns an error unless v names a known execution backend.
func Backend(name, v string) error {
	for _, b := range Backends {
		if v == b {
			return nil
		}
	}
	return fmt.Errorf("-%s must be one of %v, got %q", name, Backends, v)
}

// First returns the first non-nil error, so a command can validate every
// flag in one expression and report the earliest failure.
func First(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Fail reports a usage error the uniform way: the message prefixed with
// the program name on stderr, the flag usage text, exit status 2 (the
// conventional "bad invocation" status, distinct from runtime failures).
func Fail(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	flag.Usage()
	os.Exit(2)
}
