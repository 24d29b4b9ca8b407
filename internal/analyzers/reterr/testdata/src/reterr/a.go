// Package reterrfix is a deliberately-bad fixture for the reterr
// analyzer: error returns dropped on the floor next to the sanctioned
// handling forms.
package reterrfix

import (
	"bytes"
	"fmt"
	"os"
	"strings"
)

func produce() error               { return nil }
func produceBoth() (string, error) { return "", nil }
func produceValue() int            { return 0 }
func sink(w *os.File, rows []string) error {
	for _, r := range rows {
		if _, err := w.WriteString(r); err != nil {
			return err
		}
	}
	return nil
}

func droppedPlain() {
	produce() // want `drops its error result`
}

func droppedTuple() {
	produceBoth() // want `drops its error result`
}

func droppedDefer(f *os.File) {
	defer f.Close() // want `drops its error result`
	produceValue()  // no error in the signature: nothing to drop
}

func droppedGo(f *os.File, rows []string) {
	go sink(f, rows) // want `drops its error result`
}

func droppedMethod(f *os.File) {
	f.Sync() // want `drops its error result`
}

func handled(f *os.File) error {
	if err := produce(); err != nil {
		return err
	}
	_, err := produceBoth()
	return err
}

func assignedAway() {
	// Explicit discard states the decision; reterr stays quiet.
	_ = produce()
	_, _ = produceBoth()
}

func exemptForms(sb *strings.Builder, buf *bytes.Buffer) {
	// fmt's writer errors are best-effort for terminal output, and the
	// in-memory builders never fail.
	fmt.Println("rows written")
	fmt.Fprintf(os.Stderr, "warning\n")
	sb.WriteString("a")
	buf.WriteString("b")
}

func suppressed() {
	produce() //simlint:ignore reterr fixture exercises the directive
}
