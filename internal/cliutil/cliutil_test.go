package cliutil

import (
	"errors"
	"strings"
	"testing"
)

func TestPositive(t *testing.T) {
	cases := []struct {
		name string
		v    int
		ok   bool
	}{
		{"trials", 1, true},
		{"trials", 100, true},
		{"trials", 0, false},
		{"trials", -1, false},
		{"runs", -100, false},
	}
	for _, c := range cases {
		err := Positive(c.name, c.v)
		if (err == nil) != c.ok {
			t.Errorf("Positive(%q, %d) = %v, want ok=%v", c.name, c.v, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-"+c.name) {
			t.Errorf("Positive(%q, %d) error %q does not name the flag", c.name, c.v, err)
		}
	}
}

func TestNonNegative(t *testing.T) {
	cases := []struct {
		name string
		v    int
		ok   bool
	}{
		{"workers", 0, true},
		{"workers", 8, true},
		{"workers", -1, false},
		{"rate-burst", -5, false},
	}
	for _, c := range cases {
		err := NonNegative(c.name, c.v)
		if (err == nil) != c.ok {
			t.Errorf("NonNegative(%q, %d) = %v, want ok=%v", c.name, c.v, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-"+c.name) {
			t.Errorf("NonNegative(%q, %d) error %q does not name the flag", c.name, c.v, err)
		}
	}
}

func TestBackend(t *testing.T) {
	cases := []struct {
		v  string
		ok bool
	}{
		{"indexed", true},
		{"live", true},
		{"", false},
		{"Live", false},
		{"sequential", false},
		{"indexed ", false},
	}
	for _, c := range cases {
		err := Backend("backend", c.v)
		if (err == nil) != c.ok {
			t.Errorf("Backend(%q) = %v, want ok=%v", c.v, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-backend") {
			t.Errorf("Backend(%q) error %q does not name the flag", c.v, err)
		}
	}
}

func TestFirst(t *testing.T) {
	e1 := errors.New("first")
	e2 := errors.New("second")
	cases := []struct {
		errs []error
		want error
	}{
		{nil, nil},
		{[]error{nil, nil}, nil},
		{[]error{e1, e2}, e1},
		{[]error{nil, e2}, e2},
		{[]error{e1, nil}, e1},
	}
	for i, c := range cases {
		if got := First(c.errs...); got != c.want {
			t.Errorf("case %d: First = %v, want %v", i, got, c.want)
		}
	}
}
