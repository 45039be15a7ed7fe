package main

import (
	"strings"
	"testing"

	"fmore/internal/cmdtest"
)

// TestRunRefusesUnknownValues: an unknown -method or -task is an error
// before anything trains.
func TestRunRefusesUnknownValues(t *testing.T) {
	for _, args := range [][]string{{"-method", "bogus"}, {"-task", "bogus"}} {
		if out, err := cmdtest.Stdout(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%q) = nil, want an error; printed %q", args, out)
		}
	}
}

// TestRunOneRound: a one-round run prints its header, the table's column
// line and the round.
func TestRunOneRound(t *testing.T) {
	out, err := cmdtest.Stdout(t, func() error { return run([]string{"-rounds", "1", "-n", "12", "-k", "3"}) })
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	if want := "task=mnist-o method=FMore N=12 K=3 rounds=1 repeats=1"; lines[0] != want {
		t.Errorf("header = %q, want %q", lines[0], want)
	}
	if len(lines) < 3 || !strings.HasPrefix(lines[1], "round") || !strings.HasPrefix(lines[2], "1 ") {
		t.Errorf("no one-round table in:\n%s", out)
	}
}
