package main

import (
	"strings"
	"testing"

	"fmore/internal/cmdtest"
)

// TestRunRefusesUnknownValues: an unknown -figure, -scale or -format is an
// error, and nothing is printed.
func TestRunRefusesUnknownValues(t *testing.T) {
	for _, args := range [][]string{{"-figure", "3"}, {"-scale", "huge"}, {"-format", "xml"}} {
		out, err := cmdtest.Stdout(t, func() error { return run(args) })
		if err == nil || out != "" {
			t.Errorf("run(%q) = %v and printed %q, want an error and nothing", args, err, out)
		}
	}
}

// TestRunOneRoundFigure: a one-round quick Fig. 4 prints its header, then
// one row per round.
func TestRunOneRoundFigure(t *testing.T) {
	out, err := cmdtest.Stdout(t, func() error {
		return run([]string{"-figure", "4", "-scale", "quick", "-rounds", "1", "-repeats", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	if want := "== fig4: CNN on MNIST-O: accuracy and loss vs round =="; lines[0] != want {
		t.Errorf("header = %q, want %q", lines[0], want)
	}
	if len(lines) < 3 || !strings.HasPrefix(lines[2], "  1  ") {
		t.Errorf("no round-1 row in:\n%s", out)
	}
}
