// Command fmore-bench regenerates the paper's evaluation figures (Figs.
// 4-13) and the headline numbers as text tables.
//
// Usage:
//
//	fmore-bench -figure all -scale quick
//	fmore-bench -figure 9 -scale paper
//	fmore-bench -figure headline
package main

import (
	"flag"
	"fmt"
	"os"

	"fmore/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fmore-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fmore-bench", flag.ContinueOnError)
	figure := fs.String("figure", "all", "figure to regenerate: 4..13, headline, or all")
	scaleName := fs.String("scale", "quick", "experiment scale: quick or paper")
	trials := fs.Int("trials", 40, "Monte-Carlo trials for auction sweeps (figs 9b/10b/11b)")
	seed := fs.Int64("seed", 1, "base seed")
	repeats := fs.Int("repeats", 0, "override run repeats (0 = scale default)")
	rounds := fs.Int("rounds", 0, "override federated rounds (0 = scale default)")
	format := fs.String("format", "table", "output format: table or csv")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var scale, cs sim.Scale
	switch *scaleName {
	case "quick":
		scale, cs = sim.QuickScale(), sim.QuickClusterScale()
	case "paper":
		scale, cs = sim.PaperScale(), sim.PaperClusterScale()
	default:
		return fmt.Errorf("unknown scale %q (want quick or paper)", *scaleName)
	}
	scale.Seed, cs.Seed = *seed, *seed
	if *repeats > 0 {
		scale.Repeats = *repeats
	}
	if *rounds > 0 {
		scale.Rounds = *rounds
		cs.Rounds = *rounds
	}

	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", *format)
	}
	type genFn func() error
	emit := func(fr *sim.FigureResult, err error) error {
		if err != nil {
			return err
		}
		if *format == "csv" {
			return sim.WriteFigureCSV(os.Stdout, fr)
		}
		return sim.WriteFigure(os.Stdout, fr)
	}
	gens := map[string]genFn{
		"4":  func() error { fr, err := sim.Figure4(scale); return emit(fr, err) },
		"5":  func() error { fr, err := sim.Figure5(scale); return emit(fr, err) },
		"6":  func() error { fr, err := sim.Figure6(scale); return emit(fr, err) },
		"7":  func() error { fr, err := sim.Figure7(scale); return emit(fr, err) },
		"8":  func() error { fr, err := sim.Figure8(scale); return emit(fr, err) },
		"9":  func() error { fr, err := sim.Figure9(scale, *trials); return emit(fr, err) },
		"10": func() error { fr, err := sim.Figure10(scale, *trials); return emit(fr, err) },
		"11": func() error { fr, err := sim.Figure11(scale, *trials); return emit(fr, err) },
		"12": func() error {
			fig12, fig13, err := sim.Figures12And13(cs)
			if err := emit(fig12, err); err != nil {
				return err
			}
			return emit(fig13, nil)
		},
		"headline": func() error {
			h, err := sim.HeadlineNumbers(scale, cs)
			if err != nil {
				return err
			}
			return h.Write(os.Stdout)
		},
	}
	gens["13"] = gens["12"] // figs 12 and 13 come from the same deployment runs

	if *figure == "all" {
		for _, id := range []string{"4", "5", "6", "7", "8", "9", "10", "11", "12", "headline"} {
			if err := gens[id](); err != nil {
				return fmt.Errorf("figure %s: %w", id, err)
			}
		}
		return nil
	}
	gen, ok := gens[*figure]
	if !ok {
		return fmt.Errorf("unknown figure %q (want 4..13, headline, or all)", *figure)
	}
	return gen()
}
