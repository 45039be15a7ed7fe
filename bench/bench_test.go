package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestOperationStreamIsAFunctionOfTheSeed: the same seed generates the same
// operation stream for every workload, a different seed a different one.
func TestOperationStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		for _, small := range []bool{false, true} {
			a := w.stream(&env{seed: 7, c: 2, small: small})
			b := w.stream(&env{seed: 7, c: 2, small: small})
			c := w.stream(&env{seed: 8, c: 2, small: small})
			if a != b {
				t.Errorf("%s (small=%v): seed 7 gave streams %x and %x", w.name, small, a, b)
			}
			if a == c {
				t.Errorf("%s (small=%v): seeds 7 and 8 gave the same stream %x", w.name, small, a)
			}
		}
	}
}

// TestGeneratedRoundsHaveDistinctBidders: a round never carries two bids of
// one node (the exchange would refuse the second as duplicate_bid).
func TestGeneratedRoundsHaveDistinctBidders(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, slate := range genSlates(seed, 3, slatePool, roundBids, 2, population) {
			seen := map[int]bool{}
			for _, b := range slate {
				if seen[b.NodeID] || b.NodeID < 0 || b.NodeID >= population {
					t.Fatalf("seed %d: node %d repeated or out of range", seed, b.NodeID)
				}
				seen[b.NodeID] = true
			}
		}
		nodes, thetas := genThetas(seed, 3, roundBids, thetaLo, thetaHi)
		seen := map[int]bool{}
		for i, n := range nodes {
			if seen[n] || thetas[i] < thetaLo || thetas[i] >= thetaHi {
				t.Fatalf("seed %d: node %d repeated or θ %v outside [%v, %v)", seed, n, thetas[i], thetaLo, thetaHi)
			}
			seen[n] = true
		}
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestNamesAreValidAndMatchBenchmarkJSON: every workload and metric name
// fits the contract's alphabet, is used once, and BENCHMARK.json at the
// root names the same workloads, metrics, units and bounds as the program.
func TestNamesAreValidAndMatchBenchmarkJSON(t *testing.T) {
	used := map[string]bool{}
	check := func(kind, name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRe)
		}
		if used[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		used[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end metric", m.name)
		if !unitRe.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q", m.name, m.unit)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better %q", m.name, m.better)
		}
		if m.name == "setup_s" {
			hasSetup = m.unit == "s" && m.better == "lower"
		}
	}
	if !hasSetup {
		t.Error(`end-to-end metrics must include setup_s, unit "s", better "lower"`)
	}
	for _, m := range perLayer {
		check("per-layer metric", m.name)
		if !unitRe.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q", m.name, m.unit)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("counts outside the contract: %d workloads, %d end-to-end, %d per-layer", len(workloads), len(endToEnd), len(perLayer))
	}

	// BENCHMARK.json is written by hand; it must say what the program declares.
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the program's default %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	sameMetrics := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json names %d %s metrics, the program %d", len(got), kind, len(want))
		}
		for i, m := range want {
			if g := got[i]; g != (metric{m.name, m.unit, m.better, m.bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the program %+v", kind, i, g, m)
			}
		}
	}
	sameMetrics("end-to-end", doc.EndToEnd, endToEnd)
	sameMetrics("per-layer", doc.PerLayer, perLayer)
}

// TestSmoke runs every workload at smoke scale, untraced and traced: each
// run must be correct, report every declared metric, and leave no child
// process and no scratch directory behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the real binaries")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name, defs := w.name+"/e2e", endToEnd
			if traced {
				name, defs = w.name+"/trace", perLayer
			}
			t.Run(name, func(t *testing.T) {
				rep, err := runOnce(w, 5, 2, traced, true)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					if mv, ok := rep.Metrics[d.name]; !ok || mv.Unit != d.unit {
						t.Errorf("metric %s missing or in unit %q, want %q", d.name, mv.Unit, d.unit)
					}
				}
				root, err := findRoot()
				if err != nil {
					t.Fatal(err)
				}
				left, err := filepath.Glob(filepath.Join(root, ".bench_build", "run-*"))
				if err != nil || len(left) > 0 {
					t.Errorf("scratch directories left behind: %v %v", left, err)
				}
			})
		}
	}
}
