package fl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fmore/internal/auction"
	"fmore/internal/dist"
	"fmore/internal/mec"
	"fmore/internal/ml"
)

// stubClassifier is a deterministic ml.Classifier for aggregation math
// tests: TrainEpoch adds len(samples) to every parameter.
type stubClassifier struct {
	params []float64
}

var _ ml.Classifier = (*stubClassifier)(nil)

func (s *stubClassifier) TrainEpoch(samples []ml.Sample, _ int, _ float64, _ *rand.Rand) (float64, error) {
	for i := range s.params {
		s.params[i] += float64(len(samples))
	}
	return 0.5, nil
}

func (s *stubClassifier) Evaluate(_ []ml.Sample) (float64, float64, error) {
	return 1.0, 0.5, nil
}

func (s *stubClassifier) ParamVector() []float64 {
	return append([]float64(nil), s.params...)
}

func (s *stubClassifier) SetParamVector(v []float64) error {
	if len(v) != len(s.params) {
		return fmt.Errorf("stub: want %d params, got %d", len(s.params), len(v))
	}
	copy(s.params, v)
	return nil
}

func (s *stubClassifier) NumParams() int { return len(s.params) }

func (s *stubClassifier) Clone() ml.Classifier {
	return &stubClassifier{params: append([]float64(nil), s.params...)}
}

// fixedSizePopulation builds nodes with prescribed local data sizes and no
// resource dynamics randomness beyond the given rng.
func fixedSizePopulation(t *testing.T, sizes []int, classes int) *mec.Population {
	t.Helper()
	theta, err := dist.NewUniform(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	part := make([][]ml.Sample, len(sizes))
	for i, sz := range sizes {
		for j := 0; j < sz; j++ {
			part[i] = append(part[i], ml.Sample{Features: []float64{1, 2}, Label: j % classes})
		}
	}
	pop, err := mec.NewPopulation(mec.PopulationConfig{
		N: len(sizes), Theta: theta, Partition: part, Classes: classes,
		DynamicMin: 1, DynamicMax: 1, // freeze dynamics for exact math
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestRandomSelector(t *testing.T) {
	pop := fixedSizePopulation(t, []int{10, 10, 10, 10, 10}, 2)
	rng := rand.New(rand.NewSource(2))
	sel, telemetry, err := RandomSelector{K: 3}.Select(1, pop.Nodes, rng)
	if err != nil {
		t.Fatal(err)
	}
	if telemetry != nil {
		t.Error("RandFL should not produce auction telemetry")
	}
	if len(sel) != 3 {
		t.Fatalf("selected %d, want 3", len(sel))
	}
	seen := map[int]bool{}
	for _, s := range sel {
		if seen[s.Node.ID] {
			t.Error("duplicate selection")
		}
		seen[s.Node.ID] = true
	}
	// K larger than population: select all.
	sel, _, err = RandomSelector{K: 99}.Select(1, pop.Nodes, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 5 {
		t.Errorf("selected %d, want all 5", len(sel))
	}
	if _, _, err := (RandomSelector{K: 0}).Select(1, pop.Nodes, rng); err == nil {
		t.Error("K=0: want error")
	}
	if _, _, err := (RandomSelector{K: 1}).Select(1, nil, rng); err == nil {
		t.Error("no nodes: want error")
	}
}

func TestFixedSelectorIsStable(t *testing.T) {
	pop := fixedSizePopulation(t, []int{10, 10, 10, 10, 10, 10}, 2)
	ids := make([]int, pop.N())
	for i := range ids {
		ids[i] = i
	}
	fs, err := NewFixedSelector(ids, 3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := fs.Select(1, pop.Nodes, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for round := 2; round <= 5; round++ {
		again, _, err := fs.Select(round, pop.Nodes, rand.New(rand.NewSource(int64(round))))
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatalf("selection size changed: %d vs %d", len(again), len(first))
		}
		for i := range again {
			if again[i].Node.ID != first[i].Node.ID {
				t.Fatal("FixFL selection changed across rounds")
			}
		}
	}
	if _, err := NewFixedSelector(ids, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("K=0: want error")
	}
	if _, err := NewFixedSelector(ids, 99, rand.New(rand.NewSource(1))); err == nil {
		t.Error("K>N: want error")
	}
}

// simulatorStrategy solves the paper-simulator equilibrium for tests.
func simulatorStrategy(t *testing.T, n, k int) *auction.Strategy {
	t.Helper()
	rule, err := auction.NewCobbDouglas(25, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := auction.NewLinearCost(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	theta, err := dist.NewUniform(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := auction.SolveEquilibrium(auction.EquilibriumConfig{
		Rule: rule, Cost: cost, Theta: theta,
		N: n, K: k,
		QLo: []float64{0, 0}, QHi: []float64{1, 1},
		ThetaGridPoints: 65, QualityGridPoints: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return strat
}

func TestFMoreSelectorPrefersHighQualityNodes(t *testing.T) {
	// Ten nodes: half with lots of data, half with little.
	sizes := []int{200, 200, 200, 200, 200, 10, 10, 10, 10, 10}
	pop := fixedSizePopulation(t, sizes, 2)
	strat := simulatorStrategy(t, len(sizes), 3)
	rule, err := auction.NewCobbDouglas(25, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	auctioneer, err := auction.NewAuctioneer(auction.Config{Rule: rule, K: 3}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewFMoreSelector(auctioneer, SimulatorBid(strat, 200), "")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Name() != "FMore" {
		t.Errorf("default name = %q, want FMore", sel.Name())
	}
	chosen, telemetry, err := sel.Select(1, pop.Nodes, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if telemetry == nil || len(telemetry.AllScores) != len(sizes) {
		t.Fatal("FMore should report all bidder scores")
	}
	if len(chosen) != 3 {
		t.Fatalf("selected %d, want 3", len(chosen))
	}
	for _, s := range chosen {
		if s.Node.ID >= 5 {
			t.Errorf("FMore selected low-data node %d over high-data rivals", s.Node.ID)
		}
		if s.Payment <= 0 {
			t.Errorf("winner payment %v should be positive", s.Payment)
		}
	}
	if telemetry.TotalPayment <= 0 {
		t.Error("total payment should be positive")
	}
}

func TestNewFMoreSelectorValidation(t *testing.T) {
	if _, err := NewFMoreSelector(nil, nil, ""); err == nil {
		t.Error("nil args: want error")
	}
}

func TestClusterBidNormalizesAndClamps(t *testing.T) {
	strat := simulatorStrategy(t, 10, 3)
	bid := ClusterBid(strat, 8, 100, 200)
	cases := []struct {
		name    string
		offered mec.Resources
		want    []float64
	}{
		{"inside the box", mec.Resources{CPUCores: 4, BandwidthMbps: 25, DataSize: 150}, []float64{0.5, 0.25, 0.75}},
		{"at the maxima", mec.Resources{CPUCores: 8, BandwidthMbps: 100, DataSize: 200}, []float64{1, 1, 1}},
		{"above the maxima", mec.Resources{CPUCores: 16, BandwidthMbps: 250, DataSize: 900}, []float64{1, 1, 1}},
		{"below zero", mec.Resources{CPUCores: -1, BandwidthMbps: -5, DataSize: -3}, []float64{0, 0, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			node := &mec.EdgeNode{ID: 7, Theta: 1.25, Offered: c.offered}
			b, err := bid(node)
			if err != nil {
				t.Fatal(err)
			}
			if len(b.Qualities) != len(c.want) {
				t.Fatalf("qualities = %v, want %v", b.Qualities, c.want)
			}
			for i, q := range b.Qualities {
				if q != c.want[i] {
					t.Errorf("q[%d] = %v, want %v", i, q, c.want[i])
				}
			}
			if want := strat.Payment(node.Theta); b.Payment != want {
				t.Errorf("payment = %v, want the strategy's p(θ) = %v", b.Payment, want)
			}
		})
	}
	if _, err := ClusterBid(strat, 0, 100, 200)(&mec.EdgeNode{}); err == nil {
		t.Error("zero CPU maximum: want error")
	}
}

func TestRunAggregationMath(t *testing.T) {
	// Two nodes with 10 and 30 samples; stub training adds len(samples) to
	// every parameter. Weighted FedAvg: g' = (10(g+10) + 30(g+30))/40 =
	// g + (100 + 900)/40 = g + 25.
	pop := fixedSizePopulation(t, []int{10, 30}, 2)
	stub := &stubClassifier{params: []float64{0, 0, 0}}
	hist, err := Run(Config{
		Global:     stub,
		Test:       []ml.Sample{{Features: []float64{1}, Label: 0}},
		Selector:   RandomSelector{K: 2},
		Population: pop,
		Rounds:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range stub.params {
		if math.Abs(v-25) > 1e-9 {
			t.Errorf("param[%d] = %v, want 25 (Eq 3 weighted mean)", i, v)
		}
	}
	if hist.Final().TrainSamples != 40 {
		t.Errorf("TrainSamples = %d, want 40", hist.Final().TrainSamples)
	}
	if len(hist.Final().SelectedIDs) != 2 {
		t.Errorf("SelectedIDs = %v, want both nodes", hist.Final().SelectedIDs)
	}
}

func TestRunMaxSamplesCap(t *testing.T) {
	pop := fixedSizePopulation(t, []int{100}, 2)
	stub := &stubClassifier{params: []float64{0}}
	hist, err := Run(Config{
		Global:             stub,
		Test:               []ml.Sample{{Features: []float64{1}, Label: 0}},
		Selector:           RandomSelector{K: 1},
		Population:         pop,
		Rounds:             1,
		MaxSamplesPerRound: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hist.Final().TrainSamples != 25 {
		t.Errorf("TrainSamples = %d, want capped 25", hist.Final().TrainSamples)
	}
}

func TestRunWithTiming(t *testing.T) {
	pop := fixedSizePopulation(t, []int{50, 50}, 2)
	stub := &stubClassifier{params: []float64{0}}
	tm := mec.DefaultTimingModel(stub.NumParams())
	hist, err := Run(Config{
		Global:     stub,
		Test:       []ml.Sample{{Features: []float64{1}, Label: 0}},
		Selector:   RandomSelector{K: 2},
		Population: pop,
		Rounds:     3,
		Timing:     &tm,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, r := range hist.Rounds {
		if r.SimTimeSec <= 0 {
			t.Errorf("round %d sim time %v, want positive", r.Round, r.SimTimeSec)
		}
		if r.CumTimeSec <= prev {
			t.Errorf("cumulative time not increasing at round %d", r.Round)
		}
		prev = r.CumTimeSec
	}
}

func TestRunValidation(t *testing.T) {
	pop := fixedSizePopulation(t, []int{10}, 2)
	stub := &stubClassifier{params: []float64{0}}
	test := []ml.Sample{{Features: []float64{1}, Label: 0}}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil global", Config{Test: test, Selector: RandomSelector{K: 1}, Population: pop, Rounds: 1}},
		{"no test", Config{Global: stub, Selector: RandomSelector{K: 1}, Population: pop, Rounds: 1}},
		{"nil selector", Config{Global: stub, Test: test, Population: pop, Rounds: 1}},
		{"nil population", Config{Global: stub, Test: test, Selector: RandomSelector{K: 1}, Rounds: 1}},
		{"zero rounds", Config{Global: stub, Test: test, Selector: RandomSelector{K: 1}, Population: pop}},
		{"bad lr", Config{Global: stub, Test: test, Selector: RandomSelector{K: 1}, Population: pop, Rounds: 1, LR: -1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Run(c.cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	mk := func() (*History, error) {
		pop := fixedSizePopulation(t, []int{20, 40, 60}, 2)
		stub := &stubClassifier{params: []float64{0, 0}}
		return Run(Config{
			Global:     stub,
			Test:       []ml.Sample{{Features: []float64{1}, Label: 0}},
			Selector:   RandomSelector{K: 2},
			Population: pop,
			Rounds:     4,
			Seed:       99,
		})
	}
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rounds {
		if len(a.Rounds[i].SelectedIDs) != len(b.Rounds[i].SelectedIDs) {
			t.Fatal("selection sizes diverged across identical seeds")
		}
		for j := range a.Rounds[i].SelectedIDs {
			if a.Rounds[i].SelectedIDs[j] != b.Rounds[i].SelectedIDs[j] {
				t.Fatal("selections diverged across identical seeds")
			}
		}
	}
}

func TestBlacklistedNodesAreNeverSelected(t *testing.T) {
	pop := fixedSizePopulation(t, []int{10, 10, 10}, 2)
	pop.Nodes[0].Blacklisted = true
	stub := &stubClassifier{params: []float64{0}}
	hist, err := Run(Config{
		Global:     stub,
		Test:       []ml.Sample{{Features: []float64{1}, Label: 0}},
		Selector:   RandomSelector{K: 3},
		Population: pop,
		Rounds:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist.Rounds {
		for _, id := range r.SelectedIDs {
			if id == 0 {
				t.Fatal("blacklisted node was selected")
			}
		}
	}
}

func TestHistoryHelpers(t *testing.T) {
	h := &History{Rounds: []RoundMetrics{
		{Round: 1, Accuracy: 0.3, Loss: 2.0, CumTimeSec: 10},
		{Round: 2, Accuracy: 0.6, Loss: 1.5, CumTimeSec: 20},
		{Round: 3, Accuracy: 0.8, Loss: 1.0, CumTimeSec: 30},
	}}
	if got := h.RoundsToAccuracy(0.6); got != 2 {
		t.Errorf("RoundsToAccuracy(0.6) = %d, want 2", got)
	}
	if got := h.RoundsToAccuracy(0.99); got != 0 {
		t.Errorf("RoundsToAccuracy(0.99) = %d, want 0 (never)", got)
	}
	if got := h.TimeToAccuracy(0.8); got != 30 {
		t.Errorf("TimeToAccuracy(0.8) = %v, want 30", got)
	}
	if accs := h.Accuracies(); len(accs) != 3 || accs[2] != 0.8 {
		t.Errorf("Accuracies = %v", accs)
	}
	if losses := h.Losses(); len(losses) != 3 || losses[0] != 2.0 {
		t.Errorf("Losses = %v", losses)
	}
	if h.Final().Round != 3 {
		t.Errorf("Final().Round = %d, want 3", h.Final().Round)
	}
	empty := &History{}
	if empty.Final().Round != 0 {
		t.Error("empty history Final should be zero value")
	}
}

// TestFMoreBeatsRandFLOnHeterogeneousData is the end-to-end incentive
// result in miniature (Figures 4-7): with heterogeneous node quality,
// auction-based selection converges faster than random selection.
func TestFMoreBeatsRandFLOnHeterogeneousData(t *testing.T) {
	const nodes, k, rounds = 20, 4, 6
	// Strongly heterogeneous sizes: a few rich nodes, many poor ones.
	sizes := make([]int, nodes)
	for i := range sizes {
		if i < 5 {
			sizes[i] = 150
		} else {
			sizes[i] = 8
		}
	}
	// Blob data: build one shared pool, give node i a slice of it.
	rng := rand.New(rand.NewSource(7))
	centers := [][]float64{}
	const classes, dim = 4, 6
	for c := 0; c < classes; c++ {
		ctr := make([]float64, dim)
		for d := range ctr {
			ctr[d] = rng.NormFloat64() * 2.5
		}
		centers = append(centers, ctr)
	}
	mkSample := func(c int) ml.Sample {
		x := make([]float64, dim)
		for d := range x {
			x[d] = centers[c][d] + rng.NormFloat64()*0.6
		}
		return ml.Sample{Features: x, Label: c}
	}
	part := make([][]ml.Sample, nodes)
	for i, sz := range sizes {
		numClasses := classes
		if sz < 20 {
			numClasses = 1 + rng.Intn(2) // poor nodes also lack diversity
		}
		for j := 0; j < sz; j++ {
			part[i] = append(part[i], mkSample(rng.Intn(numClasses)))
		}
	}
	test := make([]ml.Sample, 200)
	for i := range test {
		test[i] = mkSample(i % classes)
	}
	theta, err := dist.NewUniform(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(name string) *History {
		pop, err := mec.NewPopulation(mec.PopulationConfig{
			N: nodes, Theta: theta, Partition: part, Classes: classes,
		}, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		global, err := ml.NewMLP(dim, []int{12}, classes, 0.9, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		var selector Selector
		switch name {
		case "fmore":
			strat := simulatorStrategy(t, nodes, k)
			rule, err := auction.NewCobbDouglas(25, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			auctioneer, err := auction.NewAuctioneer(auction.Config{Rule: rule, K: k}, rand.New(rand.NewSource(10)))
			if err != nil {
				t.Fatal(err)
			}
			selector, err = NewFMoreSelector(auctioneer, SimulatorBid(strat, 150), "")
			if err != nil {
				t.Fatal(err)
			}
		default:
			selector = RandomSelector{K: k}
		}
		hist, err := Run(Config{
			Global: global, Test: test, Selector: selector,
			Population: pop, Rounds: rounds, LR: 0.08, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	fmore := runWith("fmore")
	randfl := runWith("rand")
	t.Logf("final accuracy: FMore=%.3f RandFL=%.3f", fmore.Final().Accuracy, randfl.Final().Accuracy)
	if fmore.Final().Accuracy < randfl.Final().Accuracy-0.02 {
		t.Errorf("FMore final accuracy %.3f should not trail RandFL %.3f",
			fmore.Final().Accuracy, randfl.Final().Accuracy)
	}
}
