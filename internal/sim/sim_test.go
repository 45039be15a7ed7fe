package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"fmore/internal/data"
	"fmore/internal/fl"
)

// tinyScale keeps sim tests fast.
func tinyScale() Scale {
	return Scale{
		N: 12, K: 3, Rounds: 3,
		TrainSamples: 400, TestSamples: 100,
		MinNodeData: 10, MaxNodeData: 50,
		MaxSamplesPerRound: 25,
		Repeats:            1,
		Seed:               1,
	}
}

func TestRunOnceAllMethods(t *testing.T) {
	for _, method := range []Method{MethodFMore, MethodRandFL, MethodFixFL, MethodPsiFMore} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			cfg := ExperimentConfig{Task: data.MNISTO, Method: method, Scale: tinyScale()}
			if method == MethodPsiFMore {
				cfg.Psi = 0.5
			}
			hist, err := RunOnce(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(hist.Rounds) != 3 {
				t.Fatalf("rounds = %d, want 3", len(hist.Rounds))
			}
			for _, r := range hist.Rounds {
				if len(r.SelectedIDs) == 0 {
					t.Errorf("round %d selected nobody", r.Round)
				}
				if r.Accuracy < 0 || r.Accuracy > 1 {
					t.Errorf("round %d accuracy %v", r.Round, r.Accuracy)
				}
			}
		})
	}
}

func TestRunOnceValidation(t *testing.T) {
	if _, err := RunOnce(ExperimentConfig{Method: MethodFMore, Scale: tinyScale()}, 0); err == nil {
		t.Error("missing task: want error")
	}
	if _, err := RunOnce(ExperimentConfig{Task: data.MNISTO, Scale: tinyScale()}, 0); err == nil {
		t.Error("missing method: want error")
	}
	bad := tinyScale()
	bad.K = bad.N
	if _, err := RunOnce(ExperimentConfig{Task: data.MNISTO, Method: MethodFMore, Scale: bad}, 0); err == nil {
		t.Error("K=N: want error")
	}
}

func TestRunAveragedSeries(t *testing.T) {
	s := tinyScale()
	s.Repeats = 2
	avg, err := RunAveraged(ExperimentConfig{Task: data.MNISTO, Method: MethodFMore, Scale: s})
	if err != nil {
		t.Fatal(err)
	}
	if len(avg.Accuracy) != s.Rounds || len(avg.Loss) != s.Rounds {
		t.Fatalf("series lengths %d/%d, want %d", len(avg.Accuracy), len(avg.Loss), s.Rounds)
	}
	if avg.Runs != 2 || len(avg.Histories) != 2 {
		t.Errorf("runs recorded %d/%d, want 2", avg.Runs, len(avg.Histories))
	}
	if avg.Selector != "FMore" {
		t.Errorf("selector = %q", avg.Selector)
	}
	if avg.MeanPayment <= 0 || avg.MeanWinnerScore <= 0 {
		t.Errorf("auction telemetry missing: payment=%v score=%v", avg.MeanPayment, avg.MeanWinnerScore)
	}
	if got := avg.FinalAccuracy(); got != avg.Accuracy[s.Rounds-1] {
		t.Errorf("FinalAccuracy = %v, want %v", got, avg.Accuracy[s.Rounds-1])
	}
	if rta := avg.RoundsToAccuracy(2.0); rta != float64(s.Rounds+1) {
		t.Errorf("unreachable target should cap at Rounds+1, got %v", rta)
	}
}

func TestSweepAuctionMonotonicity(t *testing.T) {
	// Payment falls and score rises with N (Fig. 9b's shape).
	stats, err := SweepAuction([]int{20, 60, 120}, []int{5}, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("stats = %d, want 3", len(stats))
	}
	if !(stats[2].MeanPayment < stats[0].MeanPayment) {
		t.Errorf("payment should fall with N: %v -> %v", stats[0].MeanPayment, stats[2].MeanPayment)
	}
	if !(stats[2].MeanScore > stats[0].MeanScore) {
		t.Errorf("score should rise with N: %v -> %v", stats[0].MeanScore, stats[2].MeanScore)
	}

	// Payment rises with K (Fig. 10b / Theorem 3's shape).
	stats, err = SweepAuction([]int{60}, []int{5, 15, 25}, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !(stats[2].MeanPayment > stats[0].MeanPayment) {
		t.Errorf("payment should rise with K: %v -> %v", stats[0].MeanPayment, stats[2].MeanPayment)
	}
	if !(stats[2].MeanScore < stats[0].MeanScore) {
		t.Errorf("score should fall with K: %v -> %v", stats[0].MeanScore, stats[2].MeanScore)
	}
}

func TestSweepAuctionErrors(t *testing.T) {
	if _, err := SweepAuction(nil, []int{1}, 5, 1); err == nil {
		t.Error("empty ns: want error")
	}
	if _, err := SweepAuction([]int{5}, []int{5}, 5, 1); err == nil {
		t.Error("K>=N: want error")
	}
}

func TestSweepPsiConcentration(t *testing.T) {
	counts, err := SweepPsi([]float64{0.2, 0.9}, 50, 10, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 {
		t.Fatalf("counts = %d, want 2", len(counts))
	}
	// High ψ concentrates selection near the top of the ranking.
	if !(counts[1].Top10 > counts[0].Top10) {
		t.Errorf("top10 at psi=0.9 (%v) should exceed psi=0.2 (%v)", counts[1].Top10, counts[0].Top10)
	}
	if counts[0].MeanSelectedScoreRank <= counts[1].MeanSelectedScoreRank {
		t.Errorf("low psi should select lower-ranked nodes on average: %v vs %v",
			counts[0].MeanSelectedScoreRank, counts[1].MeanSelectedScoreRank)
	}
	for _, c := range counts {
		if c.Top10 > c.Top20 || c.Top20 > c.Top30 {
			t.Errorf("top-bucket counts must be nested: %+v", c)
		}
	}
	if _, err := SweepPsi(nil, 10, 2, 5, 1); err == nil {
		t.Error("empty psi sweep: want error")
	}
}

func TestNewScoreDistribution(t *testing.T) {
	scores := []float64{1, 1, 2, 3, 3, 3}
	d := NewScoreDistribution(scores, 3)
	total := 0.0
	for _, p := range d.Proportion {
		total += p
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("proportions sum to %v, want 100", total)
	}
	if len(d.BinCenters) != 3 {
		t.Errorf("bins = %d, want 3", len(d.BinCenters))
	}
	// Degenerate inputs do not panic.
	_ = NewScoreDistribution(nil, 5)
	_ = NewScoreDistribution([]float64{2, 2, 2}, 4)
}

func TestWriteFigure(t *testing.T) {
	fr := &FigureResult{
		ID:    "figX",
		Title: "test figure",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{0.5, 0.75}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{0.25, 0.5}},
			{Name: "c", X: []float64{10, 20, 30}, Y: []float64{1, 2, 3}},
		},
		Notes: []string{"hello"},
	}
	var buf bytes.Buffer
	if err := WriteFigure(&buf, fr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figX", "test figure", "a", "b", "c", "note: hello", "0.75"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMethodString(t *testing.T) {
	if MethodFMore.String() != "FMore" || MethodRandFL.String() != "RandFL" ||
		MethodFixFL.String() != "FixFL" || MethodPsiFMore.String() != "psi-FMore" {
		t.Error("Method.String mismatch")
	}
	if Method(9).String() == "" {
		t.Error("unknown method should format")
	}
}

// TestFigure4QuickShape runs the figure-4 generator at tiny scale and
// validates its structure (full-scale shape checks live in the benches).
func TestFigure4QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation")
	}
	fr, err := Figure4(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if fr.ID != "fig4" {
		t.Errorf("ID = %q", fr.ID)
	}
	// 3 methods × (accuracy + loss).
	if len(fr.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(fr.Series))
	}
	for _, s := range fr.Series {
		if len(s.X) != 3 || len(s.Y) != 3 {
			t.Errorf("series %q has %d/%d points, want 3", s.Name, len(s.X), len(s.Y))
		}
	}
	if len(fr.Notes) == 0 {
		t.Error("figure should derive notes")
	}
}

func TestFigure9And10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation")
	}
	s := tinyScale()
	fr, err := Figure9(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ser := range fr.Series {
		names[ser.Name] = true
	}
	for _, want := range []string{"payment-vs-N", "score-vs-N"} {
		if !names[want] {
			t.Errorf("fig9 missing series %q", want)
		}
	}
	fr10, err := Figure10(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	names = map[string]bool{}
	for _, ser := range fr10.Series {
		names[ser.Name] = true
	}
	for _, want := range []string{"payment-vs-K", "score-vs-K"} {
		if !names[want] {
			t.Errorf("fig10 missing series %q", want)
		}
	}
}

func TestFigure11Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation")
	}
	fr, err := Figure11(tinyScale(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Series) < 5 {
		t.Errorf("fig11 series = %d, want >= 5", len(fr.Series))
	}
}

func TestFigures12And13Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment figure generation")
	}
	fig12, fig13, err := Figures12And13(QuickClusterScale())
	if err != nil {
		t.Fatal(err)
	}
	if fig12.ID != "fig12" || fig13.ID != "fig13" {
		t.Errorf("ids = %q/%q", fig12.ID, fig13.ID)
	}
	if len(fig12.Series) != 4 {
		t.Errorf("fig12 series = %d, want 4", len(fig12.Series))
	}
	var cumF []float64
	for _, s := range fig13.Series {
		if s.Name == "FMore/cum-time" {
			cumF = s.Y
		}
	}
	for i := 1; i < len(cumF); i++ {
		if cumF[i] < cumF[i-1] {
			t.Error("cumulative time must be non-decreasing")
		}
	}
}

func TestDeploymentFMorePaysAndRandFLDoesNot(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment runs")
	}
	cs := QuickClusterScale()
	fmore, randfl, err := deploymentRuns(cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*fl.History{fmore, randfl} {
		if len(h.Rounds) != cs.Rounds {
			t.Fatalf("%s: rounds = %d, want %d", h.Selector, len(h.Rounds), cs.Rounds)
		}
		for _, r := range h.Rounds {
			if len(r.SelectedIDs) == 0 || len(r.SelectedIDs) > cs.K {
				t.Errorf("%s round %d selected %v, want 1..%d nodes", h.Selector, r.Round, r.SelectedIDs, cs.K)
			}
			if r.Accuracy <= 0 || r.Accuracy > 1 {
				t.Errorf("%s round %d accuracy %v out of range", h.Selector, r.Round, r.Accuracy)
			}
		}
	}
	for _, r := range fmore.Rounds {
		if r.TotalPayment <= 0 {
			t.Errorf("FMore round %d paid %v, want positive (the auction pays its winners)", r.Round, r.TotalPayment)
		}
	}
	for _, r := range randfl.Rounds {
		if r.TotalPayment != 0 {
			t.Errorf("RandFL round %d paid %v, want 0", r.Round, r.TotalPayment)
		}
	}
}

func TestDeploymentSimulatedTime(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment runs")
	}
	fmore, randfl, err := deploymentRuns(QuickClusterScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*fl.History{fmore, randfl} {
		prev := 0.0
		for _, r := range h.Rounds {
			if r.SimTimeSec <= 0 {
				t.Errorf("%s round %d simulated time %v, want positive", h.Selector, r.Round, r.SimTimeSec)
			}
			if r.CumTimeSec < prev {
				t.Errorf("%s round %d cumulative time %v < previous %v", h.Selector, r.Round, r.CumTimeSec, prev)
			}
			prev = r.CumTimeSec
		}
	}
}

func TestDeploymentRejectsKAtLeastNodes(t *testing.T) {
	for _, mutate := range []func(*Scale){
		func(s *Scale) { s.K = s.N },
		func(s *Scale) { s.K = s.N + 1 },
		func(s *Scale) { s.N, s.K = 1, 1 },
	} {
		cs := QuickClusterScale()
		mutate(&cs)
		if _, _, err := Figures12And13(cs); err == nil {
			t.Errorf("N=%d K=%d: want error", cs.N, cs.K)
		}
	}
}

// TestFigures12And13Deterministic runs the deployment twice with one seed
// and requires the same bits at every point of every series.
func TestFigures12And13Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment runs")
	}
	a12, a13, err := Figures12And13(QuickClusterScale())
	if err != nil {
		t.Fatal(err)
	}
	b12, b13, err := Figures12And13(QuickClusterScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*FigureResult{{a12, b12}, {a13, b13}} {
		a, b := pair[0], pair[1]
		if len(a.Series) != len(b.Series) {
			t.Fatalf("%s: %d vs %d series", a.ID, len(a.Series), len(b.Series))
		}
		for i, sa := range a.Series {
			sb := b.Series[i]
			if sa.Name != sb.Name || len(sa.X) != len(sb.X) || len(sa.Y) != len(sb.Y) {
				t.Fatalf("%s series %d: %q (%d points) vs %q (%d points)", a.ID, i, sa.Name, len(sa.Y), sb.Name, len(sb.Y))
			}
			for j := range sa.X {
				if math.Float64bits(sa.X[j]) != math.Float64bits(sb.X[j]) ||
					math.Float64bits(sa.Y[j]) != math.Float64bits(sb.Y[j]) {
					t.Errorf("%s %s point %d: (%v, %v) vs (%v, %v)", a.ID, sa.Name, j, sa.X[j], sa.Y[j], sb.X[j], sb.Y[j])
				}
			}
		}
	}
}

func TestHeadlineWritesTasksInRunOrder(t *testing.T) {
	h := &HeadlineResult{PerTask: map[string]TaskHeadline{}}
	for i, task := range headlineTasks {
		h.PerTask[task.String()] = TaskHeadline{RoundReductionPct: float64(i)}
	}
	// A negative reduction (FMore took more rounds) prints one sign.
	h.PerTask[headlineTasks[1].String()] = TaskHeadline{RoundReductionPct: -5}
	var buf bytes.Buffer
	if err := h.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"rounds -0.0%", "rounds +5.0%", "rounds -2.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "--") {
		t.Errorf("a reduction printed with two signs:\n%s", out)
	}
	last := -1
	for _, task := range []data.TaskKind{data.MNISTO, data.MNISTF, data.CIFAR10, data.HPNews} {
		at := strings.Index(out, "  "+task.String()+" ")
		if at < 0 || at < last {
			t.Fatalf("task %s missing or out of order:\n%s", task, out)
		}
		last = at
	}
}

func TestInterpolateSeries(t *testing.T) {
	s := Series{Name: "t", X: []float64{1, 2, 3}, Y: []float64{1, 4, 9}}
	out, err := interpolateSeries(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.X) != 5 {
		t.Errorf("points = %d, want 5", len(out.X))
	}
	if _, err := interpolateSeries(Series{X: []float64{1}, Y: []float64{1}}, 3); err == nil {
		t.Error("short series: want error")
	}
}

func TestWriteFigureCSV(t *testing.T) {
	fr := &FigureResult{
		ID: "figY",
		Series: []Series{
			{Name: "s1", X: []float64{1, 2}, Y: []float64{0.5, 0.75}},
		},
	}
	var buf bytes.Buffer
	if err := WriteFigureCSV(&buf, fr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 rows:\n%s", len(lines), out)
	}
	if lines[0] != "figure,series,x,y" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "figY,s1,1,0.5") {
		t.Errorf("row = %q", lines[1])
	}
}
