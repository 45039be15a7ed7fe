package sim

import (
	"fmt"

	"fmore/internal/data"
	"fmore/internal/fl"
)

// Series is one named curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// FigureResult is the numeric content of one paper figure.
type FigureResult struct {
	// ID is the paper figure id, e.g. "fig4".
	ID string
	// Title describes the figure.
	Title string
	// Series holds the curves (accuracy/loss/payment/... vs round/N/K/ψ).
	Series []Series
	// Notes records derived observations (speedups, crossovers).
	Notes []string
}

// roundsAxis returns 1..n as float64 x values.
func roundsAxis(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i + 1)
	}
	return x
}

// accuracyLossFigure runs the three methods on a task and assembles the
// paper's accuracy+loss panels (the template of Figs. 4-7).
func accuracyLossFigure(id, title string, task data.TaskKind, scale Scale) (*FigureResult, error) {
	fr := &FigureResult{ID: id, Title: title}
	var fmore, randfl *AvgHistory
	for _, method := range []Method{MethodFMore, MethodRandFL, MethodFixFL} {
		avg, err := RunAveraged(ExperimentConfig{Task: task, Method: method, Scale: scale})
		if err != nil {
			return nil, fmt.Errorf("%s %v: %w", id, method, err)
		}
		x := roundsAxis(scale.Rounds)
		fr.Series = append(fr.Series,
			Series{Name: avg.Selector + "/accuracy", X: x, Y: avg.Accuracy},
			Series{Name: avg.Selector + "/loss", X: x, Y: avg.Loss},
		)
		switch method {
		case MethodFMore:
			fmore = avg
		case MethodRandFL:
			randfl = avg
		}
	}
	// Derived note: speedup of FMore over RandFL at RandFL's final accuracy
	// (the paper reports 42-68% round reductions), left out when FMore
	// never reached it.
	if rr, ok := reduceRounds(fmore, randfl); ok {
		fr.Notes = append(fr.Notes, fmt.Sprintf(
			"rounds to %.1f%% accuracy: FMore %.1f vs RandFL %.1f (%.0f%% reduction)",
			100*rr.target, rr.fmore, rr.randfl, rr.pct))
	}
	fr.Notes = append(fr.Notes, fmt.Sprintf(
		"final accuracy: FMore %.3f vs RandFL %.3f", fmore.FinalAccuracy(), randfl.FinalAccuracy()))
	return fr, nil
}

// Figure4 reproduces Fig. 4: accuracy and loss for the CNN on MNIST-O.
func Figure4(scale Scale) (*FigureResult, error) {
	return accuracyLossFigure("fig4", "CNN on MNIST-O: accuracy and loss vs round", data.MNISTO, scale)
}

// Figure5 reproduces Fig. 5: accuracy and loss for the CNN on MNIST-F.
func Figure5(scale Scale) (*FigureResult, error) {
	return accuracyLossFigure("fig5", "CNN on MNIST-F: accuracy and loss vs round", data.MNISTF, scale)
}

// Figure6 reproduces Fig. 6: accuracy and loss for the CNN on CIFAR-10.
func Figure6(scale Scale) (*FigureResult, error) {
	return accuracyLossFigure("fig6", "CNN on CIFAR-10: accuracy and loss vs round", data.CIFAR10, scale)
}

// Figure7 reproduces Fig. 7: accuracy and loss for the LSTM on HPNews.
func Figure7(scale Scale) (*FigureResult, error) {
	return accuracyLossFigure("fig7", "LSTM on HPNews: accuracy and loss vs round", data.HPNews, scale)
}

// Figure8 reproduces Fig. 8: the distribution of selected-node scores for
// the CIFAR-10 CNN (a) and the HPNews LSTM (b). "Total" is the score
// distribution of all bids; "FMore" histograms the scores of the nodes the
// auction selected. RandFL and FixFL hold no auction, so their selections
// carry no scores and are not run.
func Figure8(scale Scale) (*FigureResult, error) {
	fr := &FigureResult{ID: "fig8", Title: "Distribution of selected-node scores"}
	const bins = 12
	rightOfTotal := true
	for taskIdx, task := range []data.TaskKind{data.CIFAR10, data.HPNews} {
		// Per-task seed offset: bids derive from the data partition, so
		// distinct seeds keep the two panels' populations distinct.
		taskScale := scale
		taskScale.Seed += int64(taskIdx) * 7777
		avg, err := RunAveraged(ExperimentConfig{Task: task, Method: MethodFMore, Scale: taskScale})
		if err != nil {
			return nil, fmt.Errorf("fig8 %v: %w", task, err)
		}
		var totalScores, winnerScores []float64
		for _, h := range avg.Histories {
			for _, rm := range h.Rounds {
				totalScores = append(totalScores, rm.AllScores...)
				winnerScores = append(winnerScores, rm.WinnerScores...)
			}
		}
		rightOfTotal = rightOfTotal && meanOf(winnerScores) > meanOf(totalScores)
		suffix := "/" + task.String()
		dTotal := NewScoreDistribution(totalScores, bins)
		fr.Series = append(fr.Series, Series{Name: "Total" + suffix, X: dTotal.BinCenters, Y: dTotal.Proportion})
		dF := NewScoreDistribution(winnerScores, bins)
		fr.Series = append(fr.Series, Series{Name: "FMore" + suffix, X: dF.BinCenters, Y: dF.Proportion})
	}
	if rightOfTotal {
		fr.Notes = append(fr.Notes, fig8RightOfTotal)
	}
	fr.Notes = append(fr.Notes, "baseline selections carry no scores (no auction), matching the paper's contrast")
	return fr, nil
}

// fig8RightOfTotal is Fig. 8's note when, on both panels, the mean score
// FMore selected exceeds the mean score of all bids.
const fig8RightOfTotal = "FMore's selected-score mass sits right of the total-population distribution: it systematically picks high-score nodes"

// meanOf is the arithmetic mean of xs, NaN when xs is empty.
func meanOf(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Figure9 reproduces Fig. 9: the impact of N. Panel (a): rounds to reach
// target accuracies for N=50 vs N=100 (FMore, MNIST-F). Panel (b): mean
// winner payment and score as N sweeps 50..200.
func Figure9(scale Scale, trials int) (*FigureResult, error) {
	fr := &FigureResult{ID: "fig9", Title: "Impact of the number of edge nodes N"}

	// Panel (a): federated runs at two population sizes.
	targets := []float64{0.70, 0.80, 0.82, 0.84, 0.86}
	for _, n := range []int{scale.N / 2, scale.N} {
		s := scale
		s.N = n
		avg, err := RunAveraged(ExperimentConfig{Task: data.MNISTF, Method: MethodFMore, Scale: s})
		if err != nil {
			return nil, fmt.Errorf("fig9a N=%d: %w", n, err)
		}
		x := make([]float64, len(targets))
		y := make([]float64, len(targets))
		for i, tgt := range targets {
			x[i] = tgt * 100
			y[i] = avg.RoundsToAccuracy(tgt)
		}
		fr.Series = append(fr.Series, Series{Name: fmt.Sprintf("rounds@N=%d", n), X: x, Y: y})
	}

	// Panel (b): auction sweep over N.
	ns := []int{50, 80, 110, 140, 170, 200}
	stats, err := SweepAuction(ns, []int{scale.K}, trials, scale.Seed)
	if err != nil {
		return nil, fmt.Errorf("fig9b: %w", err)
	}
	var xs, pays, scores []float64
	for _, st := range stats {
		xs = append(xs, float64(st.N))
		pays = append(pays, st.MeanPayment)
		scores = append(scores, st.MeanScore)
	}
	fr.Series = append(fr.Series,
		Series{Name: "payment-vs-N", X: xs, Y: pays},
		Series{Name: "score-vs-N", X: xs, Y: scores},
	)
	if pays[len(pays)-1] < pays[0] {
		fr.Notes = append(fr.Notes, "payment decreases with N (more competition) — Theorem 2's shape")
	}
	if scores[len(scores)-1] > scores[0] {
		fr.Notes = append(fr.Notes, "winner score increases with N — more high-quality candidates")
	}
	return fr, nil
}

// Figure10 reproduces Fig. 10: the impact of K. Panel (a): rounds to reach
// target accuracies for K=small vs K=large. Panel (b): mean winner payment
// and score as K sweeps 5..35.
func Figure10(scale Scale, trials int) (*FigureResult, error) {
	fr := &FigureResult{ID: "fig10", Title: "Impact of the number of winners K"}

	targets := []float64{0.70, 0.80, 0.82, 0.84, 0.86}
	kSmall := scale.K / 4
	if kSmall < 1 {
		kSmall = 1
	}
	for _, k := range []int{kSmall, scale.K} {
		s := scale
		s.K = k
		avg, err := RunAveraged(ExperimentConfig{Task: data.MNISTF, Method: MethodFMore, Scale: s})
		if err != nil {
			return nil, fmt.Errorf("fig10a K=%d: %w", k, err)
		}
		x := make([]float64, len(targets))
		y := make([]float64, len(targets))
		for i, tgt := range targets {
			x[i] = tgt * 100
			y[i] = avg.RoundsToAccuracy(tgt)
		}
		fr.Series = append(fr.Series, Series{Name: fmt.Sprintf("rounds@K=%d", k), X: x, Y: y})
	}

	ks := []int{5, 10, 15, 20, 25, 30, 35}
	n := scale.N
	if n <= 35 {
		n = 40
	}
	stats, err := SweepAuction([]int{n}, ks, trials, scale.Seed)
	if err != nil {
		return nil, fmt.Errorf("fig10b: %w", err)
	}
	var xs, pays, scores []float64
	for _, st := range stats {
		xs = append(xs, float64(st.K))
		pays = append(pays, st.MeanPayment)
		scores = append(scores, st.MeanScore)
	}
	fr.Series = append(fr.Series,
		Series{Name: "payment-vs-K", X: xs, Y: pays},
		Series{Name: "score-vs-K", X: xs, Y: scores},
	)
	if pays[len(pays)-1] > pays[0] {
		fr.Notes = append(fr.Notes, "payment increases with K (Theorem 3's shape)")
	}
	if scores[len(scores)-1] < scores[0] {
		fr.Notes = append(fr.Notes, "marginal winner score decreases with K")
	}
	return fr, nil
}

// Figure11 reproduces Fig. 11: the impact of ψ. Panel (a): rounds to target
// accuracy for ψ=0.3 vs ψ=0.9 in the small-data regime. Panel (b): of the K
// selected nodes, how many rank in the top-10/20/30 as ψ varies.
func Figure11(scale Scale, trials int) (*FigureResult, error) {
	fr := &FigureResult{ID: "fig11", Title: "Impact of the selection probability ψ"}

	// Small-data regime: tighten per-node data so diversity matters. The
	// accuracy targets sit below the ones of Figs. 9-10 because this regime
	// converges lower within the round budget.
	s := scale
	s.MaxNodeData = s.MinNodeData * 3
	s.MaxSamplesPerRound = s.MinNodeData * 2
	targets := []float64{0.40, 0.50, 0.60, 0.70, 0.80}
	for _, psi := range []float64{0.3, 0.9} {
		avg, err := RunAveraged(ExperimentConfig{Task: data.MNISTF, Method: MethodPsiFMore, Psi: psi, Scale: s})
		if err != nil {
			return nil, fmt.Errorf("fig11a psi=%v: %w", psi, err)
		}
		x := make([]float64, len(targets))
		y := make([]float64, len(targets))
		for i, tgt := range targets {
			x[i] = tgt * 100
			y[i] = avg.RoundsToAccuracy(tgt)
		}
		fr.Series = append(fr.Series, Series{Name: fmt.Sprintf("rounds@psi=%.1f", psi), X: x, Y: y})
	}

	psis := []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	n, k := scale.N, scale.K
	if n < 40 {
		n, k = 100, 20 // panel (b) is pure auction Monte Carlo; keep paper size
	}
	counts, err := SweepPsi(psis, n, k, trials, scale.Seed)
	if err != nil {
		return nil, fmt.Errorf("fig11b: %w", err)
	}
	var xs, t10, t20, t30 []float64
	for _, c := range counts {
		xs = append(xs, c.Psi)
		t10 = append(t10, c.Top10)
		t20 = append(t20, c.Top20)
		t30 = append(t30, c.Top30)
	}
	fr.Series = append(fr.Series,
		Series{Name: "top10-selected", X: xs, Y: t10},
		Series{Name: "top20-selected", X: xs, Y: t20},
		Series{Name: "top30-selected", X: xs, Y: t30},
	)
	if t30[len(t30)-1] > t30[0] {
		fr.Notes = append(fr.Notes, "larger ψ concentrates selection on top-score nodes; small ψ approaches RandFL")
	}
	return fr, nil
}

// PaperClusterScale mirrors the paper's 31-node cluster (data scaled down)
// for Figs. 12-13. N is the node count and K the per-round winners; the
// deployment is one run per method, so Repeats is 1.
func PaperClusterScale() Scale {
	return Scale{
		N: 31, K: 8, Rounds: 20,
		TrainSamples: 3000, TestSamples: 500,
		MinNodeData: 40, MaxNodeData: 200,
		MaxSamplesPerRound: 60,
		Repeats:            1,
		Seed:               1,
	}
}

// QuickClusterScale is the CI/bench preset of Figs. 12-13.
func QuickClusterScale() Scale {
	return Scale{
		N: 8, K: 3, Rounds: 4,
		TrainSamples: 600, TestSamples: 150,
		MinNodeData: 20, MaxNodeData: 80,
		MaxSamplesPerRound: 40,
		Repeats:            1,
		Seed:               1,
	}
}

// deploymentRuns runs the real-deployment experiment (§V-C) once with FMore
// and once with RandFL on the CIFAR-10 stand-in: the deployment market's
// population, one local epoch per round (the deployment's value), and the
// mec timing model standing in for the cluster's wall clock. Both runs start
// from the same corpus, population and model; cs.Repeats is not used.
func deploymentRuns(cs Scale) (fmore, randfl *fl.History, err error) {
	m, err := newDeploymentAuction()
	if err != nil {
		return nil, nil, err
	}
	run := func(method Method) (*fl.History, error) {
		return runOnce(ExperimentConfig{
			Task: data.CIFAR10, Method: method, Scale: cs,
			LocalEpochs: 1, WithTiming: true,
		}, 0, m)
	}
	if fmore, err = run(MethodFMore); err != nil {
		return nil, nil, fmt.Errorf("fig12 FMore deployment: %w", err)
	}
	if randfl, err = run(MethodRandFL); err != nil {
		return nil, nil, fmt.Errorf("fig12 RandFL deployment: %w", err)
	}
	return fmore, randfl, nil
}

// Figures12And13 runs the deployment for FMore and RandFL and assembles
// both figures: accuracy/loss vs round (Fig. 12) and cumulative training
// time vs round plus time-to-accuracy (Fig. 13).
func Figures12And13(cs Scale) (*FigureResult, *FigureResult, error) {
	fmoreRes, randRes, err := deploymentRuns(cs)
	if err != nil {
		return nil, nil, err
	}

	x := roundsAxis(cs.Rounds)
	fig12 := &FigureResult{ID: "fig12", Title: "Realistic deployment: CIFAR-10 accuracy and loss"}
	fig12.Series = append(fig12.Series,
		Series{Name: "FMore/accuracy", X: x, Y: fmoreRes.Accuracies()},
		Series{Name: "RandFL/accuracy", X: x, Y: randRes.Accuracies()},
		Series{Name: "FMore/loss", X: x, Y: fmoreRes.Losses()},
		Series{Name: "RandFL/loss", X: x, Y: randRes.Losses()},
	)
	fa := fmoreRes.Final().Accuracy
	ra := randRes.Final().Accuracy
	if ra > 0 {
		fig12.Notes = append(fig12.Notes, fmt.Sprintf(
			"final accuracy: FMore %.3f vs RandFL %.3f (%+.1f%% relative)", fa, ra, 100*(fa/ra-1)))
	}

	fig13 := &FigureResult{ID: "fig13", Title: "Realistic deployment: training time"}
	fig13.Series = append(fig13.Series,
		Series{Name: "FMore/cum-time", X: x, Y: cumTimes(fmoreRes)},
		Series{Name: "RandFL/cum-time", X: x, Y: cumTimes(randRes)},
	)
	// Time-to-accuracy curve at interior targets.
	maxAcc := fa
	if ra < maxAcc {
		maxAcc = ra
	}
	var tx, tyF, tyR []float64
	for _, frac := range []float64{0.6, 0.7, 0.8, 0.9, 1.0} {
		tgt := maxAcc * frac
		tF := fmoreRes.TimeToAccuracy(tgt)
		tR := randRes.TimeToAccuracy(tgt)
		if tF > 0 && tR > 0 {
			tx = append(tx, tgt*100)
			tyF = append(tyF, tF)
			tyR = append(tyR, tR)
		}
	}
	fig13.Series = append(fig13.Series,
		Series{Name: "FMore/time-to-acc", X: tx, Y: tyF},
		Series{Name: "RandFL/time-to-acc", X: tx, Y: tyR},
	)
	totalF := fmoreRes.Final().CumTimeSec
	totalR := randRes.Final().CumTimeSec
	if totalR > 0 {
		fig13.Notes = append(fig13.Notes, fmt.Sprintf(
			"total simulated training time: FMore %.1fs vs RandFL %.1fs (%.1f%% reduction)",
			totalF, totalR, 100*(1-totalF/totalR)))
	}
	return fig12, fig13, nil
}

// cumTimes is a run's per-round cumulative simulated time.
func cumTimes(h *fl.History) []float64 {
	out := make([]float64, len(h.Rounds))
	for i, r := range h.Rounds {
		out[i] = r.CumTimeSec
	}
	return out
}
