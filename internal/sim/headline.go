package sim

import (
	"fmt"

	"fmore/internal/data"
)

// HeadlineResult collects the paper's headline claims recomputed on this
// reproduction:
//
//	"FMore is able to speed up federated training via reducing training
//	 rounds by 51.3% on average and improve the model accuracy by 28% for
//	 the tested CNN and LSTM models." (§I, simulations)
//	"Real implementations ... witness the improvement of model accuracy by
//	 44.9% and the reduction of training time by 38.4%." (§I, cluster)
type HeadlineResult struct {
	// PerTask maps each simulated workload to its round reduction (vs
	// RandFL, at RandFL's final accuracy) and relative accuracy gain.
	PerTask map[string]TaskHeadline
	// MeanRoundReductionPct averages the per-task round reductions (the
	// paper reports 51.3%).
	MeanRoundReductionPct float64
	// LSTMAccuracyGainPct is the relative accuracy improvement on the LSTM
	// task at the final round (the paper reports 28%).
	LSTMAccuracyGainPct float64
	// ClusterAccuracyGainPct and ClusterTimeReductionPct come from the
	// deployment reproduction (the paper reports 44.9% and 38.4%).
	ClusterAccuracyGainPct  float64
	ClusterTimeReductionPct float64
}

// TaskHeadline is one workload's headline pair.
type TaskHeadline struct {
	RoundReductionPct float64
	AccuracyGainPct   float64
}

// headlineTasks is the order HeadlineNumbers runs the simulated workloads
// in, and the order Write prints them in.
var headlineTasks = []data.TaskKind{data.MNISTO, data.MNISTF, data.CIFAR10, data.HPNews}

// HeadlineNumbers reruns the four simulation workloads plus the cluster
// deployment (sized by cs, see PaperClusterScale) and derives the paper's
// headline quantities.
func HeadlineNumbers(scale, cs Scale) (*HeadlineResult, error) {
	res := &HeadlineResult{PerTask: map[string]TaskHeadline{}}
	var reductionSum float64
	var reductionN int
	for _, task := range headlineTasks {
		fmore, err := RunAveraged(ExperimentConfig{Task: task, Method: MethodFMore, Scale: scale})
		if err != nil {
			return nil, fmt.Errorf("headline %v FMore: %w", task, err)
		}
		randfl, err := RunAveraged(ExperimentConfig{Task: task, Method: MethodRandFL, Scale: scale})
		if err != nil {
			return nil, fmt.Errorf("headline %v RandFL: %w", task, err)
		}
		th := TaskHeadline{}
		target := randfl.FinalAccuracy()
		rF, rR := fmore.RoundsToAccuracy(target), randfl.RoundsToAccuracy(target)
		if rR > 0 && rF > 0 {
			th.RoundReductionPct = 100 * (1 - rF/rR)
			reductionSum += th.RoundReductionPct
			reductionN++
		}
		if ra := randfl.FinalAccuracy(); ra > 0 {
			th.AccuracyGainPct = 100 * (fmore.FinalAccuracy()/ra - 1)
		}
		res.PerTask[task.String()] = th
		if task == data.HPNews {
			res.LSTMAccuracyGainPct = th.AccuracyGainPct
		}
	}
	if reductionN > 0 {
		res.MeanRoundReductionPct = reductionSum / float64(reductionN)
	}

	fig12, fig13, err := Figures12And13(cs)
	if err != nil {
		return nil, err
	}
	var totalF, totalR float64
	for _, s := range fig13.Series {
		if len(s.Y) == 0 {
			continue
		}
		switch s.Name {
		case "FMore/cum-time":
			totalF = s.Y[len(s.Y)-1]
		case "RandFL/cum-time":
			totalR = s.Y[len(s.Y)-1]
		}
	}
	if totalR > 0 {
		res.ClusterTimeReductionPct = 100 * (1 - totalF/totalR)
	}
	var accF, accR float64
	for _, s := range fig12.Series {
		if len(s.Y) == 0 {
			continue
		}
		switch s.Name {
		case "FMore/accuracy":
			accF = s.Y[len(s.Y)-1]
		case "RandFL/accuracy":
			accR = s.Y[len(s.Y)-1]
		}
	}
	if accR > 0 {
		res.ClusterAccuracyGainPct = 100 * (accF/accR - 1)
	}
	return res, nil
}

// Write renders the headline comparison against the paper's numbers.
func (h *HeadlineResult) Write(w interface{ Write([]byte) (int, error) }) error {
	lines := []string{
		"== headline numbers (paper → measured) ==",
		fmt.Sprintf("  mean round reduction:   paper 51.3%%  measured %.1f%%", h.MeanRoundReductionPct),
		fmt.Sprintf("  LSTM accuracy gain:     paper 28%%    measured %.1f%%", h.LSTMAccuracyGainPct),
		fmt.Sprintf("  cluster accuracy gain:  paper 44.9%%  measured %.1f%%", h.ClusterAccuracyGainPct),
		fmt.Sprintf("  cluster time reduction: paper 38.4%%  measured %.1f%%", h.ClusterTimeReductionPct),
	}
	for _, task := range headlineTasks {
		th, ok := h.PerTask[task.String()]
		if !ok {
			continue
		}
		// A reduction prints as the signed change in rounds, so a run that
		// took more rounds reads "+5.0%", not "--5.0%".
		lines = append(lines, fmt.Sprintf("  %-10s rounds %+.1f%%  accuracy %+.1f%%",
			task, -th.RoundReductionPct, th.AccuracyGainPct))
	}
	for _, l := range lines {
		if _, err := w.Write([]byte(l + "\n")); err != nil {
			return err
		}
	}
	return nil
}
