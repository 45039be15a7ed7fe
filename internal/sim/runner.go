package sim

import (
	"fmt"
	"math/rand"

	"fmore/internal/data"
	"fmore/internal/fl"
	"fmore/internal/mec"
)

// RunOnce executes one federated training run under the experiment config
// with the given repeat index (seeds derive from Scale.Seed + repeat).
func RunOnce(cfg ExperimentConfig, repeat int) (*fl.History, error) {
	m, err := newSimulatorAuction()
	if err != nil {
		return nil, err
	}
	return runOnce(cfg, repeat, m)
}

// runOnce is RunOnce in the given market: it generates the corpus,
// partitions it over a population drawn from the market's θ distribution,
// builds the initial global model and the method's selector, and runs
// fl.Run. Every draw derives from Scale.Seed + 1000·repeat, so two methods
// at the same repeat start from the same corpus, population and model.
func runOnce(cfg ExperimentConfig, repeat int, m *market) (*fl.History, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	seed := cfg.Scale.Seed + int64(repeat)*1000
	rng := rand.New(rand.NewSource(seed))

	corpus, err := data.GenerateTask(cfg.Task, cfg.Scale.TrainSamples, cfg.Scale.TestSamples, seed+1)
	if err != nil {
		return nil, err
	}
	part, err := data.PartitionHeterogeneous(corpus.Train, corpus.Classes,
		cfg.Scale.N, cfg.Scale.MinNodeData, cfg.Scale.MaxNodeData, 1, rng)
	if err != nil {
		return nil, err
	}
	pop, err := mec.NewPopulation(mec.PopulationConfig{
		N: cfg.Scale.N, Theta: m.theta, Partition: part.Nodes, Classes: corpus.Classes,
	}, rng)
	if err != nil {
		return nil, err
	}
	global, err := data.NewModel(cfg.Task, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		return nil, err
	}
	selector, err := buildSelector(cfg, m, pop, seed)
	if err != nil {
		return nil, err
	}
	flCfg := fl.Config{
		Global:             global,
		Test:               corpus.Test,
		Selector:           selector,
		Population:         pop,
		Rounds:             cfg.Scale.Rounds,
		LocalEpochs:        cfg.LocalEpochs,
		BatchSize:          cfg.BatchSize,
		LR:                 cfg.LR,
		MaxSamplesPerRound: cfg.Scale.MaxSamplesPerRound,
		Seed:               seed + 3,
	}
	if cfg.WithTiming {
		tm := mec.DefaultTimingModel(global.NumParams())
		flCfg.Timing = &tm
	}
	return fl.Run(flCfg)
}

// AvgHistory is the pointwise mean of several runs of the same experiment.
type AvgHistory struct {
	Selector string
	Runs     int
	// Accuracy and Loss are per-round means.
	Accuracy []float64
	Loss     []float64
	// CumTime is the per-round mean cumulative simulated time (zeros
	// without timing).
	CumTime []float64
	// MeanWinnerScore and MeanPayment are averaged over rounds and runs
	// (auction methods only).
	MeanWinnerScore float64
	MeanPayment     float64
	// Histories keeps the raw runs for detail analysis.
	Histories []*fl.History
}

// RoundsToAccuracy averages, across runs, the first round reaching target;
// runs that never reach it count as Rounds+1 (a pessimistic cap, keeping
// comparisons meaningful).
func (a *AvgHistory) RoundsToAccuracy(target float64) float64 {
	if len(a.Histories) == 0 {
		return 0
	}
	total := 0.0
	for _, h := range a.Histories {
		r := h.RoundsToAccuracy(target)
		if r == 0 {
			r = len(h.Rounds) + 1
		}
		total += float64(r)
	}
	return total / float64(len(a.Histories))
}

// roundReduction is FMore's round reduction against RandFL (§V-B): the
// rounds each takes to reach RandFL's final accuracy, and FMore's saving
// in percent.
type roundReduction struct {
	target        float64
	fmore, randfl float64
	pct           float64
}

// reduceRounds computes the round reduction of fmore over randfl; ok is
// false when either round count is not positive, and when fmore's exceeds
// the runs' rounds. RoundsToAccuracy counts a run that never reaches the
// target as Rounds+1, so a task whose FMore does not reach RandFL's final
// accuracy would otherwise read as a negative reduction. The figure notes
// and the headline share this rule.
func reduceRounds(fmore, randfl *AvgHistory) (rr roundReduction, ok bool) {
	rr.target = randfl.FinalAccuracy()
	rr.fmore, rr.randfl = fmore.RoundsToAccuracy(rr.target), randfl.RoundsToAccuracy(rr.target)
	if rr.fmore <= 0 || rr.randfl <= 0 || rr.fmore > float64(len(fmore.Accuracy)) {
		return rr, false
	}
	rr.pct = 100 * (1 - rr.fmore/rr.randfl)
	return rr, true
}

// FinalAccuracy is the mean accuracy at the last round.
func (a *AvgHistory) FinalAccuracy() float64 {
	if len(a.Accuracy) == 0 {
		return 0
	}
	return a.Accuracy[len(a.Accuracy)-1]
}

// RunAveraged runs the experiment Scale.Repeats times and averages the
// series, the protocol of §V-A.
func RunAveraged(cfg ExperimentConfig) (*AvgHistory, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rounds := cfg.Scale.Rounds
	avg := &AvgHistory{
		Runs:     cfg.Scale.Repeats,
		Accuracy: make([]float64, rounds),
		Loss:     make([]float64, rounds),
		CumTime:  make([]float64, rounds),
	}
	scoreSum, scoreN := 0.0, 0
	paySum, payN := 0.0, 0
	for r := 0; r < cfg.Scale.Repeats; r++ {
		hist, err := RunOnce(cfg, r)
		if err != nil {
			return nil, fmt.Errorf("sim: repeat %d: %w", r, err)
		}
		if avg.Selector == "" {
			avg.Selector = hist.Selector
		}
		if len(hist.Rounds) != rounds {
			return nil, fmt.Errorf("sim: repeat %d produced %d rounds, want %d", r, len(hist.Rounds), rounds)
		}
		for i, rm := range hist.Rounds {
			avg.Accuracy[i] += rm.Accuracy
			avg.Loss[i] += rm.Loss
			avg.CumTime[i] += rm.CumTimeSec
			for _, s := range rm.WinnerScores {
				scoreSum += s
				scoreN++
			}
			if rm.TotalPayment > 0 && len(rm.SelectedIDs) > 0 {
				paySum += rm.TotalPayment / float64(len(rm.SelectedIDs))
				payN++
			}
		}
		avg.Histories = append(avg.Histories, hist)
	}
	inv := 1 / float64(cfg.Scale.Repeats)
	for i := 0; i < rounds; i++ {
		avg.Accuracy[i] *= inv
		avg.Loss[i] *= inv
		avg.CumTime[i] *= inv
	}
	if scoreN > 0 {
		avg.MeanWinnerScore = scoreSum / float64(scoreN)
	}
	if payN > 0 {
		avg.MeanPayment = paySum / float64(payN)
	}
	return avg, nil
}
