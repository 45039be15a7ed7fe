// Package sim is the "smart simulator" of §V-A: it wires the dataset,
// population, auction and federated-learning substrates into the paper's
// experiments and regenerates every evaluation figure (Figs. 4-13) as
// numeric series. Each figure has a dedicated generator; bench_test.go and
// cmd/fmore-bench expose them.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"fmore/internal/auction"
	"fmore/internal/data"
	"fmore/internal/dist"
	"fmore/internal/fl"
	"fmore/internal/mec"
)

// Method selects the client-selection strategy under test.
type Method int

const (
	// MethodFMore is the paper's auction scheme.
	MethodFMore Method = iota + 1
	// MethodRandFL is classic federated learning with random selection.
	MethodRandFL
	// MethodFixFL keeps a fixed winner set.
	MethodFixFL
	// MethodPsiFMore is the ψ-randomized extension.
	MethodPsiFMore
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodFMore:
		return "FMore"
	case MethodRandFL:
		return "RandFL"
	case MethodFixFL:
		return "FixFL"
	case MethodPsiFMore:
		return "psi-FMore"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Scale groups the size knobs shared by all experiments, so figures can run
// at paper scale (N=100, K=20, averaged over 5 repeats) or at a quick scale
// for CI and benchmarks. The deployment of Figs. 12-13 takes a Scale too
// (PaperClusterScale, QuickClusterScale), with N the node count.
type Scale struct {
	// N and K are the population and winner-set sizes.
	N, K int
	// Rounds is the number of federated rounds per run.
	Rounds int
	// TrainSamples/TestSamples size the generated corpus.
	TrainSamples, TestSamples int
	// MinNodeData/MaxNodeData bound per-node local data.
	MinNodeData, MaxNodeData int
	// MaxSamplesPerRound caps each winner's per-round subset (keeps CPU-only
	// training tractable; 0 = uncapped).
	MaxSamplesPerRound int
	// Repeats averages results over this many seeds ("all the results are
	// the average of five experiments", §V-A).
	Repeats int
	// Seed is the base seed; repeat r uses Seed + r.
	Seed int64
}

// PaperScale mirrors the paper's simulator dimensions: 100 participators,
// K = 20 winners, 20 rounds, averaged over 5 runs. Per-node data is scaled
// down from the paper's [1000, 5000] to keep pure-Go training tractable; the
// relative heterogeneity (5× spread) is preserved.
func PaperScale() Scale {
	return Scale{
		N: 100, K: 20, Rounds: 20,
		TrainSamples: 4000, TestSamples: 600,
		MinNodeData: 15, MaxNodeData: 200,
		MaxSamplesPerRound: 100,
		Repeats:            5,
		Seed:               1,
	}
}

// QuickScale is a reduced preset for benchmarks and integration tests.
func QuickScale() Scale {
	return Scale{
		N: 40, K: 8, Rounds: 8,
		TrainSamples: 1200, TestSamples: 300,
		MinNodeData: 10, MaxNodeData: 100,
		MaxSamplesPerRound: 60,
		Repeats:            1,
		Seed:               1,
	}
}

func (s Scale) validate() error {
	if s.N < 2 || s.K < 1 || s.K >= s.N {
		return fmt.Errorf("sim: need N >= 2 and 1 <= K < N, got N=%d K=%d", s.N, s.K)
	}
	if s.Rounds < 1 || s.Repeats < 1 {
		return fmt.Errorf("sim: need Rounds >= 1 and Repeats >= 1, got %d/%d", s.Rounds, s.Repeats)
	}
	if s.MinNodeData < 1 || s.MaxNodeData < s.MinNodeData {
		return fmt.Errorf("sim: node data range [%d, %d] invalid", s.MinNodeData, s.MaxNodeData)
	}
	return nil
}

// ExperimentConfig is one concrete run specification.
type ExperimentConfig struct {
	Task   data.TaskKind
	Method Method
	Scale  Scale
	// Psi applies to MethodPsiFMore (default 1 otherwise).
	Psi float64
	// LocalEpochs, BatchSize, LR are local training hyperparameters.
	LocalEpochs, BatchSize int
	LR                     float64
	// WithTiming attaches the mec timing model.
	WithTiming bool
}

func (c *ExperimentConfig) setDefaults() {
	if c.LocalEpochs == 0 {
		// Two local passes per round: the standard FedAvg E > 1 regime; the
		// hardest tiers need the extra local progress to move within the
		// paper's 20-round budget.
		c.LocalEpochs = 2
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.LR == 0 {
		switch c.Task {
		case data.HPNews:
			c.LR = 0.08
		case data.CIFAR10:
			// The hardest image tier destabilizes above ~0.02 with momentum.
			c.LR = 0.02
		default:
			c.LR = 0.04
		}
	}
	if c.Psi == 0 {
		c.Psi = 1
	}
}

func (c *ExperimentConfig) validate() error {
	if c.Task == 0 {
		return errors.New("sim: Task is required")
	}
	if c.Method == 0 {
		return errors.New("sim: Method is required")
	}
	if c.Psi <= 0 || c.Psi > 1 {
		return fmt.Errorf("sim: Psi must be in (0, 1], got %v", c.Psi)
	}
	return c.Scale.validate()
}

// market bundles one auction market's primitives: the public scoring rule,
// the bidders' cost family, the θ distribution, the quality box the
// Theorem 1 solver searches, and how a node turns its offered resources and
// the solved strategy into a sealed bid.
type market struct {
	rule  auction.ScoringRule
	cost  auction.CostFunction
	theta dist.Distribution
	// dims is the quality dimension; the solver searches [0, 1]^dims.
	dims, qualityGridPoints int
	bid                     func(strat *auction.Strategy, s Scale) fl.BidFunc
}

// newSimulatorAuction builds the paper simulator's market (§V-A): the
// scoring rule s(q₁, q₂) = 25·q₁·q₂ (α = 25), a linear cost family,
// θ ~ Uniform[1, 2], and bids over (data size, category proportion).
func newSimulatorAuction() (*market, error) {
	rule, err := auction.NewCobbDouglas(25, 1, 1)
	if err != nil {
		return nil, err
	}
	cost, err := auction.NewLinearCost(0.5, 0.5)
	if err != nil {
		return nil, err
	}
	theta, err := dist.NewUniform(1, 2)
	if err != nil {
		return nil, err
	}
	return &market{
		rule: rule, cost: cost, theta: theta, dims: 2, qualityGridPoints: 32,
		bid: func(strat *auction.Strategy, s Scale) fl.BidFunc {
			return fl.SimulatorBid(strat, float64(s.MaxNodeData))
		},
	}, nil
}

// newDeploymentAuction builds the real-deployment market (§V-A, §V-C): the
// additive rule 0.4/0.3/0.3 over (computing power, bandwidth, data size),
// linear cost 0.1 per dimension, θ ~ Uniform[0.5, 1.5], and bids over those
// three resources normalized by 8 cores, 100 Mbps and the largest local
// dataset.
func newDeploymentAuction() (*market, error) {
	rule, err := auction.NewAdditive(0.4, 0.3, 0.3)
	if err != nil {
		return nil, err
	}
	cost, err := auction.NewLinearCost(0.1, 0.1, 0.1)
	if err != nil {
		return nil, err
	}
	theta, err := dist.NewUniform(0.5, 1.5)
	if err != nil {
		return nil, err
	}
	return &market{
		rule: rule, cost: cost, theta: theta, dims: 3, qualityGridPoints: 24,
		bid: func(strat *auction.Strategy, s Scale) fl.BidFunc {
			return fl.ClusterBid(strat, 8, 100, float64(s.MaxNodeData))
		},
	}, nil
}

// strategy solves the market's Nash equilibrium at (n, k).
func (m *market) strategy(n, k int) (*auction.Strategy, error) {
	return auction.SolveEquilibrium(auction.EquilibriumConfig{
		Rule: m.rule, Cost: m.cost, Theta: m.theta,
		N: n, K: k,
		QLo: make([]float64, m.dims), QHi: ones(m.dims),
		ThetaGridPoints: 65, QualityGridPoints: m.qualityGridPoints,
	})
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// buildSelector constructs the method's selector for a given population.
func buildSelector(cfg ExperimentConfig, m *market, pop *mec.Population, seed int64) (fl.Selector, error) {
	switch cfg.Method {
	case MethodRandFL:
		return fl.RandomSelector{K: cfg.Scale.K}, nil
	case MethodFixFL:
		ids := make([]int, pop.N())
		for i := range ids {
			ids[i] = i
		}
		return fl.NewFixedSelector(ids, cfg.Scale.K, rand.New(rand.NewSource(seed+31)))
	case MethodFMore, MethodPsiFMore:
		strat, err := m.strategy(cfg.Scale.N, cfg.Scale.K)
		if err != nil {
			return nil, err
		}
		psi := 1.0
		name := "FMore"
		if cfg.Method == MethodPsiFMore {
			psi = cfg.Psi
			name = fmt.Sprintf("psi-FMore(%.2g)", psi)
		}
		auctioneer, err := auction.NewAuctioneer(auction.Config{
			Rule: m.rule, K: cfg.Scale.K, Psi: psi,
		}, rand.New(rand.NewSource(seed+37)))
		if err != nil {
			return nil, err
		}
		return fl.NewFMoreSelector(auctioneer, m.bid(strat, cfg.Scale), name)
	default:
		return nil, fmt.Errorf("sim: unknown method %v", cfg.Method)
	}
}
