// Package cluster is the in-process harness for the paper's real-world
// deployment experiment (§V-C): one aggregator and N edge nodes connected
// over loopback TCP, speaking the internal/transport protocol. It reproduces
// the 1 + 31 node setup of the paper's HPC cluster, with the deterministic
// timing model of internal/mec standing in for wall-clock measurements.
// Winner determination runs on the aggregator's private auction.Auctioneer
// (or the RandFL baseline); this is the paper-reproduction path and shares
// only internal/auction with the /v1 exchange service.
package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"fmore/internal/auction"
	"fmore/internal/data"
	"fmore/internal/dist"
	"fmore/internal/mec"
	"fmore/internal/transport"
)

// Config parameterizes a cluster run.
type Config struct {
	// Nodes is the edge-node count (the paper uses 31).
	Nodes int
	// K is the per-round winner count.
	K int
	// Rounds is the number of federated rounds.
	Rounds int
	// Task selects the workload (the paper's cluster runs CIFAR-10).
	Task data.TaskKind
	// TrainSamples/TestSamples size the generated corpus.
	TrainSamples, TestSamples int
	// MinNodeData/MaxNodeData bound per-node local data (the paper
	// allocates [2000, 10000]; scale down for CI).
	MinNodeData, MaxNodeData int
	// LocalEpochs, BatchSize, LR are local training hyperparameters.
	LocalEpochs, BatchSize int
	LR                     float64
	// RandomSelection runs the RandFL baseline instead of the auction.
	RandomSelection bool
	// Psi enables ψ-FMore on the server when in (0, 1).
	Psi float64
	// Seed drives the whole run.
	Seed int64
	// MaxSamplesPerRound caps per-winner local subsets (0 = offered size).
	MaxSamplesPerRound int

	// BreachNodeID, when >= 0, makes that node breach its contract at round
	// 1 (winning then vanishing) to exercise blacklisting. -1 disables.
	BreachNodeID int
	// DropNodeID, when >= 0, makes that node disconnect after round 1.
	DropNodeID int
}

func (c *Config) setDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 31
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.Task == 0 {
		c.Task = data.CIFAR10
	}
	if c.TrainSamples == 0 {
		c.TrainSamples = 2000
	}
	if c.TestSamples == 0 {
		c.TestSamples = 400
	}
	if c.MinNodeData == 0 {
		c.MinNodeData = 40
	}
	if c.MaxNodeData == 0 {
		c.MaxNodeData = 200
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.LR == 0 {
		if c.Task == data.CIFAR10 {
			c.LR = 0.02
		} else {
			c.LR = 0.04
		}
	}
	if c.BreachNodeID == 0 {
		c.BreachNodeID = -1
	}
	if c.DropNodeID == 0 {
		c.DropNodeID = -1
	}
}

// Result is the harness output: the aggregator's report augmented with the
// simulated per-round times of the mec timing model.
type Result struct {
	Report *transport.ServerReport
	// SimTimeSec and CumSimTimeSec are the simulated per-round and
	// cumulative durations (Fig. 13's y axis).
	SimTimeSec    []float64
	CumSimTimeSec []float64
	// Summaries holds each client's session summary, indexed by node ID
	// (nil for clients that errored).
	Summaries []*transport.ClientSummary
	// ClientErrors holds the per-node error, if any.
	ClientErrors []error
}

// DeploymentRule builds the deployment's scoring rule: additive with
// coefficients 0.4/0.3/0.3 over (computing power, bandwidth, data size),
// matching §V-A of the paper. Qualities are normalized client-side to [0,1].
func DeploymentRule() (auction.ScoringRule, error) {
	return auction.NewAdditive(0.4, 0.3, 0.3)
}

// DeploymentTheta is the deployment market's distribution of the private
// cost parameter, θ ~ U[0.5, 1.5].
func DeploymentTheta() (dist.Uniform, error) {
	return dist.NewUniform(0.5, 1.5)
}

// SolveDeploymentStrategy runs the Theorem 1 solver for the deployment
// market: DeploymentRule, linear cost 0.1 per dimension, DeploymentTheta,
// qualities in [0,1]³, nBidders competing for k winners.
func SolveDeploymentStrategy(nBidders, k int) (*auction.Strategy, error) {
	rule, err := DeploymentRule()
	if err != nil {
		return nil, err
	}
	cost, err := auction.NewLinearCost(0.1, 0.1, 0.1)
	if err != nil {
		return nil, err
	}
	theta, err := DeploymentTheta()
	if err != nil {
		return nil, err
	}
	return auction.SolveEquilibrium(auction.EquilibriumConfig{
		Rule: rule, Cost: cost, Theta: theta,
		N: nBidders, K: k,
		QLo: []float64{0, 0, 0}, QHi: []float64{1, 1, 1},
		ThetaGridPoints: 65, QualityGridPoints: 24,
	})
}

// Run generates the workload, starts the aggregator and all edge-node
// clients on loopback TCP, executes the full training, and assembles the
// result.
func Run(cfg Config) (*Result, error) {
	cfg.setDefaults()
	if cfg.Nodes < 2 || cfg.K < 1 || cfg.K >= cfg.Nodes {
		return nil, fmt.Errorf("cluster: need Nodes >= 2 and 1 <= K < Nodes, got %d/%d", cfg.Nodes, cfg.K)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	corpus, err := data.GenerateTask(cfg.Task, cfg.TrainSamples, cfg.TestSamples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	part, err := data.PartitionHeterogeneous(corpus.Train, corpus.Classes, cfg.Nodes,
		cfg.MinNodeData, cfg.MaxNodeData, 1, rng)
	if err != nil {
		return nil, err
	}
	theta, err := DeploymentTheta()
	if err != nil {
		return nil, err
	}
	pop, err := mec.NewPopulation(mec.PopulationConfig{
		N: cfg.Nodes, Theta: theta, Partition: part.Nodes, Classes: corpus.Classes,
	}, rng)
	if err != nil {
		return nil, err
	}

	rule, err := DeploymentRule()
	if err != nil {
		return nil, err
	}
	strategy, err := SolveDeploymentStrategy(cfg.Nodes, cfg.K)
	if err != nil {
		return nil, fmt.Errorf("cluster: equilibrium: %w", err)
	}

	// Pre-draw the per-round offered-resource schedule so client bids and
	// the timing model see the same dynamics.
	offers := make([][]mec.Resources, cfg.Rounds+1)
	dynRng := rand.New(rand.NewSource(cfg.Seed + 7))
	for round := 1; round <= cfg.Rounds; round++ {
		pop.Step(dynRng)
		row := make([]mec.Resources, cfg.Nodes)
		for i, n := range pop.Nodes {
			row[i] = n.Offered
		}
		offers[round] = row
	}

	global, err := data.NewModel(cfg.Task, rand.New(rand.NewSource(cfg.Seed+13)))
	if err != nil {
		return nil, err
	}

	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	defer listener.Close() //nolint:errcheck // harness teardown

	server, err := transport.NewServer(transport.ServerConfig{
		Listener:        listener,
		ExpectNodes:     cfg.Nodes,
		Rounds:          cfg.Rounds,
		K:               cfg.K,
		Rule:            rule,
		Psi:             cfg.Psi,
		Global:          global,
		Test:            corpus.Test,
		Seed:            cfg.Seed,
		RandomSelection: cfg.RandomSelection,
		RegisterTimeout: 30 * time.Second,
		BidTimeout:      30 * time.Second,
		UpdateTimeout:   120 * time.Second,
	})
	if err != nil {
		return nil, err
	}

	type serverOut struct {
		report *transport.ServerReport
		err    error
	}
	serverCh := make(chan serverOut, 1)
	go func() {
		report, err := server.Run()
		serverCh <- serverOut{report, err}
	}()

	res := &Result{
		Summaries:    make([]*transport.ClientSummary, cfg.Nodes),
		ClientErrors: make([]error, cfg.Nodes),
	}
	var wg sync.WaitGroup
	addr := listener.Addr().String()
	for i := 0; i < cfg.Nodes; i++ {
		node := pop.Nodes[i]
		model, err := data.NewModel(cfg.Task, rand.New(rand.NewSource(cfg.Seed+100+int64(i))))
		if err != nil {
			return nil, err
		}
		clientCfg := transport.ClientConfig{
			Addr:   addr,
			NodeID: node.ID,
			Model:  model,
			Local:  node.Local,
			Qualities: func(round int) []float64 {
				off := offerFor(offers, round, node.ID, node.Offered)
				return []float64{
					off.CPUCores / 8,
					off.BandwidthMbps / 100,
					float64(off.DataSize) / float64(cfg.MaxNodeData),
				}
			},
			Payment: func(int) float64 { return strategy.Payment(node.Theta) },
			OfferedSamples: func(round int) int {
				n := offerFor(offers, round, node.ID, node.Offered).DataSize
				if cfg.MaxSamplesPerRound > 0 && n > cfg.MaxSamplesPerRound {
					n = cfg.MaxSamplesPerRound
				}
				return n
			},
			LocalEpochs: cfg.LocalEpochs,
			BatchSize:   cfg.BatchSize,
			LR:          cfg.LR,
			Seed:        cfg.Seed + 200 + int64(i),
		}
		if node.ID == cfg.BreachNodeID {
			clientCfg.BreachAtRound = 1
		}
		if node.ID == cfg.DropNodeID {
			clientCfg.DropAfterRound = 1
		}
		wg.Add(1)
		go func(i int, c transport.ClientConfig) {
			defer wg.Done()
			summary, err := transport.RunClient(c)
			res.Summaries[i] = summary
			res.ClientErrors[i] = err
		}(i, clientCfg)
	}

	out := <-serverCh
	wg.Wait()
	if out.err != nil {
		return nil, fmt.Errorf("cluster: server: %w", out.err)
	}
	res.Report = out.report

	// Simulated timing (Fig. 13): per round, the slowest winner gates the
	// synchronous aggregation.
	tm := mec.DefaultTimingModel(global.NumParams())
	cum := 0.0
	for _, round := range res.Report.Rounds {
		winners := make([]*mec.EdgeNode, 0, len(round.SelectedIDs))
		samples := make([]int, 0, len(round.SelectedIDs))
		for _, id := range round.SelectedIDs {
			node := pop.Nodes[id]
			off := offerFor(offers, round.Round, id, node.Offered)
			// Evaluate timing against the round's offered resources.
			shadow := *node
			shadow.Offered = off
			winners = append(winners, &shadow)
			n := off.DataSize
			if cfg.MaxSamplesPerRound > 0 && n > cfg.MaxSamplesPerRound {
				n = cfg.MaxSamplesPerRound
			}
			samples = append(samples, n)
		}
		simT := 0.0
		if len(winners) > 0 {
			simT, err = tm.RoundTime(winners, samples, cfg.LocalEpochs)
			if err != nil {
				return nil, err
			}
		}
		cum += simT
		res.SimTimeSec = append(res.SimTimeSec, simT)
		res.CumSimTimeSec = append(res.CumSimTimeSec, cum)
	}
	return res, nil
}

// offerFor reads the pre-drawn offer schedule, falling back to the node's
// static offer when out of range.
func offerFor(offers [][]mec.Resources, round, id int, fallback mec.Resources) mec.Resources {
	if round >= 0 && round < len(offers) && offers[round] != nil && id < len(offers[round]) {
		return offers[round][id]
	}
	return fallback
}

// TimeToAccuracy returns the cumulative simulated time at which the
// aggregator first reached the target accuracy, or 0 if never.
func (r *Result) TimeToAccuracy(target float64) float64 {
	for i, round := range r.Report.Rounds {
		if round.Accuracy >= target {
			return r.CumSimTimeSec[i]
		}
	}
	return 0
}

// Accuracies returns the per-round accuracy series.
func (r *Result) Accuracies() []float64 {
	out := make([]float64, len(r.Report.Rounds))
	for i, round := range r.Report.Rounds {
		out[i] = round.Accuracy
	}
	return out
}

// Losses returns the per-round loss series.
func (r *Result) Losses() []float64 {
	out := make([]float64, len(r.Report.Rounds))
	for i, round := range r.Report.Rounds {
		out[i] = round.Loss
	}
	return out
}
