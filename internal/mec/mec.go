// Package mec models the mobile-edge-computing population of the paper's
// system model (§II-A): N edge nodes (micro servers, home gateways, laptops,
// sensors) holding private local data and dynamic multi-dimensional resources
// (data size, data-category coverage, bandwidth, CPU), each with a private
// cost parameter θ drawn i.i.d. from a common-knowledge distribution.
//
// It also provides the deterministic training-time model used to reproduce
// the paper's real-cluster measurements (Fig. 12-13): per-round wall time =
// local compute time (samples × cost / cores) + model transfer time
// (bytes / bandwidth), evaluated per winner and reduced with the synchronous
// FedAvg barrier (the slowest winner gates the round).
package mec

import (
	"errors"
	"fmt"
	"math/rand"

	"fmore/internal/dist"
	"fmore/internal/ml"
)

// Resources is one node's currently offered resource vector. DataSize and
// CategoryProportion are the two dimensions of the paper's simulator;
// BandwidthMbps and CPUCores join them in the real-cluster experiment.
type Resources struct {
	// DataSize is the number of local samples offered this round (q₁).
	DataSize int
	// CategoryProportion is the fraction of classes covered locally (q₂).
	CategoryProportion float64
	// BandwidthMbps is the uplink bandwidth offered this round.
	BandwidthMbps float64
	// CPUCores is the computing power offered this round.
	CPUCores float64
}

// EdgeNode is one participant: its identity, private cost type, full local
// dataset, and the (dynamic) share of resources it currently offers.
type EdgeNode struct {
	// ID is the node index in [0, N).
	ID int
	// Theta is the private cost parameter, drawn from the population
	// distribution. Only the node itself uses it; the aggregator never
	// observes it.
	Theta float64
	// Local is the node's full local training set.
	Local []ml.Sample
	// Capacity is the full resource endowment; Offered (refreshed each
	// round) is what the node currently makes available.
	Capacity Resources
	// Offered is the currently offered slice of Capacity.
	Offered Resources

	// Blacklisted marks nodes that breached a contract (the paper's
	// defaulter handling); blacklisted nodes are excluded from future asks.
	Blacklisted bool
}

// PopulationConfig parameterizes NewPopulation.
type PopulationConfig struct {
	// N is the number of edge nodes.
	N int
	// Theta is the private-cost distribution F (common knowledge).
	Theta dist.Distribution
	// Partition distributes training data across the N nodes; it must have
	// exactly N node slots.
	Partition [][]ml.Sample
	// Classes is the label arity, used for category coverage.
	Classes int
	// BandwidthMbps and CPUCores bound the per-node hardware endowments,
	// drawn uniformly from the given ranges.
	BandwidthMin, BandwidthMax float64
	CPUMin, CPUMax             float64
	// DynamicMin/DynamicMax bound the per-round fraction of capacity a node
	// offers ("nodes randomly choose different quantities of resources in
	// each round", §V-A). Defaults to [0.5, 1].
	DynamicMin, DynamicMax float64
}

func (c *PopulationConfig) setDefaults() {
	if c.BandwidthMin == 0 && c.BandwidthMax == 0 {
		c.BandwidthMin, c.BandwidthMax = 5, 100 // the walk-through's range
	}
	if c.CPUMin == 0 && c.CPUMax == 0 {
		c.CPUMin, c.CPUMax = 1, 8 // the cluster's i7 core counts
	}
	if c.DynamicMin == 0 && c.DynamicMax == 0 {
		c.DynamicMin, c.DynamicMax = 0.5, 1
	}
}

func (c *PopulationConfig) validate() error {
	if c.N < 1 {
		return fmt.Errorf("mec: N must be >= 1, got %d", c.N)
	}
	if c.Theta == nil {
		return errors.New("mec: Theta distribution is required")
	}
	if len(c.Partition) != c.N {
		return fmt.Errorf("mec: partition has %d node slots, want %d", len(c.Partition), c.N)
	}
	if c.Classes < 1 {
		return fmt.Errorf("mec: Classes must be >= 1, got %d", c.Classes)
	}
	if !(c.BandwidthMin > 0 && c.BandwidthMax >= c.BandwidthMin) {
		return fmt.Errorf("mec: bandwidth range [%v, %v] invalid", c.BandwidthMin, c.BandwidthMax)
	}
	if !(c.CPUMin > 0 && c.CPUMax >= c.CPUMin) {
		return fmt.Errorf("mec: CPU range [%v, %v] invalid", c.CPUMin, c.CPUMax)
	}
	if !(c.DynamicMin > 0 && c.DynamicMin <= c.DynamicMax && c.DynamicMax <= 1) {
		return fmt.Errorf("mec: dynamic range [%v, %v] invalid", c.DynamicMin, c.DynamicMax)
	}
	return nil
}

// Population is the set of edge nodes plus the dynamics configuration.
type Population struct {
	Nodes []*EdgeNode

	classes    int
	dynMin     float64
	dynMax     float64
	categories []float64 // full-capacity category proportion per node
}

// NewPopulation draws a population: θᵢ ~ Theta i.i.d., hardware uniform in
// the configured ranges, and local data from the partition.
func NewPopulation(cfg PopulationConfig, rng *rand.Rand) (*Population, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("mec: rng is required")
	}
	pop := &Population{
		Nodes:      make([]*EdgeNode, cfg.N),
		classes:    cfg.Classes,
		dynMin:     cfg.DynamicMin,
		dynMax:     cfg.DynamicMax,
		categories: make([]float64, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		local := cfg.Partition[i]
		seen := make(map[int]bool)
		for _, s := range local {
			seen[s.Label] = true
		}
		catProp := float64(len(seen)) / float64(cfg.Classes)
		pop.categories[i] = catProp
		endow := Resources{
			DataSize:           len(local),
			CategoryProportion: catProp,
			BandwidthMbps:      cfg.BandwidthMin + rng.Float64()*(cfg.BandwidthMax-cfg.BandwidthMin),
			CPUCores:           cfg.CPUMin + rng.Float64()*(cfg.CPUMax-cfg.CPUMin),
		}
		pop.Nodes[i] = &EdgeNode{
			ID:       i,
			Theta:    cfg.Theta.Sample(rng),
			Local:    local,
			Capacity: endow,
			Offered:  endow,
		}
	}
	return pop, nil
}

// Step refreshes every node's offered resources for a new round: each
// dimension is scaled by an independent availability factor drawn from
// [dynMin, dynMax], modeling competing workloads on the device.
func (p *Population) Step(rng *rand.Rand) {
	for _, n := range p.Nodes {
		f := func() float64 { return p.dynMin + rng.Float64()*(p.dynMax-p.dynMin) }
		size := int(float64(n.Capacity.DataSize) * f())
		if size < 1 && n.Capacity.DataSize > 0 {
			size = 1
		}
		n.Offered = Resources{
			DataSize:           size,
			CategoryProportion: n.Capacity.CategoryProportion, // classes present don't fluctuate
			BandwidthMbps:      n.Capacity.BandwidthMbps * f(),
			CPUCores:           n.Capacity.CPUCores * f(),
		}
	}
}

// Active returns the non-blacklisted nodes.
func (p *Population) Active() []*EdgeNode {
	out := make([]*EdgeNode, 0, len(p.Nodes))
	for _, n := range p.Nodes {
		if !n.Blacklisted {
			out = append(out, n)
		}
	}
	return out
}

// N returns the population size.
func (p *Population) N() int { return len(p.Nodes) }

// TimingModel converts a winner's round work into simulated wall time,
// standing in for the paper's HPC-cluster measurements.
type TimingModel struct {
	// ComputeSecPerSample is the per-sample, per-core-second training cost.
	ComputeSecPerSample float64
	// ModelBytes is the size of one model-parameter transfer (down + up is
	// counted as two transfers).
	ModelBytes int
	// RoundOverheadSec is fixed per-round coordination cost (bid ask, bid
	// collection, winner notification — the paper argues this is small).
	RoundOverheadSec float64
}

// DefaultTimingModel sizes the model from a parameter count (float64
// weights) with constants calibrated so that a 31-node round lands in the
// tens-of-seconds range like the paper's cluster.
func DefaultTimingModel(numParams int) TimingModel {
	return TimingModel{
		ComputeSecPerSample: 0.004,
		ModelBytes:          numParams * 8,
		RoundOverheadSec:    0.2,
	}
}

// NodeRoundTime returns the simulated seconds node spends training `samples`
// local examples for `epochs` passes and exchanging the model twice.
func (t TimingModel) NodeRoundTime(node *EdgeNode, samples, epochs int) float64 {
	cores := node.Offered.CPUCores
	if cores < 0.25 {
		cores = 0.25
	}
	compute := float64(samples*epochs) * t.ComputeSecPerSample / cores
	bw := node.Offered.BandwidthMbps
	if bw < 0.1 {
		bw = 0.1
	}
	comm := 2 * float64(t.ModelBytes) * 8 / (bw * 1e6)
	return compute + comm
}

// RoundTime returns the synchronous-round wall time: the slowest winner
// gates global aggregation.
func (t TimingModel) RoundTime(winners []*EdgeNode, samplesPerWinner []int, epochs int) (float64, error) {
	if len(winners) != len(samplesPerWinner) {
		return 0, fmt.Errorf("mec: %d winners vs %d sample counts", len(winners), len(samplesPerWinner))
	}
	slowest := 0.0
	for i, w := range winners {
		if rt := t.NodeRoundTime(w, samplesPerWinner[i], epochs); rt > slowest {
			slowest = rt
		}
	}
	return slowest + t.RoundOverheadSec, nil
}
