package data

import (
	"errors"
	"fmt"
	"math/rand"

	"fmore/internal/ml"
)

// Partition is the assignment of training samples to edge nodes. It exposes
// the two resource dimensions the paper's simulator bids with: per-node data
// size (q₁) and data-category proportion (q₂ ∈ (0, 1]).
type Partition struct {
	// Nodes holds each node's local training samples.
	Nodes [][]ml.Sample
	// Classes is the label arity of the underlying task.
	Classes int
}

// NodeSize returns the number of local samples at node i (q₁).
func (p *Partition) NodeSize(i int) int { return len(p.Nodes[i]) }

// CategoryProportion returns the fraction of all classes present in node
// i's local data (q₂), the second resource dimension of the paper's
// simulator.
func (p *Partition) CategoryProportion(i int) float64 {
	if p.Classes == 0 {
		return 0
	}
	seen := make(map[int]bool, p.Classes)
	for _, s := range p.Nodes[i] {
		seen[s.Label] = true
	}
	return float64(len(seen)) / float64(p.Classes)
}

// ErrPartition reports invalid partitioning arguments.
var ErrPartition = errors.New("data: invalid partition arguments")

// PartitionHeterogeneous models the MEC population of the paper's
// simulator: node data sizes vary widely (uniform in [minSize, maxSize])
// and label diversity varies per node (each node draws a random subset of
// classes, between minClasses and the full set). Samples are drawn with
// replacement from the per-class pools, mimicking independent local data
// collection at each edge device.
func PartitionHeterogeneous(samples []ml.Sample, classes, nodes, minSize, maxSize, minClasses int, rng *rand.Rand) (*Partition, error) {
	if nodes < 1 || minSize < 1 || maxSize < minSize || minClasses < 1 || minClasses > classes {
		return nil, fmt.Errorf("%w: nodes=%d size=[%d,%d] minClasses=%d", ErrPartition, nodes, minSize, maxSize, minClasses)
	}
	pools := make([][]ml.Sample, classes)
	for _, s := range samples {
		if s.Label < 0 || s.Label >= classes {
			return nil, fmt.Errorf("%w: label %d outside [0, %d)", ErrPartition, s.Label, classes)
		}
		pools[s.Label] = append(pools[s.Label], s)
	}
	for c, pool := range pools {
		if len(pool) == 0 {
			return nil, fmt.Errorf("%w: class %d has no samples", ErrPartition, c)
		}
	}
	p := &Partition{Nodes: make([][]ml.Sample, nodes), Classes: classes}
	for n := 0; n < nodes; n++ {
		size := minSize + rng.Intn(maxSize-minSize+1)
		numClasses := minClasses + rng.Intn(classes-minClasses+1)
		classPick := rng.Perm(classes)[:numClasses]
		local := make([]ml.Sample, 0, size)
		for len(local) < size {
			c := classPick[rng.Intn(len(classPick))]
			pool := pools[c]
			local = append(local, pool[rng.Intn(len(pool))])
		}
		p.Nodes[n] = local
	}
	return p, nil
}
