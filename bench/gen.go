package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"

	"fmore/internal/auction"
)

// population is the node-ID space edge bidders are drawn from.
const population = 1 << 16

// slatePool is how many distinct rounds of bids each job cycles through.
// The inputs are generated (and, for HTTP, encoded) during set-up so the
// measured loop spends the generator's CPU on driving, not on rand.
const slatePool = 16

// jobSeed derives a job's private stream from the run seed; every node ID,
// quality, payment and θ of the run descends from it.
func jobSeed(seed int64, job int) int64 {
	// splitmix64 finalizer: adjacent (seed, job) pairs land far apart.
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(job+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// genSlates draws a job's pool of rounds: each round is n bids from n
// distinct nodes with dims qualities in [0.05, 1) and a payment in
// [0.05, 0.30). With pop == n the nodes are 0..n-1 (a fixed registered
// cohort); otherwise each round draws n distinct IDs from [0, pop), pop a
// power of two, by walking an odd stride from a random base.
func genSlates(seed int64, job, rounds, n, dims, pop int) [][]auction.Bid {
	rng := rand.New(rand.NewSource(jobSeed(seed, job)))
	slates := make([][]auction.Bid, rounds)
	for r := range slates {
		base, stride := 0, 1
		if pop != n {
			base, stride = rng.Intn(pop), rng.Intn(pop/2)*2+1
		}
		bids := make([]auction.Bid, n)
		for i := range bids {
			q := make([]float64, dims)
			for d := range q {
				q[d] = 0.05 + 0.95*rng.Float64()
			}
			bids[i] = auction.Bid{
				NodeID:    (base + i*stride) % pop,
				Qualities: q,
				Payment:   0.05 + 0.25*rng.Float64(),
			}
		}
		slates[r] = bids
	}
	return slates
}

// genThetas draws a job's bidder cohort for the equilibrium workload: n
// distinct node IDs and each node's private cost parameter θ in [lo, hi).
func genThetas(seed int64, job, n int, lo, hi float64) (nodes []int, thetas []float64) {
	rng := rand.New(rand.NewSource(jobSeed(seed, job)))
	base, stride := rng.Intn(population), rng.Intn(population/2)*2+1
	nodes, thetas = make([]int, n), make([]float64, n)
	for i := range nodes {
		nodes[i] = (base + i*stride) % population
		thetas[i] = lo + (hi-lo)*rng.Float64()
	}
	return nodes, thetas
}

// streamHasher fingerprints an operation stream: the determinism test
// requires the same seed to produce the same fingerprint for every
// workload, and a different seed a different one.
type streamHasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newStreamHasher() *streamHasher { return &streamHasher{h: fnv.New64a()} }

func (s *streamHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:], v)
	s.h.Write(s.buf[:]) //nolint:errcheck // hash.Hash never fails
}

// op folds one operation into the fingerprint. A close or a read carries
// no bid, so node is the round's index and the bid fields are empty.
func (s *streamHasher) op(k opKind, job, node int, qualities []float64, payment float64) {
	s.u64(uint64(k))
	s.u64(uint64(job))
	s.u64(uint64(node))
	for _, q := range qualities {
		s.u64(math.Float64bits(q))
	}
	s.u64(math.Float64bits(payment))
}
