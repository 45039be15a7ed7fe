// Package hist is a lock-free latency histogram in the HdrHistogram layout:
// the one structure behind the exchange's round-close latency (its
// percentile gauges and its Prometheus histogram).
//
// # Layout and error bound
//
// Values are int64 nanoseconds. Values below 256 have a bucket each, so
// they are recorded exactly. Above that, every power of two [2^e, 2^(e+1))
// is cut into 128 linear sub-buckets of width 2^(e-7). A bucket reports
// its midpoint, which is within 1/256 (0.39%) of every value in it. Every
// non-negative int64 has a bucket, so nothing is clamped into a top bucket;
// a negative value records as 0.
//
// # Memory
//
// 7,296 buckets of one uint64 each, plus the count and the sum: 58,384
// bytes per Hist, fixed from the zero value on, whatever is recorded.
//
// # Concurrency
//
// Record is three atomic adds: no lock, no allocation. Readers take no
// lock either. Record adds to the count before the bucket, so a reader that
// calls CountAtMost before Count sees Count ≥ each le count; every counter
// only grows, so no count falls between two reads.
package hist

import (
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	// subBits is log2 of the sub-buckets per power of two (128): the
	// resolution, 1/2^subBits relative bucket width.
	subBits = 7
	// exact is the first value that does not get a bucket of its own.
	exact = 2 << subBits
	// buckets covers every non-negative int64: index(math.MaxInt64) + 1.
	buckets = (63-subBits-1)<<subBits + exact
)

// Hist is a latency histogram. The zero value is empty and ready to use; a
// Hist must not be copied after first use.
type Hist struct {
	count  atomic.Uint64
	sum    atomic.Int64
	counts [buckets]atomic.Uint64
}

// index is the bucket of a non-negative value: the value itself below
// exact, else 128·shift plus its top eight bits, where shift drops the
// bits below the resolution.
func index(v uint64) int {
	shift := max(bits.Len64(v)-subBits-1, 0)
	return shift<<subBits + int(v>>shift)
}

// value is the midpoint bucket i reports.
func value(i int) int64 {
	if i < exact {
		return int64(i)
	}
	shift := i>>subBits - 1
	lowest := int64(i-shift<<subBits) << shift
	return lowest + int64(1)<<(shift-1)
}

// Record adds one value in nanoseconds. A negative value records as 0.
func (h *Hist) Record(ns int64) {
	ns = max(ns, 0)
	h.count.Add(1)
	h.counts[index(uint64(ns))].Add(1)
	h.sum.Add(ns)
}

// Count is the number of values recorded.
func (h *Hist) Count() int64 { return int64(h.count.Load()) }

// Sum is the exact sum of the values recorded, in nanoseconds (negative
// values counted as 0). It wraps past math.MaxInt64, 292 years.
func (h *Hist) Sum() int64 { return h.sum.Load() }

// CountAtMost counts the values whose reported value is at most ns: a
// Prometheus le bucket. It is exact when ns is the largest value of its
// bucket; otherwise a value within 0.4% of ns may count on the wrong side.
func (h *Hist) CountAtMost(ns int64) int64 {
	if ns < 0 {
		return 0
	}
	last := index(uint64(ns))
	if value(last) > ns {
		last--
	}
	n := uint64(0)
	for i := 0; i <= last; i++ {
		n += h.counts[i].Load()
	}
	return int64(n)
}

// Quantile is the nearest-rank q-quantile in nanoseconds: the reported
// value of the ⌈q·n⌉-th smallest of the n values recorded (the smallest
// for q ≤ 0, the largest for q ≥ 1). It is 0 when nothing is recorded.
func (h *Hist) Quantile(q float64) int64 {
	n := uint64(0)
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	if n == 0 {
		return 0
	}
	rank := uint64(1)
	if q >= 1 {
		rank = n
	} else if r := math.Ceil(q * float64(n)); r > 1 {
		rank = uint64(r)
	}
	// The counters only grow, so this pass reaches rank where the first did.
	cum := uint64(0)
	for i := range h.counts {
		if cum += h.counts[i].Load(); cum >= rank {
			return value(i)
		}
	}
	return value(buckets - 1) // not reached: this pass sees at least n
}
