package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the exact nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted sample set: the smallest sample with at least p of the
// set at or below it. No interpolation and no buckets — the value returned
// is always one that was measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The epsilon absorbs p*n landing a hair above an integer (0.9*10).
	i := int(math.Ceil(p*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts vs in place and returns its middle value (mean of the two
// middle values for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// tailLadder is the set of percentiles a latency report may quote.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// tailPercentile returns the highest percentile of tailLadder that still has
// at least ten samples beyond it in a set of n, so a quoted tail is never
// the echo of one or two outliers. Sets too small for even p50 return 0.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		// The epsilon absorbs 1-p rounding a hair below its decimal value.
		if float64(n)*(1-p)+1e-9 >= 10 {
			return p
		}
	}
	return 0
}

// pacer is the open-loop schedule of one worker: operation i is due at
// start + i*interval no matter how long earlier operations took, so a stall
// in the system under test shows up as queueing delay on every operation
// that came due during it instead of silently lowering the offered rate.
type pacer struct {
	start    time.Time
	interval time.Duration
	n        int64
	// now and sleep are the clock; tests substitute a fake one.
	now   func() time.Time
	sleep func(time.Duration)
}

func newPacer(start time.Time, interval time.Duration) *pacer {
	return &pacer{start: start, interval: interval, now: time.Now, sleep: nanosleep}
}

// nanosleep blocks the calling thread in nanosleep(2). time.Sleep parks the
// goroutine on the runtime's poller, whose timeouts round up to a whole
// millisecond — as long as the pacer's entire interval.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only makes the caller re-check the clock
}

// wait blocks until the next operation is due and returns its due time —
// the instant latency is measured from — and how late the generator itself
// was in getting to it (zero when it had to wait).
func (p *pacer) wait() (due time.Time, late time.Duration) {
	due = p.start.Add(time.Duration(p.n) * p.interval)
	p.n++
	if d := due.Sub(p.now()); d > 0 {
		p.sleep(d)
	}
	if late = p.now().Sub(due); late < 0 {
		late = 0
	}
	return due, late
}

// spread is the interquartile range of vs over its median, the steadiness
// figure -check compares against a metric's bound. Below four values the
// quartiles are undefined and the full range stands in.
func spread(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	med := median(s)
	if med == 0 || len(s) < 2 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q1, q3 := quartiles(s)
	return (q3 - q1) / math.Abs(med)
}

// quartiles returns the first and third quartile of ascending-sorted s by
// the exclusive method (Python's statistics.quantiles(s, n=4) default),
// which is what the benchmark driver computes.
func quartiles(s []float64) (q1, q3 float64) {
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
