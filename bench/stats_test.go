package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	// 1..1000: the p-quantile by nearest rank is ceil(p*1000).
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{
		{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Two distinct tails read differently: the power-of-two buckets this
	// replaces printed 16.4 ms for both.
	a := append(append([]float64(nil), s[:990]...), repeat(9000, 10)...)
	b := append(append([]float64(nil), s[:990]...), repeat(15000, 10)...)
	if pa, pb := percentile(a, 0.995), percentile(b, 0.995); pa != 9000 || pb != 15000 {
		t.Errorf("p99.5 of the two tails = %v, %v, want 9000, 15000", pa, pb)
	}
}

func repeat(v float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestPercentileEdges(t *testing.T) {
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9 (0.9*10 must not round up to rank 10)", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {5000000, 0.9999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// fakeClock advances only when slept on or moved by the test.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestPacerTimesFromDueAndAccountsLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	p := &pacer{start: start, interval: time.Millisecond, now: clk.now, sleep: clk.sleep}

	// Operation 0 is due at once: no wait, no lateness.
	due, late := p.wait()
	if !due.Equal(start) || late != 0 {
		t.Fatalf("op 0: due %v late %v", due.Sub(start), late)
	}
	// It takes 0.3ms; operation 1 waits the remaining 0.7ms and starts on time.
	clk.t = clk.t.Add(300 * time.Microsecond)
	due, late = p.wait()
	if due.Sub(start) != time.Millisecond || late != 0 || !clk.t.Equal(due) {
		t.Fatalf("op 1: due %v late %v now %v", due.Sub(start), late, clk.t.Sub(start))
	}
	// A 5ms stall: operations 2..5 were due during it. Each is timed from its
	// own due time, so the stall's queueing delay lands on all of them, and
	// each reports how late the generator got to it.
	clk.t = clk.t.Add(5 * time.Millisecond)
	for i, wantLate := range []time.Duration{4 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond, time.Millisecond} {
		due, late = p.wait()
		if want := time.Duration(i+2) * time.Millisecond; due.Sub(start) != want || late != wantLate {
			t.Fatalf("op %d: due %v late %v, want due %v late %v", i+2, due.Sub(start), late, want, wantLate)
		}
	}
	// Caught up: operation 6 is due exactly now.
	if _, late = p.wait(); late != 0 {
		t.Fatalf("op 6 late %v after catching up", late)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(s)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 30, 100], n=4) == [12.5, 25.0, 82.5]
	q1, q3 = quartiles([]float64{10, 20, 30, 100})
	if q1 != 12.5 || q3 != 82.5 {
		t.Errorf("quartiles(10,20,30,100) = %v, %v, want 12.5, 82.5", q1, q3)
	}
	if got := spread([]float64{100, 30, 10, 20}); got != 70.0/25 {
		t.Errorf("spread = %v, want %v", got, 70.0/25)
	}
	if got := spread([]float64{100, 110}); math.Abs(got-10.0/105) > 1e-12 {
		t.Errorf("spread of two sets = %v, want range over median", got)
	}
}

func TestMergeKeepsWholeSlicesAndSortsSamples(t *testing.T) {
	start := time.Unix(0, 0)
	a := newRecorder(start, 2500*time.Millisecond, nil)
	b := newRecorder(start, 2500*time.Millisecond, nil)
	a.observe(opSubmit, start, start.Add(3*time.Millisecond), 0, 0)
	b.observe(opSubmit, start, start.Add(time.Millisecond), 0, 0)
	a.countBids(10, start.Add(500*time.Millisecond))
	b.countBids(20, start.Add(1500*time.Millisecond))
	b.countBids(99, start.Add(2400*time.Millisecond)) // the partial third slice is dropped
	a.attempted, b.attempted, b.failed = 5, 7, 1
	p := merge(2500*time.Millisecond, []*recorder{a, b})
	if len(p.bidSlices) != 2 || p.bidSlices[0] != 10 || p.bidSlices[1] != 20 {
		t.Errorf("slices = %v, want [10 20]", p.bidSlices)
	}
	if p.bids != 129 || p.attempted != 12 || p.failed != 1 {
		t.Errorf("bids %d attempted %d failed %d", p.bids, p.attempted, p.failed)
	}
	if got := p.lat[opSubmit]; len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("submit samples = %v, want [1 3]", got)
	}
	if got := p.bidsPerS(); got != 129/2.5 {
		t.Errorf("bidsPerS = %v, want every bid over the whole window, %v", got, 129/2.5)
	}
}

func TestMergeReportsAtReferenceHostSpeed(t *testing.T) {
	start := time.Unix(0, 0)
	r := newRecorder(start, 2*time.Second, nil)
	// The worker's CPU runs the kernel at nominal speed in the first second
	// and twice as slow in the second one.
	r.ref[0] = repeat(refNominalNs, refMinSamples)
	r.ref[1] = repeat(2*refNominalNs, refMinSamples)
	r.submits = 1 // keeps observe from taking a real reading
	r.observe(opSubmit, start, start.Add(3*time.Millisecond), 0, 0)
	r.submits = 1
	r.observe(opSubmit, start.Add(1500*time.Millisecond), start.Add(1503*time.Millisecond), 0, 0)
	r.countBids(10, start.Add(500*time.Millisecond))
	r.countBids(10, start.Add(1500*time.Millisecond))
	p := merge(2*time.Second, []*recorder{r})
	if got := p.lat[opSubmit]; got[0] != 3 || got[1] != 3 {
		t.Errorf("wall-clock samples = %v, want [3 3]", got)
	}
	if got := p.latRef[opSubmit]; got[0] != 1.5 || got[1] != 3 {
		t.Errorf("samples at reference speed = %v, want [1.5 3]: the slow second's sample halves", got)
	}
	if got := p.bidsPerSRef(); got != (10+20)/2.0 {
		t.Errorf("bidsPerSRef = %v, want 15: the slow second's bids count double", got)
	}
	if got := p.bidsPerS(); got != 10 {
		t.Errorf("bidsPerS = %v, want the wall-clock 10", got)
	}
	// A slice with too few readings takes the window's slowdown; a recorder
	// with none at all is taken to run at reference speed.
	thin := newRecorder(start, 2*time.Second, nil)
	thin.ref[0] = repeat(3*refNominalNs, refMinSamples)
	thin.ref[1] = repeat(refNominalNs, 1)
	if slow := thin.slowdown(); slow[0] != 3 || slow[1] <= 2.5 || slow[1] >= 3 {
		t.Errorf("slowdown = %v, want 3 and the window's mean, just under 3", slow)
	}
	if slow := newRecorder(start, time.Second, nil).slowdown(); slow[0] != 1 {
		t.Errorf("slowdown without readings = %v, want 1", slow)
	}
}

func TestTrimmedMeanDropsTheTopTwentieth(t *testing.T) {
	vs := append(repeat(10, 19), 1e6) // one reading in twenty hit by a preemption
	if got := trimmedMean(vs); got != 10 {
		t.Errorf("trimmedMean = %v, want 10", got)
	}
}

func TestSecondsTheHypervisorTookAreLeftOut(t *testing.T) {
	start := time.Unix(0, 0)
	cpus := float64(runtime.NumCPU())
	// The counter stands still but for the third second, in which the
	// hypervisor takes 10% of the machine's CPU time.
	counter := 0.0
	r := newRecorder(start, 4*time.Second, nil)
	r.stolenNow, r.steal[0] = func() float64 { return counter }, 0
	for sec := 0; sec < 4; sec++ {
		if sec == 3 {
			counter += 0.10 * cpus
		}
		at := start.Add(time.Duration(sec)*time.Second + 500*time.Millisecond)
		r.observe(opClose, at.Add(-time.Duration(sec+1)*time.Millisecond), at, 0, 0)
		r.countBids(100, at)
	}
	p := merge(4*time.Second, []*recorder{r})
	if p.kept != 3*time.Second {
		t.Errorf("kept %v of the window, want 3s", p.kept)
	}
	if got := p.latRef[opClose]; len(got) != 3 || got[2] != 4 {
		t.Errorf("gated close samples = %v, want [1 2 4]: the taken second's 3 ms left out", got)
	}
	if got := p.lat[opClose]; len(got) != 4 {
		t.Errorf("wall-clock close samples = %v, want all four", got)
	}
	if got := p.bidsPerSRef(); got != 100 {
		t.Errorf("bidsPerSRef = %v, want 300 bids over the 3 s kept", got)
	}
	// A run that sat inside an episode keeps its cleanest fifth.
	counter = 0
	in := newRecorder(start, 10*time.Second, nil)
	in.steal[0] = 0
	// Each second loses one to five eighths (binary fractions: the sums stay exact).
	in.stolenNow = func() float64 { counter += float64(in.cur%5+1) * 0.125 * cpus; return counter }
	for sec := 0; sec < 10; sec++ {
		in.countBids(10, start.Add(time.Duration(sec)*time.Second+500*time.Millisecond))
	}
	taken, kept := in.taken(10 * time.Second)
	for i, tk := range taken[:10] {
		if tk != (i%5 != 0) {
			t.Errorf("taken = %v, want all but the two seconds with the least stolen, 0 and 5", taken)
			break
		}
	}
	if kept != 2*time.Second {
		t.Errorf("kept %v, want 2s", kept)
	}
}
