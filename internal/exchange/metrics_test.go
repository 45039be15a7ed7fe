package exchange

import (
	"math"
	"sync"
	"testing"
	"time"
)

// ms converts an observed latency to the milliseconds value the snapshot
// reports.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// near: the histogram reports a latency within 0.5% of the exact value.
func near(got, want float64) bool { return math.Abs(got-want) <= 0.005*want }

// percentiles reads (p50, p99) in milliseconds the way GET /v1/metrics does.
func percentiles(m *Metrics) (p50, p99 float64) {
	s := m.snapshot(0, 0)
	return s.RoundLatencyP50Ms, s.RoundLatencyP99Ms
}

// TestLatencyPercentilesNearestRank is the regression test for the floored
// percentile rank: with 2 samples {1ms, 100ms} the old int(q*(n-1)) formula
// returned buf[int(0.99*1)] = buf[0] — reporting the *minimum* as p99. The
// nearest-rank formula (⌈q·n⌉−1) must return the maximum.
func TestLatencyPercentilesNearestRank(t *testing.T) {
	m := newMetrics()
	m.observeRound(1 * time.Millisecond)
	m.observeRound(100 * time.Millisecond)
	p50, p99 := percentiles(m)
	if want := ms(100 * time.Millisecond); !near(p99, want) {
		t.Errorf("p99 over {1ms, 100ms} = %vms, want %vms (the max, not the min)", p99, want)
	}
	if want := ms(1 * time.Millisecond); !near(p50, want) {
		t.Errorf("p50 over {1ms, 100ms} = %vms, want %vms", p50, want)
	}
}

func TestLatencyPercentilesSingleSample(t *testing.T) {
	m := newMetrics()
	m.observeRound(7 * time.Millisecond)
	p50, p99 := percentiles(m)
	if want := ms(7 * time.Millisecond); !near(p50, want) || !near(p99, want) {
		t.Errorf("(p50, p99) over one 7ms sample = (%v, %v), want both %v", p50, p99, want)
	}
}

func TestLatencyPercentilesLargeSample(t *testing.T) {
	m := newMetrics()
	for i := 1; i <= 100; i++ {
		m.observeRound(time.Duration(i) * time.Millisecond)
	}
	p50, p99 := percentiles(m)
	// Nearest rank over 1..100ms: p50 = 50th value, p99 = 99th value.
	if want := ms(50 * time.Millisecond); !near(p50, want) {
		t.Errorf("p50 over 1..100ms = %vms, want %vms", p50, want)
	}
	if want := ms(99 * time.Millisecond); !near(p99, want) {
		t.Errorf("p99 over 1..100ms = %vms, want %vms", p99, want)
	}
}

func TestLatencyPercentilesEmpty(t *testing.T) {
	m := newMetrics()
	if p50, p99 := percentiles(m); p50 != 0 || p99 != 0 {
		t.Errorf("empty histogram percentiles = (%v, %v), want zeros", p50, p99)
	}
}

// TestAcceptedCounterStriped: the striped accepted-bid counter sums to
// every increment, and a scrape racing the submitters never reads less
// than the scrape before it.
func TestAcceptedCounterStriped(t *testing.T) {
	const submitters, perSubmitter = 4, 5000
	m := newMetrics()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				m.acceptBid(g*perSubmitter + i)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := int64(0)
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		got := m.snapshot(0, 0).BidsAccepted
		if got < last {
			t.Fatalf("bids_accepted went from %d to %d between scrapes", last, got)
		}
		last = got
	}
	if last != submitters*perSubmitter {
		t.Fatalf("bids_accepted %d, want %d", last, submitters*perSubmitter)
	}
}
