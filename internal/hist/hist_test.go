package hist

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// top is the largest value of bucket i, worked out from the layout the
// package doc states rather than from value or index.
func top(i int) int64 {
	if i < exact {
		return int64(i)
	}
	shift := i/128 - 1
	return int64(i-128*shift)<<shift + 1<<shift - 1
}

// TestBucketEdges: top(i) is in bucket i and top(i)+1 starts bucket i+1,
// for every bucket, so the layout covers every non-negative int64 with no
// gap and no overlap; and each bucket's value lies inside it.
func TestBucketEdges(t *testing.T) {
	for i := 0; i < buckets; i++ {
		hi := top(i)
		if got := index(uint64(hi)); got != i {
			t.Fatalf("index(top(%d) = %d) = %d", i, hi, got)
		}
		if i+1 < buckets {
			if got := index(uint64(hi) + 1); got != i+1 {
				t.Fatalf("index(top(%d)+1 = %d) = %d, want %d", i, hi+1, got, i+1)
			}
		}
		lo := int64(0)
		if i > 0 {
			lo = top(i-1) + 1
		}
		if v := value(i); v < lo || v > hi {
			t.Fatalf("value(%d) = %d, outside [%d, %d]", i, v, lo, hi)
		}
	}
	if top(buckets-1) != math.MaxInt64 {
		t.Fatalf("the last bucket ends at %d, want MaxInt64", top(buckets-1))
	}
}

// TestQuantilesWithinBound records seeded log-normal, bimodal and ramp
// samples and holds p50/p90/p99/p999 within 0.5% of the exact nearest-rank
// value, Sum to the exact sum, and CountAtMost at bucket edges to the exact
// count of samples at most the edge.
func TestQuantilesWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const n = 50000
	samples := map[string]func(i int) int64{
		// Median 1 ms, a factor e either side at one sigma.
		"lognormal": func(int) int64 { return int64(1e6 * math.Exp(rng.NormFloat64())) },
		// Fast closes around 50 µs and a slow mode around 20 ms.
		"bimodal": func(int) int64 {
			if rng.Intn(10) < 7 {
				return int64(50e3 + 5e3*rng.NormFloat64())
			}
			return int64(20e6 + 2e6*rng.NormFloat64())
		},
		"ramp 1..100ms": func(i int) int64 { return int64(1+i%100) * 1e6 },
	}
	for name, draw := range samples {
		var h Hist
		vals := make([]int64, n)
		sum := int64(0)
		for i := range vals {
			vals[i] = max(draw(i), 0)
			sum += vals[i]
			h.Record(vals[i])
		}
		slices.Sort(vals)
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			want := vals[int(math.Ceil(q*n))-1]
			got := h.Quantile(q)
			if rel := math.Abs(float64(got-want)) / float64(want); rel > 0.005 {
				t.Errorf("%s: p%g = %d, exact %d (%.3f%% off)", name, q*100, got, want, rel*100)
			}
		}
		if h.Count() != n || h.Sum() != sum {
			t.Errorf("%s: count %d sum %d, want %d and %d", name, h.Count(), h.Sum(), n, sum)
		}
		for _, v := range []int64{vals[0], vals[n/10], vals[n/2], vals[n*9/10], vals[n-1]} {
			edge := top(index(uint64(v)))
			want, _ := slices.BinarySearch(vals, edge+1)
			if got := h.CountAtMost(edge); got != int64(want) {
				t.Errorf("%s: CountAtMost(%d) = %d, want %d", name, edge, got, want)
			}
		}
	}
}

// TestRecordAllocatesNothing: Record is atomic adds only.
func TestRecordAllocatesNothing(t *testing.T) {
	var h Hist
	v := int64(1)
	if a := testing.AllocsPerRun(1000, func() { h.Record(v); v = v*3 + 1 }); a != 0 {
		t.Fatalf("Record allocates %v times per call, want 0", a)
	}
}

// TestHistRecordRacesCumulativeView runs Record on every CPU against a
// reader that loads the Prometheus view the way the exchange does (the le
// counts, then Count). Within a scrape the le counts rise with the bound
// and Count is at least the last of them; between scrapes no count falls.
func TestHistRecordRacesCumulativeView(t *testing.T) {
	bounds := []int64{250e3, 500e3, 1e6, 2.5e6, 5e6, 10e6, 25e6}
	writers := runtime.GOMAXPROCS(0)
	const perWriter = 20000
	var h Hist
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Record(int64((w*perWriter+i)%30000) * 1000)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := make([]int64, len(bounds)+1)
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		view := make([]int64, 0, len(bounds)+1)
		for _, b := range bounds {
			view = append(view, h.CountAtMost(b))
		}
		view = append(view, h.Count())
		for i, c := range view {
			if i > 0 && c < view[i-1] {
				t.Fatalf("one scrape read %v: a count below the one before it", view)
			}
			if c < last[i] {
				t.Fatalf("count %d fell from %d to %d between scrapes", i, last[i], c)
			}
		}
		last = view
	}
	if want := int64(writers * perWriter); h.Count() != want || h.CountAtMost(math.MaxInt64) != want {
		t.Fatalf("count %d, +Inf %d, want %d", h.Count(), h.CountAtMost(math.MaxInt64), want)
	}
}

// FuzzRecord: any int64 records without a panic, and a single value reads
// back exactly below 256 ns (a negative one as 0) and within 0.4% above.
func FuzzRecord(f *testing.F) {
	for _, v := range []int64{-1, 0, 1, 255, 256, 257, 12000, 250e3, 1e9, math.MaxInt64} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v int64) {
		var h Hist
		h.Record(v)
		want := max(v, 0)
		got := h.Quantile(0.5)
		if h.Count() != 1 || h.Sum() != want || h.Quantile(0) != got || h.Quantile(1) != got {
			t.Fatalf("Record(%d): count %d sum %d, quantiles %d %d %d",
				v, h.Count(), h.Sum(), h.Quantile(0), got, h.Quantile(1))
		}
		if want < exact && got != want {
			t.Fatalf("Record(%d) reads %d, want it exact", v, got)
		}
		if rel := math.Abs(float64(got-want)) / float64(want); want >= exact && rel > 0.004 {
			t.Fatalf("Record(%d) reads %d, %.4f%% off", v, got, rel*100)
		}
		if h.CountAtMost(got) != 1 || h.CountAtMost(got-1) != 0 {
			t.Fatalf("Record(%d) reads %d but CountAtMost(%d) = %d, CountAtMost(%d) = %d",
				v, got, got, h.CountAtMost(got), got-1, h.CountAtMost(got-1))
		}
	})
}

// BenchmarkHistRecord: every P records into one Hist.
func BenchmarkHistRecord(b *testing.B) {
	var h Hist
	b.RunParallel(func(pb *testing.PB) {
		v := int64(12000)
		for pb.Next() {
			h.Record(v)
			v = (v*7 + 1) % 1e9
		}
	})
}
