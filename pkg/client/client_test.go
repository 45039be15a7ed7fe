package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fmore/internal/exchange"
)

// fixture starts an in-memory exchange behind its HTTP front end and
// returns an SDK client for it.
func fixture(t *testing.T) (*Client, *exchange.Exchange) {
	t.Helper()
	ex := exchange.New(exchange.Options{})
	srv := httptest.NewServer(exchange.NewHandler(ex))
	t.Cleanup(func() {
		srv.Close()
		ex.Close()
	})
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, ex
}

func closeTo(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

func additiveSpec(id string, k int, seed int64) JobSpec {
	return JobSpec{
		ID:   id,
		Rule: RuleSpec{Kind: "additive", Alpha: []float64{0.6, 0.4}},
		K:    k,
		Seed: seed,
	}
}

// TestClientRoundTrip drives a full bid→close→outcome round through the
// SDK, listings and metrics included.
func TestClientRoundTrip(t *testing.T) {
	c, _ := fixture(t)
	ctx := context.Background()

	job, err := c.CreateJob(ctx, additiveSpec("trip", 2, 21))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "trip" || job.State != "collecting" || job.Round != 1 {
		t.Fatalf("created job = %+v", job)
	}
	for node := 0; node < 5; node++ {
		if err := c.Register(ctx, node, fmt.Sprintf("edge-%d", node)); err != nil {
			t.Fatalf("register %d: %v", node, err)
		}
		round, err := c.SubmitBid(ctx, "trip", Bid{
			NodeID:    node,
			Qualities: []float64{0.2 * float64(node+1), 0.9 - 0.1*float64(node)},
			Payment:   0.1,
		})
		if err != nil || round != 1 {
			t.Fatalf("bid %d: round %d err %v", node, round, err)
		}
	}
	out, err := c.CloseRound(ctx, "trip")
	if err != nil {
		t.Fatal(err)
	}
	if out.Round != 1 || out.NumBids != 5 || len(out.Winners) != 2 || len(out.Scores) != 5 {
		t.Fatalf("close outcome = %+v", out)
	}
	got, err := c.Outcome(ctx, "trip", 1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(out) {
		t.Fatalf("refetched outcome differs:\n%v\n%v", got, out)
	}
	latest, err := c.LatestOutcome(ctx, "trip")
	if err != nil || latest.Round != 1 {
		t.Fatalf("latest = %+v err %v", latest, err)
	}

	// WaitOutcome on the next round completes when a concurrent close lands.
	go func() {
		time.Sleep(50 * time.Millisecond)
		_, _ = c.SubmitBid(ctx, "trip", Bid{NodeID: 9, Qualities: []float64{0.5, 0.5}, Payment: 0.1})
		_, _ = c.CloseRound(ctx, "trip")
	}()
	waitCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	out2, err := c.WaitOutcome(waitCtx, "trip", 2)
	if err != nil || out2.Round != 2 {
		t.Fatalf("wait outcome = %+v err %v", out2, err)
	}

	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 1 || jobs[0].ID != "trip" {
		t.Fatalf("jobs = %+v err %v", jobs, err)
	}
	page, more, err := c.Outcomes(ctx, "trip", 0, 10)
	if err != nil || more || len(page) != 2 {
		t.Fatalf("outcomes page = %d more %v err %v", len(page), more, err)
	}
	m, err := c.Metrics(ctx)
	if err != nil || m.RoundsTotal != 2 || m.BidsAccepted != 6 {
		t.Fatalf("metrics = %+v err %v", m, err)
	}
	if err := c.RemoveJob(ctx, "trip"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Job(ctx, "trip"); !IsNotFound(err) || ErrorCode(err) != CodeUnknownJob {
		t.Fatalf("post-remove job err = %v", err)
	}
}

// TestClientErrorMapping pins APIError decoding across the code families.
func TestClientErrorMapping(t *testing.T) {
	c, _ := fixture(t)
	ctx := context.Background()

	_, err := c.Job(ctx, "ghost")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 404 || ae.Code != CodeUnknownJob {
		t.Fatalf("unknown job err = %v", err)
	}
	if _, err := c.CreateJob(ctx, additiveSpec("errs", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CloseRound(ctx, "errs"); ErrorCode(err) != CodeBelowQuorum {
		t.Fatalf("empty close err = %v", err)
	}
	if _, err := c.SubmitBid(ctx, "errs", Bid{NodeID: 1, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitBid(ctx, "errs", Bid{NodeID: 1, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); ErrorCode(err) != CodeDuplicateBid {
		t.Fatalf("duplicate bid err = %v", err)
	}
	if _, err := c.Strategy(ctx, "errs", 9); ErrorCode(err) != CodeNoStrategy {
		t.Fatalf("no-strategy err = %v", err)
	}
	if err := c.Blacklist(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitBid(ctx, "errs", Bid{NodeID: 1, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); ErrorCode(err) != CodeBlacklisted {
		t.Fatalf("blacklisted bid err = %v", err)
	}
}

// TestClientIdempotentJobRecreate: the same IdempotencyKey replays the
// original creation instead of a duplicate-ID failure, and distinct keys
// still conflict.
func TestClientIdempotentJobRecreate(t *testing.T) {
	c, _ := fixture(t)
	ctx := context.Background()
	spec := additiveSpec("idem", 1, 7)
	spec.IdempotencyKey = "fixed-key"
	job1, err := c.CreateJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	job2, err := c.CreateJob(ctx, spec)
	if err != nil {
		t.Fatalf("idempotent re-create failed: %v", err)
	}
	if job1 != job2 {
		t.Fatalf("replayed job differs: %+v vs %+v", job1, job2)
	}
	spec.IdempotencyKey = "other-key"
	if _, err := c.CreateJob(ctx, spec); err == nil {
		t.Fatal("duplicate ID with a fresh key must fail")
	}
}

// TestClientRetriesTransientFailures: a front end that throws 503s first
// still serves the request within the retry budget.
func TestClientRetriesTransientFailures(t *testing.T) {
	ex := exchange.New(exchange.Options{})
	inner := exchange.NewHandler(ex)
	var failures atomic.Int32
	failures.Store(2)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(-1) >= 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, `{"code":"unavailable","message":"warming up"}`)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		ex.Close()
	})
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	c.backoff = time.Millisecond
	job, err := c.CreateJob(context.Background(), additiveSpec("flaky", 1, 3))
	if err != nil {
		t.Fatalf("create through flaky front end: %v", err)
	}
	if job.ID != "flaky" {
		t.Fatalf("job = %+v", job)
	}

	// With retries exhausted the APIError surfaces.
	failures.Store(100)
	c2, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	c2.retries = 1
	c2.backoff = time.Millisecond
	_, err = c2.Job(context.Background(), "flaky")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("exhausted retries err = %v", err)
	}
}

// TestClientBidder: a job with an equilibrium spec hands the bidder a
// strategy curve whose interpolated bid lands inside the quality box with a
// positive payment, and submission is accepted.
func TestClientBidder(t *testing.T) {
	c, _ := fixture(t)
	ctx := context.Background()
	spec := JobSpec{
		ID:   "eq",
		Rule: RuleSpec{Kind: "cobb-douglas", Alpha: []float64{1, 1}, Scale: 25},
		K:    3,
		Seed: 5,
		Equilibrium: &EquilibriumSpec{
			Cost:  CostSpec{Kind: "linear", Beta: []float64{0.5, 0.5}},
			Theta: DistSpec{Kind: "uniform", Lo: 1, Hi: 2},
			N:     20,
			QLo:   []float64{0, 0},
			QHi:   []float64{1, 1},
		},
	}
	job, err := c.CreateJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !job.HasStrategy {
		t.Fatal("job should advertise a strategy")
	}
	b, err := c.NewBidder(ctx, "eq", 4, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	bid := b.Bid()
	if bid.NodeID != 4 || len(bid.Qualities) != 2 || bid.Payment <= 0 {
		t.Fatalf("equilibrium bid = %+v", bid)
	}
	for d, q := range bid.Qualities {
		if q < 0 || q > 1 {
			t.Fatalf("quality[%d] = %v outside the box", d, q)
		}
	}
	// Interpolation fidelity: the curve reproduces its own sample points
	// exactly, and midpoints land between their neighbors.
	s := b.Strategy()
	for _, i := range []int{0, len(s.Points) / 2, len(s.Points) - 1} {
		pt := s.Points[i]
		if got := s.Payment(pt.Theta); !closeTo(got, pt.Payment, 1e-9) {
			t.Errorf("Payment(%v) = %v, want sample %v", pt.Theta, got, pt.Payment)
		}
	}
	a, bp := s.Points[0], s.Points[1]
	mid := s.Payment((a.Theta + bp.Theta) / 2)
	if !closeTo(mid, (a.Payment+bp.Payment)/2, 1e-9) {
		t.Errorf("midpoint payment = %v, want %v", mid, (a.Payment+bp.Payment)/2)
	}
	if round, err := b.Submit(ctx); err != nil || round != 1 {
		t.Fatalf("bidder submit: round %d err %v", round, err)
	}
}

// TestClientHonorsRetryAfterHint: a 429 shed with retry_after_ms delays the
// retry by at least the server's hint (the 1ms configured backoff cannot
// explain the gap), the retry reuses the same Idempotency-Key, and the
// eventual acceptance is a fresh submit, not an idempotent replay.
func TestClientHonorsRetryAfterHint(t *testing.T) {
	ex := exchange.New(exchange.Options{})
	inner := exchange.NewHandler(ex)
	const hintMS = 80
	var (
		mu       sync.Mutex
		keys     []string
		arrivals []time.Time
		shed     = true
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			keys = append(keys, r.Header.Get("Idempotency-Key"))
			arrivals = append(arrivals, time.Now())
			doShed := shed
			shed = false
			mu.Unlock()
			if doShed {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprintf(w, `{"code":"overloaded","message":"shed","retry_after_ms":%d}`, hintMS)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		ex.Close()
	})
	// 1ms backoff: any observed inter-attempt gap near the hint must come
	// from the retry_after_ms path, not the computed backoff.
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	c.backoff = time.Millisecond
	ctx := context.Background()
	if _, err := c.CreateJob(ctx, additiveSpec("hint", 1, 7)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	keys, arrivals, shed = nil, nil, true
	mu.Unlock()

	round, err := c.SubmitBid(ctx, "hint", Bid{NodeID: 1, Qualities: []float64{0.5, 0.5}, Payment: 0.1})
	if err != nil || round != 1 {
		t.Fatalf("submit through shedding front end: round %d err %v", round, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 2 {
		t.Fatalf("attempts = %d, want 2 (one shed, one admitted)", len(keys))
	}
	if keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("idempotency keys across retry = %q, %q; want identical and non-empty", keys[0], keys[1])
	}
	if gap := arrivals[1].Sub(arrivals[0]); gap < hintMS*time.Millisecond {
		t.Fatalf("retry after %v, want >= %dms (server hint)", gap, hintMS)
	}
	// The shed never reached the exchange, so the key was never claimed:
	// the success must be a first-time accept, not a replay.
	if ex.Metrics().BidsAccepted != 1 {
		t.Fatalf("bids accepted = %d, want 1", ex.Metrics().BidsAccepted)
	}
}

// waveBackend is an exchange stand-in that holds every request until width
// of them are in flight — so a wave needs width connections at once — and
// counts the connections it was ever dialled on. (cmd/fmore-router's tests
// have the same server for the router's side of this.)
func waveBackend(t *testing.T, width int) (url string, opened *atomic.Int64) {
	t.Helper()
	var mu sync.Mutex
	arrived, gate := 0, make(chan struct{})
	opened = new(atomic.Int64)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		mu.Lock()
		arrived++
		g := gate
		if arrived == width {
			arrived, gate = 0, make(chan struct{})
			close(g)
		}
		mu.Unlock()
		<-g
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv.URL, opened
}

// TestClientKeepsConnections: sixteen calls in flight to one exchange, wave
// after wave, ride the sixteen connections the first wave opened. On
// http.DefaultTransport (two idle connections per host) every wave after
// the first re-dialled fourteen.
func TestClientKeepsConnections(t *testing.T) {
	const width, waves = 16, 4
	url, opened := waveBackend(t, width)
	c, err := New(url)
	if err != nil {
		t.Fatal(err)
	}
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < width; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.PrometheusMetrics(context.Background()); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if n := opened.Load(); n > width {
		t.Errorf("%d waves of %d calls opened %d connections, want at most %d", waves, width, n, width)
	}
}
