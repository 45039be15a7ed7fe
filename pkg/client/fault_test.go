package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"
	"time"

	"fmore/internal/exchange"
	"fmore/internal/fault"
)

// TestClientReroutesOnDurabilityLost: a 503 durability_lost is routing
// feedback, not a backoff signal — the client re-aims once, immediately,
// with the same Idempotency-Key, ignoring the degraded replica's retry
// hint (the retry goes elsewhere; only repeat failures should slow down).
func TestClientReroutesOnDurabilityLost(t *testing.T) {
	ex := exchange.New(exchange.Options{})
	inner := exchange.NewHandler(ex)
	var (
		mu       sync.Mutex
		keys     []string
		degraded = true
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs/dl/bids" {
			mu.Lock()
			keys = append(keys, r.Header.Get("Idempotency-Key"))
			first := degraded
			degraded = false
			mu.Unlock()
			if first {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				// A long hint the re-aim must NOT sleep on.
				_, _ = io.WriteString(w, `{"code":"durability_lost","message":"wal failed","retry_after_ms":5000}`)
				return
			}
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
	ctx := context.Background()
	if _, err := c.CreateJob(ctx, additiveSpec("dl", 2, 7)); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	round, err := c.SubmitBid(ctx, "dl", Bid{NodeID: 1, Qualities: []float64{0.5, 0.5}, Payment: 0.1})
	if err != nil || round != 1 {
		t.Fatalf("bid through degraded replica: round %d err %v", round, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("re-aim took %v — it slept on the degraded replica's hint", elapsed)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 2 {
		t.Fatalf("bid POSTs = %d, want 2 (original + re-aim)", len(keys))
	}
	if keys[0] == "" || keys[0] != keys[1] {
		t.Errorf("idempotency keys %q vs %q: the re-aim must replay the same key", keys[0], keys[1])
	}
}

// TestClientDurabilityLostReroutesOnce: a cluster that is degraded
// everywhere gets exactly one immediate re-aim; after that durability_lost
// is an ordinary transient failure whose hints are throttled by the retry
// budget, so the call fails in ~budget rather than retries x hint.
func TestClientDurabilityLostReroutesOnce(t *testing.T) {
	var posts int32
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			posts++
			mu.Unlock()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, `{"code":"durability_lost","message":"wal failed","retry_after_ms":100}`)
	}))
	t.Cleanup(srv.Close)
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	c.retries = 10
	c.retryBudget = 250 * time.Millisecond

	start := time.Now()
	_, err = c.SubmitBid(context.Background(), "dl", Bid{NodeID: 1, Qualities: []float64{0.5, 0.5}, Payment: 0.1})
	elapsed := time.Since(start)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeDurabilityLost {
		t.Fatalf("fully degraded cluster: err %v, want durability_lost", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("degraded-cluster call took %v, want ~retry budget", elapsed)
	}
	mu.Lock()
	defer mu.Unlock()
	// 1 original + 1 immediate re-aim + the hint-paced retries the 250ms
	// budget admits (two 100ms hints fit, a third exceeds it).
	if posts < 3 || posts > 5 {
		t.Errorf("degraded-cluster POSTs = %d, want a small budget-bounded count", posts)
	}
}

// TestClientRetryBudgetCapsSleep: the budget charges computed backoff and
// server hints alike, before sleeping — so a call against a dead endpoint
// returns in roughly the budget regardless of the retry count.
func TestClientRetryBudgetCapsSleep(t *testing.T) {
	var hits int32
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, `{"code":"unavailable","message":"down","retry_after_ms":200}`)
	}))
	t.Cleanup(srv.Close)
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	c.retries = 10
	c.retryBudget = 250 * time.Millisecond

	start := time.Now()
	_, err = c.Jobs(context.Background())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dead endpoint succeeded")
	}
	if elapsed > 2*time.Second {
		t.Errorf("budgeted call took %v, want ~250ms", elapsed)
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 2 {
		// One 200ms hint fits the 250ms budget; the second would overrun.
		t.Errorf("requests = %d, want 2 (budget cuts the third)", hits)
	}
}

// TestClientTransportFailpoint proves the sdk/transport injection site: a
// torn first connection surfaces as a transport error the retry loop
// absorbs, and the injected error is the syscall the real network would
// produce.
func TestClientTransportFailpoint(t *testing.T) {
	t.Cleanup(fault.DisableAll)
	c, _ := fixture(t)
	ctx := context.Background()
	if _, err := c.CreateJob(ctx, additiveSpec("fp", 2, 3)); err != nil {
		t.Fatal(err)
	}

	if err := fault.Enable("sdk/transport", fault.Config{Err: fault.ErrIO, Nth: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Jobs(ctx); err != nil {
		t.Fatalf("retry did not absorb the injected transport error: %v", err)
	}

	// With retries disabled the injected error surfaces to the caller.
	if err := fault.Enable("sdk/transport", fault.Config{Err: fault.ErrIO, Nth: 1}); err != nil {
		t.Fatal(err)
	}
	c2, err := New(c.base)
	if err != nil {
		t.Fatal(err)
	}
	c2.retries = 0
	if _, err := c2.Jobs(ctx); !errors.Is(err, syscall.EIO) {
		t.Fatalf("unretried transport fault = %v, want EIO", err)
	}
}
