package client

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"fmore/internal/exchange"
	"fmore/internal/partition"
)

// partitionedPair starts two partitioned exchange replicas (p0, p1) behind
// HTTP front ends sharing one cluster map, and installs the map — with the
// servers' real URLs — into both replicas' handles.
func partitionedPair(t *testing.T) (ex0, ex1 *exchange.Exchange, url0, url1 string) {
	t.Helper()
	h0, h1 := partition.NewHandle(nil), partition.NewHandle(nil)
	ex0 = exchange.New(exchange.Options{Partition: &partition.Assignment{Local: "p0", Map: h0}})
	ex1 = exchange.New(exchange.Options{Partition: &partition.Assignment{Local: "p1", Map: h1}})
	srv0 := httptest.NewServer(exchange.NewHandler(ex0))
	srv1 := httptest.NewServer(exchange.NewHandler(ex1))
	t.Cleanup(func() {
		srv0.Close()
		srv1.Close()
		ex0.Close()
		ex1.Close()
	})
	m := &partition.Map{Version: 1, Partitions: []partition.Replica{
		{Partition: "p0", URL: srv0.URL},
		{Partition: "p1", URL: srv1.URL},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	h0.Advance(m)
	h1.Advance(m)
	return ex0, ex1, srv0.URL, srv1.URL
}

// jobOwnedUnder finds a job ID that partition `want` owns under m.
func jobOwnedUnder(t *testing.T, m *partition.Map, want string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("routed-%d", i)
		if owner, ok := m.Owner(id); ok && owner.Partition == want {
			return id
		}
	}
	t.Fatalf("no candidate job owned by %s", want)
	return ""
}

// TestClientRedirectOnWrongPartition points the SDK at the replica that does
// NOT own the job and checks every job-scoped call converges in one
// transparent re-aim: the create lands on the owner, concurrent bids all
// land exactly once (run under -race), and an idempotency-keyed create
// replays instead of duplicating even though each attempt crosses replicas.
func TestClientRedirectOnWrongPartition(t *testing.T) {
	ex0, ex1, url0, _ := partitionedPair(t)
	ctx := context.Background()

	// Base = replica p0; job owned by p1.
	c, err := New(url0)
	if err != nil {
		t.Fatal(err)
	}
	jobID := jobOwnedUnder(t, ex1.PartitionMap(), "p1")

	spec := additiveSpec(jobID, 2, 7)
	spec.IdempotencyKey = "create-once"
	if _, err := c.CreateJob(ctx, spec); err != nil {
		t.Fatalf("redirected create: %v", err)
	}
	if _, ok := ex1.Job(jobID); !ok {
		t.Fatal("job did not land on owning replica")
	}
	// Whole-call replay with the same key still converges on the recorded
	// response after the redirect.
	if _, err := c.CreateJob(ctx, spec); err != nil {
		t.Fatalf("keyed create replay: %v", err)
	}

	// The redirect refreshed the client's map as a side effect.
	if got := c.RoutingVersion(); got != 1 {
		t.Fatalf("RoutingVersion after redirect = %d, want 1", got)
	}

	// Concurrent misdirected bids: every bidder gets its own client with no
	// routing state, so each one's first attempt really hits the wrong
	// replica, then re-aims. (A shared cold client would not do: its first
	// redirect refreshes the map and later bids route directly.)
	const bidders = 16
	var wg sync.WaitGroup
	errs := make([]error, bidders)
	for i := 0; i < bidders; i++ {
		cold, err := New(url0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			round, err := cold.SubmitBid(ctx, jobID, Bid{NodeID: i, Qualities: []float64{0.5, 0.5}, Payment: 0.1})
			if err == nil && round != 1 {
				err = fmt.Errorf("bid entered round %d, want 1", round)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("bid %d: %v", i, err)
		}
	}
	ro, err := ex1.CloseRound(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if ro.NumBids != bidders {
		t.Fatalf("owner scored %d bids, want exactly %d", ro.NumBids, bidders)
	}
	// Every bid was refused once by p0 before converging.
	if wp := ex0.Metrics().WrongPartition; wp < bidders {
		t.Fatalf("p0 wrong_partition = %d, want >= %d", wp, bidders)
	}
}

// TestClientEnableRoutingDirect turns on SDK routing and checks job-scoped
// calls bypass the base replica entirely: the non-owner never refuses a
// request because it never sees one.
func TestClientEnableRoutingDirect(t *testing.T) {
	ex0, ex1, url0, _ := partitionedPair(t)
	ctx := context.Background()

	c, err := New(url0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableRouting(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.RoutingVersion(); got != 1 {
		t.Fatalf("RoutingVersion = %d, want 1", got)
	}

	jobID := jobOwnedUnder(t, ex0.PartitionMap(), "p1")
	if _, err := c.CreateJob(ctx, additiveSpec(jobID, 2, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitBid(ctx, jobID, Bid{NodeID: 1, Qualities: []float64{0.6, 0.4}, Payment: 0.1}); err != nil {
		t.Fatal(err)
	}
	out, err := c.CloseRound(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if out.Round != 1 {
		t.Fatalf("round = %d, want 1", out.Round)
	}
	if got := ex0.Metrics().WrongPartition; got != 0 {
		t.Fatalf("p0 refused %d requests; routing should have bypassed it", got)
	}
	if _, ok := ex1.Job(jobID); !ok {
		t.Fatal("job not hosted on owner")
	}
}

// TestClientEnableRoutingUnpartitioned: against a single unpartitioned
// exchange the map fetch 404s and routing silently stays off.
func TestClientEnableRoutingUnpartitioned(t *testing.T) {
	c, _ := fixture(t)
	if err := c.EnableRouting(context.Background()); err != nil {
		t.Fatalf("EnableRouting on unpartitioned exchange: %v", err)
	}
	if got := c.RoutingVersion(); got != 0 {
		t.Fatalf("RoutingVersion = %d, want 0 (routing off)", got)
	}
}

// TestClientRoutingMapVersionBump bumps the cluster map under a client still
// routing by the old version: its next create aims at the stale owner, gets
// wrong_partition, re-aims to the v2 owner, and comes back carrying the new
// map.
func TestClientRoutingMapVersionBump(t *testing.T) {
	ex0, ex1, url0, _ := partitionedPair(t)
	ctx := context.Background()

	c, err := New(url0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableRouting(ctx); err != nil {
		t.Fatal(err)
	}

	// v2 renames p0 → p2 (same replica URL), shifting a slice of the hash
	// space. Pick a job that moves from p0 (v1) to p1 (v2): the stale
	// client aims the create at replica 0, which refuses it under v2.
	v1 := ex0.PartitionMap()
	v2 := &partition.Map{Version: 2, Partitions: []partition.Replica{
		{Partition: "p2", URL: v1.Partitions[0].URL},
		{Partition: "p1", URL: v1.Partitions[1].URL},
	}}
	var moved string
	for i := 0; i < 8192 && moved == ""; i++ {
		id := fmt.Sprintf("bump-%d", i)
		if v1.Owns("p0", id) && v2.Owns("p1", id) {
			moved = id
		}
	}
	if moved == "" {
		t.Fatal("no job moves p0→p1 across the bump")
	}
	ex0.Partition().Map.Advance(v2)
	ex1.Partition().Map.Advance(v2)

	if _, err := c.CreateJob(ctx, additiveSpec(moved, 2, 3)); err != nil {
		t.Fatalf("create across map bump: %v", err)
	}
	if _, ok := ex1.Job(moved); !ok {
		t.Fatal("job did not land on v2 owner")
	}
	if got := c.RoutingVersion(); got != 2 {
		t.Fatalf("RoutingVersion after bump = %d, want 2", got)
	}
	// With the refreshed map the next call goes straight to the owner.
	before := ex0.Metrics().WrongPartition
	if _, err := c.SubmitBid(ctx, moved, Bid{NodeID: 3, Qualities: []float64{0.5, 0.5}, Payment: 0.2}); err != nil {
		t.Fatal(err)
	}
	if got := ex0.Metrics().WrongPartition; got != before {
		t.Fatalf("stale replica refused again after refresh (%d → %d)", before, got)
	}
}
