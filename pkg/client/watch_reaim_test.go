package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fmore/internal/exchange"
	"fmore/internal/partition"
)

// TestWatchRoundsReaimColdClient: a client that never enabled routing and
// whose base is the replica that does not own the job opens its event
// stream as its first call — and gets the stream, not wrong_partition: the
// SSE connect re-aims exactly like SubmitBid does.
func TestWatchRoundsReaimColdClient(t *testing.T) {
	_, ex1, url0, url1 := partitionedPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobID := jobOwnedUnder(t, ex1.PartitionMap(), "p1")
	owner, err := New(url1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.CreateJob(ctx, additiveSpec(jobID, 1, 3)); err != nil {
		t.Fatal(err)
	}

	cold, err := New(url0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := cold.WatchRounds(ctx, jobID, WatchOptions{})
	if err != nil {
		t.Fatalf("cold watch against the non-owner: %v", err)
	}
	select {
	case ev := <-w.Events():
		if ev.Type != RoundOpen || ev.Job != jobID || ev.Round != 1 {
			t.Fatalf("first event = %+v, want round_open for round 1", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no round_open on the re-aimed stream")
	}
	if got := cold.RoutingVersion(); got != 1 {
		t.Fatalf("RoutingVersion after the re-aim = %d, want 1 (map fetched from the refuser)", got)
	}
}

// TestWatchRoundsReaimStaleMap: a client routing by map v1 watches, as its
// first call, a job created under v2. The connect aims at the v1 owner, is
// refused, re-aims at the v2 owner and comes back carrying the new map —
// so when the server then drops the stream, the Last-Event-ID resume goes
// straight to the owner and no round is lost or duplicated.
func TestWatchRoundsReaimStaleMap(t *testing.T) {
	h0, h1 := partition.NewHandle(nil), partition.NewHandle(nil)
	ex0 := exchange.New(exchange.Options{Partition: &partition.Assignment{Local: "p0", Map: h0}})
	ex1 := exchange.New(exchange.Options{Partition: &partition.Assignment{Local: "p1", Map: h1}})
	srv0 := httptest.NewServer(exchange.NewHandler(ex0))
	var (
		eventConns  atomic.Int32
		lastEventID atomic.Value // string: header seen on the reconnect
	)
	inner1 := exchange.NewHandler(ex1)
	srv1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			switch eventConns.Add(1) {
			case 1: // pass one round through, then cut the connection
				inner1.ServeHTTP(&droppingWriter{ResponseWriter: w, dropAfterRounds: 1}, r)
				return
			case 2:
				lastEventID.Store(r.Header.Get("Last-Event-ID"))
			}
		}
		inner1.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv0.Close()
		srv1.Close()
		ex0.Close()
		ex1.Close()
	})
	v1 := &partition.Map{Version: 1, Partitions: []partition.Replica{
		{Partition: "p0", URL: srv0.URL}, {Partition: "p1", URL: srv1.URL},
	}}
	// v2 renames p0 → p2, which moves a slice of the hash space to p1.
	v2 := &partition.Map{Version: 2, Partitions: []partition.Replica{
		{Partition: "p2", URL: srv0.URL}, {Partition: "p1", URL: srv1.URL},
	}}
	var moved string
	for i := 0; i < 8192 && moved == ""; i++ {
		if id := fmt.Sprintf("bump-%d", i); v1.Owns("p0", id) && v2.Owns("p1", id) {
			moved = id
		}
	}
	if moved == "" {
		t.Fatal("no job moves p0→p1 across the bump")
	}
	h0.Advance(v1)
	h1.Advance(v1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := New(srv0.URL)
	if err != nil {
		t.Fatal(err)
	}
	c.backoff = time.Millisecond
	if err := c.EnableRouting(ctx); err != nil || c.RoutingVersion() != 1 {
		t.Fatalf("EnableRouting: %v (version %d)", err, c.RoutingVersion())
	}
	h0.Advance(v2)
	h1.Advance(v2)
	owner, err := New(srv1.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.CreateJob(ctx, additiveSpec(moved, 1, 13)); err != nil {
		t.Fatal(err)
	}

	w, err := c.WatchRounds(ctx, moved, WatchOptions{})
	if err != nil {
		t.Fatalf("watch across the map bump: %v", err)
	}
	if got := c.RoutingVersion(); got != 2 {
		t.Fatalf("RoutingVersion after the re-aimed connect = %d, want 2", got)
	}
	go func() {
		for round := 1; round <= 4; round++ {
			for node := 0; node < 2; node++ {
				_, _ = owner.SubmitBid(ctx, moved, Bid{NodeID: node, Qualities: []float64{0.3, 0.7}, Payment: 0.1})
			}
			_, _ = owner.CloseRound(ctx, moved)
			time.Sleep(20 * time.Millisecond)
		}
	}()
	got := collectRounds(t, w, 4, 15*time.Second)
	if rounds := roundsOf(got); !reflect.DeepEqual(rounds, []int{1, 2, 3, 4}) {
		t.Fatalf("rounds delivered = %v, want each of 1..4 once, in order", rounds)
	}
	if n := eventConns.Load(); n < 2 {
		t.Fatalf("the owner saw %d event connections, want the first and a resume", n)
	}
	if id, _ := lastEventID.Load().(string); id != "1" {
		t.Fatalf("resume Last-Event-ID = %q, want 1 (the last delivered round)", id)
	}
	if wp := ex0.Metrics().WrongPartition; wp != 1 {
		t.Fatalf("stale target refused %d requests, want exactly the first connect", wp)
	}
}
