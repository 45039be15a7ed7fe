package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fmore/internal/promtext"
	"fmore/pkg/client"
)

// TestE2EPrometheusScrape is the CI scrape-smoke: start the real binary,
// run one auction round through the SDK, fetch /v1/metrics/prometheus and
// validate it with the promtext parser (name/type/label syntax, histogram
// well-formedness), then scrape again after more work and require the
// counters monotone. The analytics stats endpoints the binary wires in are
// exercised in the same breath.
func TestE2EPrometheusScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the real binary")
	}
	bin := buildBinary(t, ".")
	dataDir := filepath.Join(t.TempDir(), "data")

	url, stop, _ := startExchange(t, bin, dataDir, "-analytics-window", "5m")
	defer stop()
	c, err := client.New(url)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := c.CreateJob(ctx, client.JobSpec{
		ID:   "scrape",
		Rule: client.RuleSpec{Kind: "additive", Alpha: []float64{0.5, 0.5}},
		K:    2,
		Seed: 42,
	}); err != nil {
		t.Fatal(err)
	}
	runRound := func(round int) {
		t.Helper()
		for n := 0; n < 4; n++ {
			bid := client.Bid{
				NodeID:    n,
				Qualities: []float64{0.3 + 0.1*float64(n), 0.5},
				Payment:   0.1 + 0.02*float64(n+round),
			}
			if _, err := c.SubmitBid(ctx, "scrape", bid); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.CloseRound(ctx, "scrape"); err != nil {
			t.Fatal(err)
		}
	}
	runRound(1)

	scrape := func() *promtext.Metrics {
		t.Helper()
		text, err := c.PrometheusMetrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		page, err := promtext.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("exposition does not validate: %v", err)
		}
		return page
	}
	first := scrape()
	for _, name := range []string{
		"fmore_exchange_rounds_total",
		"fmore_exchange_bids_accepted_total",
		"fmore_exchange_jobs_active",
		"fmore_exchange_wal_segment_count",
		"fmore_exchange_wal_bytes",
		"fmore_exchange_wal_fsync_total",
		"fmore_exchange_wal_fsync_batched_records",
		"fmore_exchange_wal_snapshot_bytes",
		"fmore_exchange_wal_snapshot_seconds",
		"fmore_exchange_wal_snapshot_stw_seconds",
		"fmore_exchange_firehose_events_total",
		"fmore_exchange_round_latency_seconds",
	} {
		if _, ok := first.Families[name]; !ok {
			t.Errorf("scrape missing %s", name)
		}
	}
	if v, err := first.Value("fmore_exchange_rounds_total"); err != nil || v != 1 {
		t.Fatalf("rounds_total = %v, %v; want 1", v, err)
	}
	// The binary runs durably (-data-dir): the WAL gauges must be live, and
	// the round's records must have hit disk through at least one group
	// commit settling at least as many records as commits.
	if v, err := first.Value("fmore_exchange_wal_segment_count"); err != nil || v != 1 {
		t.Fatalf("wal_segment_count = %v, %v; want 1", v, err)
	}
	// The group-commit hold (default 2ms) may still be open when the first
	// scrape lands, so poll briefly for the commit instead of racing it.
	fsyncDeadline := time.Now().Add(5 * time.Second)
	for {
		page := scrape()
		fsyncs, err := page.Value("fmore_exchange_wal_fsync_total")
		if err != nil {
			t.Fatalf("wal_fsync_total: %v", err)
		}
		if fsyncs >= 1 {
			if v, err := page.Value("fmore_exchange_wal_fsync_batched_records"); err != nil || v < fsyncs {
				t.Fatalf("wal_fsync_batched_records = %v, %v; want >= wal_fsync_total (%v)", v, err, fsyncs)
			}
			break
		}
		if time.Now().After(fsyncDeadline) {
			t.Fatal("wal_fsync_total stayed 0 after a durable round")
		}
		time.Sleep(10 * time.Millisecond)
	}

	runRound(2)
	second := scrape()
	for name, f := range first.Families {
		if f.Type != "counter" {
			continue
		}
		was, err := first.Value(name)
		if err != nil {
			continue
		}
		now, err := second.Value(name)
		if err != nil {
			t.Errorf("counter %s vanished on second scrape: %v", name, err)
			continue
		}
		if now < was {
			t.Errorf("counter %s went backwards: %v -> %v", name, was, now)
		}
	}
	if v, _ := second.Value("fmore_exchange_rounds_total"); v != 2 {
		t.Fatalf("rounds_total after second round = %v, want 2", v)
	}

	// The binary also wires the analytics stats endpoints. The aggregator
	// rides the firehose asynchronously, so poll briefly for the rollup to
	// settle instead of racing the pump.
	var js client.JobStats
	deadline := time.Now().Add(5 * time.Second)
	for {
		js, err = c.JobStats(ctx, "scrape")
		if err != nil {
			t.Fatal(err)
		}
		if js.Lifetime.Rounds == 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if js.Lifetime.Rounds != 2 || js.Lifetime.Bids != 8 {
		t.Fatalf("JobStats from the binary = %+v", js.Lifetime)
	}
	ns, err := c.NodeStats(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ns.Lifetime.Bids != 2 {
		t.Fatalf("NodeStats from the binary = %+v", ns.Lifetime)
	}
}
