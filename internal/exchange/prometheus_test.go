package exchange

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"fmore/internal/auction"
	"fmore/internal/promtext"
)

// TestPrometheusExposition scrapes a live exchange and validates the page
// with the promtext parser: legal syntax, the full metric catalog present
// with the right types, values agreeing with the JSON snapshot, and the
// latency histogram well-formed (cumulative buckets are promtext's own
// check) with _count tracking rounds_total.
func TestPrometheusExposition(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	sink := &collectSink{}
	defer ex.Firehose().Attach(sink)()

	if _, err := ex.CreateJob(JobSpec{ID: "prom", Auction: auction.Config{Rule: testRule(t, 0), K: 2}}); err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	for r := 1; r <= rounds; r++ {
		runRound(t, ex, "prom", r)
	}

	var buf bytes.Buffer
	if err := writePrometheus(&buf, ex); err != nil {
		t.Fatal(err)
	}
	page, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}

	wantTypes := map[string]string{
		"fmore_exchange_uptime_seconds":            "gauge",
		"fmore_exchange_jobs_active":               "gauge",
		"fmore_exchange_jobs_created_total":        "counter",
		"fmore_exchange_nodes_known":               "gauge",
		"fmore_exchange_rounds_total":              "counter",
		"fmore_exchange_rounds_failed_total":       "counter",
		"fmore_exchange_idle_ticks_total":          "counter",
		"fmore_exchange_bids_accepted_total":       "counter",
		"fmore_exchange_bids_rejected_total":       "counter",
		"fmore_exchange_wal_snapshots_total":       "counter",
		"fmore_exchange_wal_snapshot_errors_total": "counter",
		"fmore_exchange_wal_snapshot_bytes":        "gauge",
		"fmore_exchange_wal_snapshot_seconds":      "gauge",
		"fmore_exchange_wal_snapshot_stw_seconds":  "gauge",
		"fmore_exchange_wal_segment_count":         "gauge",
		"fmore_exchange_wal_bytes":                 "gauge",
		"fmore_exchange_firehose_events_total":     "counter",
		"fmore_exchange_firehose_dropped_total":    "counter",
		"fmore_exchange_round_latency_p50_seconds": "gauge",
		"fmore_exchange_round_latency_p99_seconds": "gauge",
		"fmore_exchange_round_latency_seconds":     "histogram",
	}
	for name, typ := range wantTypes {
		f, ok := page.Families[name]
		if !ok {
			t.Errorf("metric %s missing from exposition", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("metric %s type = %q, want %q", name, f.Type, typ)
		}
		if f.Help == "" {
			t.Errorf("metric %s has no HELP", name)
		}
	}

	snap := ex.Metrics()
	for name, want := range map[string]float64{
		"fmore_exchange_jobs_active":            float64(snap.JobsActive),
		"fmore_exchange_rounds_total":           float64(snap.RoundsTotal),
		"fmore_exchange_bids_accepted_total":    float64(snap.BidsAccepted),
		"fmore_exchange_firehose_events_total":  float64(snap.FirehoseEvents),
		"fmore_exchange_firehose_dropped_total": 0,
		"fmore_exchange_wal_segment_count":      0, // in-memory exchange
		"fmore_exchange_wal_bytes":              0,
	} {
		got, err := page.Value(name)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	// Histogram: every round landed in some bucket, so _count (== the +Inf
	// bucket, promtext checks their agreement) equals rounds_total and the
	// sum is positive.
	hist := page.Families["fmore_exchange_round_latency_seconds"]
	var count, sum float64
	for _, s := range hist.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			sum = s.Value
		}
	}
	if count != rounds {
		t.Errorf("latency histogram _count = %v, want %v", count, rounds)
	}
	if sum <= 0 {
		t.Errorf("latency histogram _sum = %v, want > 0", sum)
	}
}

// TestPrometheusEndpointMonotoneCounters scrapes /v1/metrics/prometheus
// twice across more work and requires every counter to be monotone.
func TestPrometheusEndpointMonotoneCounters(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	srv := httptest.NewServer(NewHandler(ex))
	defer srv.Close()

	if _, err := ex.CreateJob(JobSpec{ID: "mono", Auction: auction.Config{Rule: testRule(t, 1), K: 2}}); err != nil {
		t.Fatal(err)
	}
	runRound(t, ex, "mono", 1)

	scrape := func() *promtext.Metrics {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/v1/metrics/prometheus")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("scrape status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("scrape content-type = %q", ct)
		}
		page, err := promtext.Parse(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return page
	}

	first := scrape()
	runRound(t, ex, "mono", 2)
	runRound(t, ex, "mono", 3)
	second := scrape()

	for name, f := range first.Families {
		if f.Type != "counter" && f.Type != "histogram" {
			continue
		}
		for _, s := range f.Samples {
			was := s.Value
			for _, s2 := range second.Families[name].Samples {
				if s2.Name == s.Name && labelsEqual(s.Labels, s2.Labels) {
					if s2.Value < was {
						t.Errorf("%s%v went backwards: %v -> %v", s.Name, s.Labels, was, s2.Value)
					}
				}
			}
		}
	}
	r1, err := first.Value("fmore_exchange_rounds_total")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := second.Value("fmore_exchange_rounds_total")
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1+2 {
		t.Errorf("rounds_total %v -> %v across 2 rounds, want +2", r1, r2)
	}
}

func labelsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
