package analytics

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fmore/internal/auction"
	"fmore/internal/exchange"
	"fmore/pkg/api"
)

// fixture runs a real exchange with the aggregator on its firehose and the
// stats handler in front, plays one full round, and drains the firehose so
// every assertion below sees settled rollups.
func fixture(t *testing.T) (*httptest.Server, *exchange.Exchange) {
	t.Helper()
	ex := exchange.New(exchange.Options{})
	agg := New(Options{})
	detach := ex.Firehose().Attach(agg)
	srv := httptest.NewServer(NewHandler(ex, agg, exchange.NewHandler(ex)))
	t.Cleanup(func() {
		srv.Close()
		detach()
		ex.Close()
	})

	rule, err := auction.NewAdditive(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.CreateJob(exchange.JobSpec{ID: "busy", Auction: auction.Config{Rule: rule, K: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.CreateJob(exchange.JobSpec{ID: "quiet", Auction: auction.Config{Rule: rule, K: 2}}); err != nil {
		t.Fatal(err)
	}
	ex.RegisterNode(50, "registered-but-quiet")
	for n := 0; n < 4; n++ {
		bid := auction.Bid{NodeID: n, Qualities: []float64{0.5, 0.5}, Payment: 0.1 + 0.05*float64(n)}
		if _, err := ex.SubmitBid("busy", bid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ex.CloseRound("busy"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ex.Firehose().Drain(ctx); err != nil {
		t.Fatal(err)
	}
	return srv, ex
}

func get(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestStatsEndpoints(t *testing.T) {
	srv, _ := fixture(t)

	var js JobStats
	if code := get(t, srv, "/v1/jobs/busy/stats", &js); code != 200 {
		t.Fatalf("busy job stats status = %d", code)
	}
	if js.Job != "busy" || js.Window.Rounds != 1 || js.Window.Bids != 4 || js.Window.Wins != 2 {
		t.Fatalf("busy job stats = %+v", js)
	}
	if js.Window.WinRate != 0.5 || js.Window.TotalPayment <= 0 {
		t.Fatalf("busy job window = %+v", js.Window)
	}
	var total int64
	for _, c := range js.PriceHistogram.Counts {
		total += c
	}
	if total != 4 {
		t.Fatalf("price histogram sums to %d, want 4 (counts %v)", total, js.PriceHistogram.Counts)
	}

	var ns NodeStats
	if code := get(t, srv, "/v1/nodes/0/stats", &ns); code != 200 {
		t.Fatalf("node stats status = %d", code)
	}
	if ns.Node != 0 || ns.Window.Bids != 1 || ns.LastBidMS == 0 {
		t.Fatalf("node stats = %+v", ns)
	}
}

func TestStatsZeroForKnownButQuietEntities(t *testing.T) {
	srv, _ := fixture(t)

	var js JobStats
	if code := get(t, srv, "/v1/jobs/quiet/stats", &js); code != 200 {
		t.Fatalf("quiet job status = %d, want 200", code)
	}
	if js.Job != "quiet" || js.Window.Bids != 0 || js.Lifetime.Rounds != 0 {
		t.Fatalf("quiet job stats = %+v, want zeros", js)
	}
	if len(js.PriceHistogram.Bounds) == 0 || len(js.PriceHistogram.Counts) != len(js.PriceHistogram.Bounds)+1 {
		t.Fatalf("quiet job histogram shape = %+v", js.PriceHistogram)
	}

	var ns NodeStats
	if code := get(t, srv, "/v1/nodes/50/stats", &ns); code != 200 {
		t.Fatalf("quiet node status = %d, want 200", code)
	}
	if ns.Node != 50 || ns.Window.Bids != 0 || ns.LastBidMS != 0 {
		t.Fatalf("quiet node stats = %+v, want zeros", ns)
	}
}

func TestStatsErrors(t *testing.T) {
	srv, _ := fixture(t)

	if code := get(t, srv, "/v1/jobs/ghost/stats", nil); code != 404 {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code := get(t, srv, "/v1/nodes/999/stats", nil); code != 404 {
		t.Errorf("unknown node status = %d, want 404", code)
	}
	if code := get(t, srv, "/v1/nodes/not-a-number/stats", nil); code != 400 {
		t.Errorf("malformed node id status = %d, want 400", code)
	}
	// A wrong method on a stats route is 405 with Allow, like on any other
	// route, though the exchange handler behind this one does not serve it.
	for _, path := range []string{"/v1/jobs/busy/stats", "/v1/nodes/1/stats"} {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var env api.Error
		_ = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || env.Code != api.CodeNotAllowed || resp.Header.Get("Allow") != "GET" {
			t.Errorf("POST %s = %d %q, Allow %q; want 405 %s, Allow GET", path, resp.StatusCode, env.Code, resp.Header.Get("Allow"), api.CodeNotAllowed)
		}
	}
}

// TestHandlerFallsThrough: everything that is not a stats route reaches the
// wrapped exchange handler unchanged.
func TestHandlerFallsThrough(t *testing.T) {
	srv, _ := fixture(t)

	var snap map[string]any
	if code := get(t, srv, "/v1/metrics", &snap); code != 200 {
		t.Fatalf("/v1/metrics through the wrapper = %d", code)
	}
	if _, ok := snap["rounds_total"]; !ok {
		t.Fatalf("metrics payload missing rounds_total: %v", snap)
	}
	if code := get(t, srv, "/v1/jobs/busy", nil); code != 200 {
		t.Errorf("job detail through the wrapper = %d", code)
	}
}

// TestStatsUnencodableTotalRefused: a round that paid two winners 1e308
// each gives its job a payment total of +Inf, which JSON cannot carry. The
// job's stats route answers 500 internal_error with the encoder's message —
// not 200 with an empty body — and each winner's node route, whose total is
// 1e308, still answers 200.
func TestStatsUnencodableTotalRefused(t *testing.T) {
	srv, ex := fixture(t)
	rule, err := auction.NewAdditive(0.3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.CreateJob(exchange.JobSpec{ID: "inf", Auction: auction.Config{Rule: rule, K: 2}}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{101, 102} {
		if _, err := ex.SubmitBid("inf", auction.Bid{NodeID: id, Qualities: []float64{1.4e308, 1.4e308}, Payment: 1e308}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ex.CloseRound("inf"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ex.Firehose().Drain(ctx); err != nil {
		t.Fatal(err)
	}
	fetch := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	const refusal = `{"code":"internal_error","message":"json: unsupported value: +Inf"}` + "\n"
	if code, body := fetch("/v1/jobs/inf/stats"); code != http.StatusInternalServerError || body != refusal {
		t.Errorf("job stats = %d %q, want 500 %q", code, body, refusal)
	}
	for _, id := range []string{"101", "102"} {
		var ns NodeStats
		if code := get(t, srv, "/v1/nodes/"+id+"/stats", &ns); code != http.StatusOK || ns.Lifetime.TotalPayment != 1e308 {
			t.Errorf("node %s stats = %d, payment %v; want 200 and 1e308", id, code, ns.Lifetime.TotalPayment)
		}
	}
}
