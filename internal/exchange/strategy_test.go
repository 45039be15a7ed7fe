package exchange

import (
	"fmt"
	"net/http"
	"testing"

	"fmore/internal/auction"
)

func equilibriumSpec() *auction.EquilibriumSpec {
	return &auction.EquilibriumSpec{
		Cost:  auction.CostSpec{Kind: "linear", Beta: []float64{0.5, 0.5}},
		Theta: auction.DistSpec{Kind: "uniform", Lo: 1, Hi: 2},
		N:     40,
		QLo:   []float64{0, 0},
		QHi:   []float64{1, 1},
	}
}

func strategyJobSpec(id string) JobSpec {
	rule, err := auction.NewCobbDouglas(25, 1, 1)
	if err != nil {
		panic(err)
	}
	return JobSpec{
		ID:          id,
		Auction:     auction.Config{Rule: rule, K: 5},
		Seed:        11,
		Equilibrium: equilibriumSpec(),
	}
}

func TestJobStrategyLazySolve(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()

	job, err := ex.CreateJob(strategyJobSpec("strat"))
	if err != nil {
		t.Fatal(err)
	}
	strat, err := job.Strategy()
	if err != nil {
		t.Fatal(err)
	}
	again, err := job.Strategy()
	if err != nil {
		t.Fatal(err)
	}
	if strat != again {
		t.Fatal("Strategy must cache the solve, not re-run it")
	}
	// Equilibrium payments must cover the node's cost (individual
	// rationality, Theorem 2) across the support.
	for _, th := range []float64{1.0, 1.3, 1.7, 2.0} {
		if p, c := strat.Payment(th), strat.Cost(th); p < c {
			t.Fatalf("payment %v below cost %v at θ=%v", p, c, th)
		}
	}

	// A job without the spec reports ErrNoStrategy.
	plain, err := ex.CreateJob(JobSpec{Auction: auction.Config{Rule: strategyJobSpec("x").Auction.Rule, K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Strategy(); err == nil {
		t.Fatal("want ErrNoStrategy for a job without an equilibrium spec")
	}
}

func TestCreateJobRejectsBadEquilibriumSpec(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()

	spec := strategyJobSpec("bad")
	spec.Equilibrium.N = 3 // K=5 >= N: unsolvable game
	if _, err := ex.CreateJob(spec); err == nil {
		t.Fatal("want job creation to fail fast on an unsolvable equilibrium spec")
	}
}

func TestHTTPStrategyEndpoint(t *testing.T) {
	srv, _ := httpFixture(t)

	resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id":   "fl-mnist",
		"rule": map[string]any{"kind": "cobb-douglas", "alpha": []float64{1, 1}, "scale": 25},
		"k":    5,
		"equilibrium": map[string]any{
			"cost":  map[string]any{"kind": "linear", "beta": []float64{0.5, 0.5}},
			"theta": map[string]any{"kind": "uniform", "lo": 1, "hi": 2},
			"n":     40,
			"q_lo":  []float64{0, 0},
			"q_hi":  []float64{1, 1},
		},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create job: status %d, body %v", resp.StatusCode, body)
	}
	if body["has_strategy"] != true {
		t.Fatalf("job view should advertise the strategy endpoint: %v", body)
	}

	resp, body = getJSON(t, srv.URL+"/v1/jobs/fl-mnist/strategy?samples=17")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("strategy: status %d, body %v", resp.StatusCode, body)
	}
	pts, ok := body["points"].([]any)
	if !ok || len(pts) != 17 {
		t.Fatalf("want 17 curve points, got %v", body["points"])
	}
	first, ok := pts[0].(map[string]any)
	if !ok {
		t.Fatalf("bad point payload: %v", pts[0])
	}
	if qs, ok := first["qualities"].([]any); !ok || len(qs) != 2 {
		t.Fatalf("point qualities should match the rule dimensions: %v", first)
	}
	if body["theta_lo"].(float64) != 1 || body["theta_hi"].(float64) != 2 {
		t.Fatalf("support mismatch: %v", body)
	}

	// Bad sample counts are rejected.
	resp, _ = getJSON(t, srv.URL+"/v1/jobs/fl-mnist/strategy?samples=1")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("samples=1 should 400, got %d", resp.StatusCode)
	}

	// A job without an equilibrium spec answers 404.
	resp, body = postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id":   "no-game",
		"rule": map[string]any{"kind": "additive", "alpha": []float64{0.5, 0.5}},
		"k":    2,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create plain job: status %d body %v", resp.StatusCode, body)
	}
	resp, _ = getJSON(t, srv.URL+"/v1/jobs/no-game/strategy")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("strategy without spec should 404, got %d", resp.StatusCode)
	}
}

// TestStrategySpecSurvivesRecovery pins the WAL round trip: an equilibrium
// spec persisted at job creation must serve the strategy after a restart.
func TestStrategySpecSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	ex, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.CreateJob(strategyJobSpec("durable")); err != nil {
		t.Fatal(err)
	}
	ex.Close()

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	job, ok := re.Job("durable")
	if !ok {
		t.Fatal("job lost across recovery")
	}
	if job.Spec().Equilibrium == nil {
		t.Fatal("equilibrium spec lost across recovery")
	}
	strat, err := job.Strategy()
	if err != nil {
		t.Fatal(err)
	}
	if pts := strat.SampleCurve(9); len(pts) != 9 {
		t.Fatalf("want 9 samples, got %d", len(pts))
	}
}

// TestHTTPOutcomeReportsEveryScore is the end-to-end regression for the
// partial top-K refactor: GET /jobs/{id}/outcome must still expose the
// score of every bidder in the round, not just the surviving top-K.
func TestHTTPOutcomeReportsEveryScore(t *testing.T) {
	srv, _ := httpFixture(t)

	resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id":   "scored",
		"rule": map[string]any{"kind": "additive", "alpha": []float64{0.5, 0.5}},
		"k":    3,
		"seed": 5,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create job: status %d, body %v", resp.StatusCode, body)
	}
	const bidders = 24
	for i := 0; i < bidders; i++ {
		resp, body := postJSON(t, srv.URL+"/v1/jobs/scored/bids", map[string]any{
			"node_id":   i,
			"qualities": []float64{float64(i) / bidders, 1 - float64(i)/bidders},
			"payment":   0.1,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("bid %d: status %d, body %v", i, resp.StatusCode, body)
		}
	}
	resp, body = postJSON(t, srv.URL+"/v1/jobs/scored/close", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d, body %v", resp.StatusCode, body)
	}
	winners, ok := body["winners"].([]any)
	if !ok || len(winners) != 3 {
		t.Fatalf("want 3 winners, got %v", body["winners"])
	}
	scores, ok := body["scores"].([]any)
	if !ok || len(scores) != bidders {
		t.Fatalf("outcome scores cover %d of %d bidders: %v", len(scores), bidders, body["scores"])
	}

	resp, body = getJSON(t, srv.URL+"/v1/jobs/scored/outcome?round=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outcome: status %d, body %v", resp.StatusCode, body)
	}
	scores, ok = body["scores"].([]any)
	if !ok || len(scores) != bidders {
		t.Fatalf("GET outcome scores cover %d of %d bidders", len(scores), bidders)
	}
	if fmt.Sprint(body["num_bids"]) != fmt.Sprint(bidders) {
		t.Fatalf("num_bids %v, want %d", body["num_bids"], bidders)
	}
}
