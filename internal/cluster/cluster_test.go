package cluster

import (
	"testing"

	"fmore/internal/data"
)

// tinyConfig keeps cluster integration tests fast: few nodes, small data,
// short rounds.
func tinyConfig() Config {
	return Config{
		Nodes:        5,
		K:            2,
		Rounds:       2,
		Task:         data.MNISTO,
		TrainSamples: 300,
		TestSamples:  60,
		MinNodeData:  20,
		MaxNodeData:  60,
		BatchSize:    16,
		Seed:         1,
		BreachNodeID: -1,
		DropNodeID:   -1,
	}
}

func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration test")
	}
	res, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(res.Report.Rounds))
	}
	for i, r := range res.Report.Rounds {
		if len(r.SelectedIDs) == 0 {
			t.Errorf("round %d selected nobody", r.Round)
		}
		if r.TotalPayment <= 0 {
			t.Errorf("round %d paid %v, want positive (FMore selection pays winners)", r.Round, r.TotalPayment)
		}
		if r.Accuracy <= 0 || r.Accuracy > 1 {
			t.Errorf("round %d accuracy %v out of range", r.Round, r.Accuracy)
		}
		if res.SimTimeSec[i] <= 0 {
			t.Errorf("round %d simulated time %v, want positive", r.Round, res.SimTimeSec[i])
		}
	}
	if res.CumSimTimeSec[1] <= res.CumSimTimeSec[0] {
		t.Error("cumulative simulated time should increase")
	}
	completed := 0
	for i, s := range res.Summaries {
		if res.ClientErrors[i] != nil {
			t.Errorf("client %d: %v", i, res.ClientErrors[i])
		}
		if s != nil && s.CompletedNormally {
			completed++
		}
	}
	if completed != 5 {
		t.Errorf("completed clients = %d, want 5", completed)
	}
}

func TestClusterRandomSelectionBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration test")
	}
	cfg := tinyConfig()
	cfg.RandomSelection = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Report.Rounds {
		if r.TotalPayment != 0 {
			t.Errorf("RandFL round %d paid %v, want 0", r.Round, r.TotalPayment)
		}
	}
}

func TestClusterBreachInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration test")
	}
	cfg := tinyConfig()
	cfg.BreachNodeID = 0
	cfg.Rounds = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The run completes all rounds even if node 0 won round 1 and vanished.
	if len(res.Report.Rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(res.Report.Rounds))
	}
}

func TestClusterConfigValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Nodes = 1
	if _, err := Run(cfg); err == nil {
		t.Error("Nodes=1: want error")
	}
	cfg = tinyConfig()
	cfg.K = 5
	if _, err := Run(cfg); err == nil {
		t.Error("K=Nodes: want error")
	}
}
