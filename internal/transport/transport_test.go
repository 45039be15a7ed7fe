package transport

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"fmore/internal/auction"
	"fmore/internal/ml"
)

func TestEnvelopeValidate(t *testing.T) {
	good := &Envelope{Kind: KindHello, Hello: &Hello{NodeID: 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid envelope rejected: %v", err)
	}
	bad := &Envelope{Kind: KindAsk} // payload missing
	if err := bad.Validate(); !errors.Is(err, ErrUnexpectedMessage) {
		t.Errorf("missing payload: got %v, want ErrUnexpectedMessage", err)
	}
	unknown := &Envelope{Kind: MsgKind(99)}
	if err := unknown.Validate(); err == nil {
		t.Error("unknown kind: want error")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewCodec(a), NewCodec(b)
	defer ca.Close() //nolint:errcheck
	defer cb.Close() //nolint:errcheck

	want := &Envelope{Kind: KindBid, Bid: &Bid{
		Round: 3, NodeID: 7, Qualities: []float64{0.5, 0.25}, Payment: 1.5,
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ca.Send(want, time.Second); err != nil {
			t.Errorf("send: %v", err)
		}
	}()
	got, err := cb.Recv(time.Second)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindBid || got.Bid.NodeID != 7 || got.Bid.Payment != 1.5 {
		t.Errorf("got %+v, want %+v", got.Bid, want.Bid)
	}
	if len(got.Bid.Qualities) != 2 || got.Bid.Qualities[1] != 0.25 {
		t.Errorf("qualities = %v", got.Bid.Qualities)
	}
}

func TestCodecRecvTimeout(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close() //nolint:errcheck
	cb := NewCodec(b)
	defer cb.Close() //nolint:errcheck
	start := time.Now()
	if _, err := cb.Recv(50 * time.Millisecond); err == nil {
		t.Error("want timeout error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timeout took %v, want ~50ms", elapsed)
	}
}

func TestCodecRejectsInvalidEnvelope(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close() //nolint:errcheck
	defer b.Close() //nolint:errcheck
	ca := NewCodec(a)
	if err := ca.Send(&Envelope{Kind: KindAsk}, time.Second); err == nil {
		t.Error("invalid envelope: want error before any bytes hit the wire")
	}
}

// startTestServer builds an aggregator over a loopback listener with a tiny
// MLP task shared by the integration tests below.
func startTestServer(t *testing.T, nodes, k, rounds int, random bool) (addr string, done <-chan struct {
	report *ServerReport
	err    error
}) {
	t.Helper()
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { listener.Close() }) //nolint:errcheck

	rule, err := auction.NewAdditive(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	global, err := ml.NewMLP(4, []int{6}, 2, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	test := make([]ml.Sample, 20)
	rng := rand.New(rand.NewSource(2))
	for i := range test {
		x := make([]float64, 4)
		for d := range x {
			x[d] = rng.NormFloat64()
		}
		if i%2 == 0 {
			x[0] += 3
		}
		test[i] = ml.Sample{Features: x, Label: i % 2}
	}
	server, err := NewServer(ServerConfig{
		Listener:        listener,
		ExpectNodes:     nodes,
		Rounds:          rounds,
		K:               k,
		Rule:            rule,
		Global:          global,
		Test:            test,
		Seed:            3,
		RandomSelection: random,
		RegisterTimeout: 5 * time.Second,
		BidTimeout:      5 * time.Second,
		UpdateTimeout:   10 * time.Second,
		SendTimeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan struct {
		report *ServerReport
		err    error
	}, 1)
	go func() {
		report, err := server.Run()
		ch <- struct {
			report *ServerReport
			err    error
		}{report, err}
	}()
	return listener.Addr().String(), ch
}

func testClientConfig(t *testing.T, addr string, id int, quality float64) ClientConfig {
	t.Helper()
	model, err := ml.NewMLP(4, []int{6}, 2, 0, rand.New(rand.NewSource(int64(10+id))))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(20 + id)))
	local := make([]ml.Sample, 30)
	for i := range local {
		x := make([]float64, 4)
		for d := range x {
			x[d] = rng.NormFloat64()
		}
		if i%2 == 0 {
			x[0] += 3
		}
		local[i] = ml.Sample{Features: x, Label: i % 2}
	}
	return ClientConfig{
		Addr:      addr,
		NodeID:    id,
		Model:     model,
		Local:     local,
		Qualities: func(int) []float64 { return []float64{quality, quality} },
		Payment:   func(int) float64 { return 0.05 },
		Seed:      int64(30 + id),
		Timeout:   5 * time.Second,
	}
}

func TestEndToEndFederatedRound(t *testing.T) {
	const nodes, k, rounds = 4, 2, 3
	addr, done := startTestServer(t, nodes, k, rounds, false)

	var wg sync.WaitGroup
	summaries := make([]*ClientSummary, nodes)
	for i := 0; i < nodes; i++ {
		// Node 0 and 1 offer higher quality, so they should win every round.
		quality := 0.9
		if i >= 2 {
			quality = 0.2
		}
		cfg := testClientConfig(t, addr, i, quality)
		wg.Add(1)
		go func(i int, cfg ClientConfig) {
			defer wg.Done()
			s, err := RunClient(cfg)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
			summaries[i] = s
		}(i, cfg)
	}
	out := <-done
	wg.Wait()
	if out.err != nil {
		t.Fatalf("server: %v", out.err)
	}
	if len(out.report.Rounds) != rounds {
		t.Fatalf("rounds = %d, want %d", len(out.report.Rounds), rounds)
	}
	for _, r := range out.report.Rounds {
		if len(r.SelectedIDs) != k {
			t.Errorf("round %d selected %v, want %d winners", r.Round, r.SelectedIDs, k)
		}
		for _, id := range r.SelectedIDs {
			if id >= 2 {
				t.Errorf("round %d selected low-quality node %d", r.Round, id)
			}
		}
		if len(r.AllScores) != nodes {
			t.Errorf("round %d recorded %d scores, want %d", r.Round, len(r.AllScores), nodes)
		}
		if r.TotalPayment <= 0 {
			t.Errorf("round %d total payment %v, want positive", r.Round, r.TotalPayment)
		}
	}
	for i, s := range summaries {
		if s == nil {
			t.Fatalf("client %d returned no summary", i)
		}
		if !s.CompletedNormally {
			t.Errorf("client %d did not see Done", i)
		}
		if s.RoundsSeen != rounds {
			t.Errorf("client %d saw %d rounds, want %d", i, s.RoundsSeen, rounds)
		}
	}
	if summaries[0].RoundsWon != rounds || summaries[1].RoundsWon != rounds {
		t.Errorf("high-quality nodes should win every round: %d/%d",
			summaries[0].RoundsWon, summaries[1].RoundsWon)
	}
	if summaries[2].RoundsWon != 0 || summaries[3].RoundsWon != 0 {
		t.Errorf("low-quality nodes should never win: %d/%d",
			summaries[2].RoundsWon, summaries[3].RoundsWon)
	}
	if summaries[0].TotalEarned <= 0 {
		t.Error("winner earned nothing")
	}
}

func TestRandomSelectionMode(t *testing.T) {
	const nodes, k, rounds = 4, 2, 4
	addr, done := startTestServer(t, nodes, k, rounds, true)
	var wg sync.WaitGroup
	wins := make([]int, nodes)
	var mu sync.Mutex
	for i := 0; i < nodes; i++ {
		quality := 0.9
		if i >= 2 {
			quality = 0.2
		}
		cfg := testClientConfig(t, addr, i, quality)
		wg.Add(1)
		go func(i int, cfg ClientConfig) {
			defer wg.Done()
			s, err := RunClient(cfg)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			mu.Lock()
			wins[i] = s.RoundsWon
			mu.Unlock()
		}(i, cfg)
	}
	out := <-done
	wg.Wait()
	if out.err != nil {
		t.Fatalf("server: %v", out.err)
	}
	// Payments must be zero under RandFL.
	for _, r := range out.report.Rounds {
		if r.TotalPayment != 0 {
			t.Errorf("round %d RandFL payment %v, want 0", r.Round, r.TotalPayment)
		}
		if len(r.SelectedIDs) != k {
			t.Errorf("round %d selected %d, want %d", r.Round, len(r.SelectedIDs), k)
		}
	}
}

func TestContractBreachGetsBlacklisted(t *testing.T) {
	const nodes, k, rounds = 3, 1, 3
	addr, done := startTestServer(t, nodes, k, rounds, false)
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		// Node 0 bids highest and will win round 1 — then breaches.
		quality := 0.2
		if i == 0 {
			quality = 0.95
		}
		cfg := testClientConfig(t, addr, i, quality)
		if i == 0 {
			cfg.BreachAtRound = 1
		}
		wg.Add(1)
		go func(cfg ClientConfig) {
			defer wg.Done()
			_, _ = RunClient(cfg) // breaching/losing clients may error; fine
		}(cfg)
	}
	out := <-done
	wg.Wait()
	if out.err != nil {
		t.Fatalf("server: %v", out.err)
	}
	found := false
	for _, id := range out.report.Blacklisted {
		if id == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("breaching node 0 not blacklisted: %v", out.report.Blacklisted)
	}
	// Training continued: all rounds completed.
	if len(out.report.Rounds) != rounds {
		t.Errorf("rounds = %d, want %d despite breach", len(out.report.Rounds), rounds)
	}
	// Round 1's breach means no update was aggregated that round.
	if got := out.report.Rounds[0].TrainSamples; got != 0 {
		t.Errorf("round 1 aggregated %d samples despite breach, want 0", got)
	}
	// Later rounds proceed with the remaining nodes.
	for _, r := range out.report.Rounds[1:] {
		for _, id := range r.SelectedIDs {
			if id == 0 {
				t.Error("blacklisted node selected again")
			}
		}
	}
}

func TestNodeDropIsTolerated(t *testing.T) {
	const nodes, k, rounds = 3, 1, 3
	addr, done := startTestServer(t, nodes, k, rounds, false)
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		quality := 0.5 + 0.1*float64(i)
		cfg := testClientConfig(t, addr, i, quality)
		if i == 2 {
			cfg.DropAfterRound = 1 // the strongest node leaves after round 1
		}
		wg.Add(1)
		go func(cfg ClientConfig) {
			defer wg.Done()
			_, _ = RunClient(cfg)
		}(cfg)
	}
	out := <-done
	wg.Wait()
	if out.err != nil {
		t.Fatalf("server: %v", out.err)
	}
	if len(out.report.Rounds) != rounds {
		t.Fatalf("rounds = %d, want %d despite drop", len(out.report.Rounds), rounds)
	}
	// After the drop, remaining rounds still select someone.
	for _, r := range out.report.Rounds[1:] {
		if len(r.SelectedIDs) == 0 {
			t.Errorf("round %d selected nobody after drop", r.Round)
		}
		for _, id := range r.SelectedIDs {
			if id == 2 {
				t.Errorf("round %d selected the departed node", r.Round)
			}
		}
	}
}

func TestServerConfigValidation(t *testing.T) {
	rule, err := auction.NewAdditive(1)
	if err != nil {
		t.Fatal(err)
	}
	global, err := ml.NewMLP(2, nil, 2, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	test := []ml.Sample{{Features: []float64{1, 2}, Label: 0}}
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close() //nolint:errcheck
	cases := []struct {
		name string
		cfg  ServerConfig
	}{
		{"nil listener", ServerConfig{ExpectNodes: 1, Rounds: 1, K: 1, Rule: rule, Global: global, Test: test}},
		{"zero nodes", ServerConfig{Listener: listener, Rounds: 1, K: 1, Rule: rule, Global: global, Test: test}},
		{"zero rounds", ServerConfig{Listener: listener, ExpectNodes: 1, K: 1, Rule: rule, Global: global, Test: test}},
		{"zero K", ServerConfig{Listener: listener, ExpectNodes: 1, Rounds: 1, Rule: rule, Global: global, Test: test}},
		{"nil rule", ServerConfig{Listener: listener, ExpectNodes: 1, Rounds: 1, K: 1, Global: global, Test: test}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewServer(c.cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestClientConfigValidation(t *testing.T) {
	model, err := ml.NewMLP(2, nil, 2, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	local := []ml.Sample{{Features: []float64{1, 2}, Label: 0}}
	qf := func(int) []float64 { return []float64{1} }
	pf := func(int) float64 { return 1 }
	cases := []struct {
		name string
		cfg  ClientConfig
	}{
		{"no addr", ClientConfig{NodeID: 1, Model: model, Local: local, Qualities: qf, Payment: pf}},
		{"no model", ClientConfig{Addr: "x", NodeID: 1, Local: local, Qualities: qf, Payment: pf}},
		{"no data", ClientConfig{Addr: "x", NodeID: 1, Model: model, Qualities: qf, Payment: pf}},
		{"no bid funcs", ClientConfig{Addr: "x", NodeID: 1, Model: model, Local: local}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := RunClient(c.cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestMsgKindString(t *testing.T) {
	kinds := map[MsgKind]string{
		KindHello: "hello", KindAsk: "ask", KindBid: "bid",
		KindResult: "result", KindUpdate: "update", KindDone: "done",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if MsgKind(42).String() == "" {
		t.Error("unknown kind should format")
	}
}
