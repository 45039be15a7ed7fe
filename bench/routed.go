package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"fmore/internal/auction"
	"fmore/internal/partition"
	"fmore/pkg/client"
)

const (
	thetaLo, thetaHi = 1.0, 2.0
	// pageRounds is how many retained outcomes the per-round listing asks for.
	pageRounds = 16
)

// routedRule and routedGame describe the equilibrium job every routed
// bidder plays: the exchange solves Theorem 1 once per job and serves the
// curve; each client.Bidder interpolates its bid from its private θ.
var routedRule = client.RuleSpec{Kind: "cobb-douglas", Alpha: []float64{0.5, 0.5}, Scale: 2}

func routedGame() *client.EquilibriumSpec {
	return &client.EquilibriumSpec{
		Cost:  client.CostSpec{Kind: "linear", Beta: []float64{0.5, 0.5}},
		Theta: client.DistSpec{Kind: "uniform", Lo: thetaLo, Hi: thetaHi},
		N:     roundBids,
		QLo:   []float64{0, 0},
		QHi:   []float64{1, 1},
	}
}

// routedGameConfig is the same game as the solver sees it.
func routedGameConfig() (auction.EquilibriumConfig, error) {
	rule, err := routedRule.Build()
	if err != nil {
		return auction.EquilibriumConfig{}, err
	}
	return routedGame().Config(rule, roundK)
}

// countingTransport counts HTTP requests leaving the SDK, so that requests
// beyond one per operation — the SDK's retries and re-aims — can be told.
type countingTransport struct {
	next http.RoundTripper
	sent atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.sent.Add(1)
	return t.next.RoundTrip(r)
}

// routedInst is the routed_mixed set-up: two durable partitioned replicas
// and the router, jobs spread evenly over the partitions, and one
// client.Bidder per simulated node holding its fetched strategy.
type routedInst struct {
	e        *env
	replicas []*proc
	router   *proc
	hc       *http.Client
	wire     *countingTransport
	viaRtr   *client.Client // every call through the router
	direct   *client.Client // SDK-side routing: calls go to the owning replica
	ids      []string
	bidders  [][]*client.Bidder // [job][node]
	round    []int
	// withDirect makes measure spend the second half of its window with
	// SDK-side routing; the traced run sets it to price the router hop.
	withDirect bool
}

func setupRouted(e *env) (inst instance, err error) {
	in := &routedInst{e: e, hc: newHTTPClient(e.c)}
	in.wire = &countingTransport{next: in.hc.Transport}
	in.hc.Transport = in.wire
	defer func() {
		if err != nil {
			in.close() //nolint:errcheck // reporting the set-up failure
		}
	}()
	dir, err := e.scratch("routed")
	if err != nil {
		return nil, err
	}
	// The replicas' URLs are part of the map every process is started with.
	var spec string
	ports := make([]int, 2)
	for i := range ports {
		if ports[i], err = freePort(); err != nil {
			return nil, err
		}
		if i > 0 {
			spec += ","
		}
		spec += fmt.Sprintf("p%d=http://127.0.0.1:%d", i, ports[i])
	}
	for i, port := range ports {
		p, err := e.spawn("fmore-exchange", "-addr", "127.0.0.1:"+strconv.Itoa(port), "-data-dir", dir,
			"-partition", "p"+strconv.Itoa(i), "-partition-map", spec)
		if err != nil {
			return nil, err
		}
		in.replicas = append(in.replicas, p)
	}
	if in.router, err = e.spawn("fmore-router", "-addr", "127.0.0.1:0", "-replicas", spec); err != nil {
		return nil, err
	}
	if in.viaRtr, err = client.New(in.router.url, client.WithHTTPClient(in.hc)); err != nil {
		return nil, err
	}
	if in.direct, err = client.New(in.router.url, client.WithHTTPClient(in.hc)); err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := in.direct.EnableRouting(ctx); err != nil {
		return nil, fmt.Errorf("EnableRouting: %w", err)
	}

	m, err := partition.Parse(spec)
	if err != nil {
		return nil, err
	}
	if in.ids, err = routedJobIDs(m, edgeJobs(e), e.c); err != nil {
		return nil, err
	}
	for j, id := range in.ids {
		if _, err := in.viaRtr.CreateJob(ctx, client.JobSpec{
			ID: id, Rule: routedRule, K: roundK, Seed: jobSeed(e.seed, j) & 0x7fffffff, Equilibrium: routedGame(),
		}); err != nil {
			return nil, fmt.Errorf("creating %s: %w", id, err)
		}
		nodes, thetas := genThetas(e.seed, j, roundBids, thetaLo, thetaHi)
		bidders := make([]*client.Bidder, len(nodes))
		for i := range nodes {
			// Every node fetches the curve for itself, as real nodes would; the
			// first fetch of a job makes the exchange solve the game.
			if bidders[i], err = in.viaRtr.NewBidder(ctx, id, nodes[i], thetas[i]); err != nil {
				return nil, err
			}
		}
		in.bidders = append(in.bidders, bidders)
	}
	in.round = make([]int, len(in.ids))

	// Two rounds per job settle pools, interning and connection reuse. The
	// replicas' idempotency caches (4,096 entries each) are left to fill in
	// the window: filling both here would triple the set-up time.
	warm := 2
	if e.small {
		warm = 1
	}
	rec := newRecorder(time.Now(), time.Minute, nil)
	for r := 0; r < warm; r++ {
		for j := range in.ids {
			in.driveRound(rec, in.viaRtr, j)
		}
	}
	if rec.failed > 0 {
		return nil, fmt.Errorf("routed warm-up: %d of %d operations failed, first: %v", rec.failed, rec.attempted, rec.firstErr)
	}
	return in, nil
}

// routedJobIDs picks n job IDs, half owned by each partition, ordered in
// blocks of c per partition so that every worker (jobs j ≡ w mod c) drives
// jobs on both replicas.
func routedJobIDs(m *partition.Map, n, c int) ([]string, error) {
	byPart := map[string][]string{}
	var parts []string
	for i := 0; i < 1<<16; i++ {
		id := "routed-" + strconv.Itoa(i)
		owner, ok := m.Owner(id)
		if !ok {
			return nil, fmt.Errorf("partition map has no owner for %s", id)
		}
		if _, seen := byPart[owner.Partition]; !seen {
			parts = append(parts, owner.Partition)
		}
		if len(byPart[owner.Partition]) < n/2 {
			byPart[owner.Partition] = append(byPart[owner.Partition], id)
		}
		if len(parts) == 2 && len(byPart[parts[0]])+len(byPart[parts[1]]) == n {
			break
		}
	}
	var ids []string
	for len(ids) < n {
		for _, p := range parts {
			take := min(c, len(byPart[p]))
			ids = append(ids, byPart[p][:take]...)
			byPart[p] = byPart[p][take:]
		}
	}
	return ids, nil
}

// driveRound issues one round of job j through c: 64 equilibrium bids, the
// close, each of the 8 winners asking whether it won and what it is paid,
// and one page of retained outcomes.
func (in *routedInst) driveRound(r *recorder, c *client.Client, j int) {
	ctx := context.Background()
	id := in.ids[j]
	in.round[j]++
	roundStart := time.Now()
	rs := r.span("round", 0, roundStart, roundStart, 0, 0)
	defer func() { r.endSpan(rs, time.Now()) }()
	for i, b := range in.bidders[j] {
		t0 := time.Now()
		r.attempted++
		_, err := c.SubmitBid(ctx, id, b.Bid())
		end := time.Now()
		r.ops++
		if err != nil {
			r.fail(fmt.Errorf("bid on %s: %w", id, err))
			continue
		}
		r.observe(opSubmit, t0, end, rs, int64(j)<<32|int64(in.round[j])<<8|int64(i))
		r.countBids(1, end)
	}
	t0 := time.Now()
	r.attempted++
	out, err := c.CloseRound(ctx, id)
	end := time.Now()
	r.ops++
	if err == nil {
		err = checkOutcome(out.NumBids, roundBids, roundK, len(out.Winners),
			func(i int) float64 { return out.Winners[i].Payment },
			func(i int) float64 { return out.Winners[i].BidPayment })
	}
	if err != nil {
		r.fail(fmt.Errorf("close on %s: %w", id, err))
		return
	}
	r.observe(opClose, t0, end, rs, 0)
	r.rounds++
	for _, w := range out.Winners {
		t0 := time.Now()
		r.attempted++
		got, err := c.Outcome(ctx, id, out.Round)
		end := time.Now()
		r.ops++
		if err == nil {
			if paid, won := got.Won(w.NodeID); !won || paid != w.Payment {
				err = fmt.Errorf("round %d read back: node %d won=%v paid %v, the close said %v", out.Round, w.NodeID, won, paid, w.Payment)
			}
		}
		if err != nil {
			r.fail(fmt.Errorf("outcome read on %s: %w", id, err))
			continue
		}
		r.observe(opRead, t0, end, rs, 0)
	}
	t0 = time.Now()
	r.attempted++
	page, _, err := c.Outcomes(ctx, id, max(0, out.Round-pageRounds), pageRounds)
	end = time.Now()
	r.ops++
	if err == nil && (len(page) == 0 || page[len(page)-1].Round != out.Round) {
		err = fmt.Errorf("page of %d outcomes does not end at round %d", len(page), out.Round)
	}
	if err != nil {
		r.fail(fmt.Errorf("outcome page on %s: %w", id, err))
		return
	}
	r.observe(opPage, t0, end, rs, 0)
}

// loop runs the closed loop through c for d.
func (in *routedInst) loop(c *client.Client, d time.Duration, tr *tracer, m *measurement) *phase {
	cpu := startCPU(in.pids())
	defer cpu.stop(m)
	return runWorkers(in.e.c, d, tr, func(w int, r *recorder, deadline time.Time) {
		own := ownJobs(w, in.e.c, len(in.ids))
		for i := 0; time.Now().Before(deadline); i++ {
			in.driveRound(r, c, own[i%len(own)])
		}
	})
}

// measure drives every call through the router for d. With withDirect it
// splits d in two and spends the second half with SDK-side routing (calls
// go to the owning replica directly), which prices the router hop.
func (in *routedInst) measure(d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{extra: map[string]float64{}}
	routed := d
	if in.withDirect {
		routed = d / 2
	}
	sent0 := in.wire.sent.Load()
	rtrCPU0, _ := cpuSeconds(in.router.cmd.Process.Pid) // a dead router fails the run below
	m.load = in.loop(in.viaRtr, routed, tr, m)
	rtrCPU1, _ := cpuSeconds(in.router.cmd.Process.Pid)
	m.extra["ops_per_s"] = float64(m.load.ops) / m.load.window.Seconds()
	m.extra["read_p50_ms"] = m.load.pct(opRead, 0.5)
	m.extra["router.cpu_share"] = (rtrCPU1 - rtrCPU0) / m.serverCPU
	if in.withDirect {
		var dm measurement
		direct := in.loop(in.direct, d-routed, tr, &dm)
		m.extra["direct_ops_per_s"] = float64(direct.ops) / direct.window.Seconds()
		m.extra["router.forward_ms"] = m.load.pct(opSubmit, 0.5) - direct.pct(opSubmit, 0.5)
		m.load.absorb(direct)
	}
	m.extra["client.retries"] = float64(in.wire.sent.Load() - sent0 - m.load.attempted)
	for _, p := range append([]*proc{in.router}, in.replicas...) {
		if !p.alive() {
			return m, fmt.Errorf("a process under test died during the run:\n%s", p.tail)
		}
	}
	return m, nil
}

func (in *routedInst) pids() []int {
	pids := []int{in.router.cmd.Process.Pid}
	for _, p := range in.replicas {
		pids = append(pids, p.cmd.Process.Pid)
	}
	return pids
}

func (in *routedInst) close() error {
	if in.router != nil {
		in.router.stop()
	}
	for _, p := range in.replicas {
		p.stop()
	}
	in.hc.CloseIdleConnections()
	return nil
}

// routedStream fingerprints the generated part of the stream: each job's
// bidder cohort and private types (the bids themselves are the exchange's
// solved strategy evaluated at those types).
func routedStream(e *env) uint64 {
	h := newStreamHasher()
	for j := 0; j < edgeJobs(e); j++ {
		nodes, thetas := genThetas(e.seed, j, roundBids, thetaLo, thetaHi)
		for i := range nodes {
			h.op(opSubmit, j, nodes[i], nil, thetas[i])
		}
		h.op(opClose, j, 0, nil, 0)
	}
	return h.h.Sum64()
}
