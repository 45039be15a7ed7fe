package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"fmore/internal/admission"
	"fmore/internal/auction"
	"fmore/internal/exchange"
	"fmore/internal/partition"
	"fmore/pkg/client"
)

// The traced run measures one bid's way up a ladder of successively taller
// stacks: the same seeded slate is scored, selected, submitted to an
// in-memory exchange, posted to its handler on a recorder, sent over one
// loopback connection, sent through the SDK, and finally driven through
// the four workloads' own engines (short windows) for the layers only real
// processes have. Every rung is timed from outside, around the layer's
// public call, and recorded as spans; a rung's self time is its duration
// minus the rung below.
//
// The ladder is the same whatever -workload names: every traced run has to
// report every per-layer metric, and the budget needs edge_bids_http's,
// round_churn_durable's and routed_mixed's engines side by side. The named
// workload is the one whose engine is run a second time with span recording
// on, which gives the tracing overhead and the trace file its request spans.

// Shares of -seconds: each micro rung, and each engine's short window.
const (
	microShare = 0.0125
	miniShare  = 0.10
)

type ladder struct {
	e   *env
	tr  *tracer
	d   time.Duration // one micro rung
	out map[string]float64

	small  [][]auction.Bid // slatePool slates of 64 two-dimensional bids
	bodies [][][]byte      // the same slates as POST bodies
	large  []auction.Bid   // one slate of 16,384 three-dimensional bids
}

// rung times batches of a layer's public call until the rung's share of the
// run is spent and returns the median nanoseconds per call. batch makes its
// calls and reports how many; each batch is one span.
func (l *ladder) rung(name string, batch func() int) float64 {
	var perOp []float64
	root := l.tr.add(name, 0, time.Now(), time.Now(), 0, 0)
	deadline := time.Now().Add(l.d)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		n := batch()
		t1 := time.Now()
		l.tr.add(name, root, t0, t1, int64(i), n)
		perOp = append(perOp, float64(t1.Sub(t0).Nanoseconds())/float64(n))
	}
	return median(perOp)
}

// allocs reports heap allocations and bytes per call of fn over n calls.
func allocs(n int, fn func()) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// runLadder fills out with every per-layer metric. buildS is how long the
// programs under test took to build; traced names the workload whose
// engine is also run with spans on.
func runLadder(e *env, traced workloadDef, seconds float64, buildS float64, tr *tracer) (out map[string]float64, attempted, failed int64, err error) {
	l := &ladder{e: e, tr: tr, d: time.Duration(seconds * microShare * float64(time.Second)), out: map[string]float64{}}
	l.out["bench.build_s"] = buildS
	l.small = genSlates(e.seed, 0, slatePool, roundBids, 2, population)
	for _, s := range l.small {
		l.bodies = append(l.bodies, encodeBids(s))
	}
	l.large = genSlates(e.seed, 0, 1, megaN(e), 3, megaN(e))[0]

	if err := l.auctionRungs(); err != nil {
		return nil, 0, 0, err
	}
	if err := l.lookupRungs(); err != nil {
		return nil, 0, 0, err
	}
	if err := l.exchangeRungs(); err != nil {
		return nil, 0, 0, err
	}
	if err := l.httpRungs(); err != nil {
		return nil, 0, 0, err
	}

	// The engines. Each reports its own layers' readings in extra.
	mini := time.Duration(seconds * miniShare * float64(time.Second))
	for _, w := range workloads {
		a, f, err := l.engine(w, mini, w.name == traced.name)
		attempted, failed = attempted+a, failed+f
		if err != nil {
			return nil, attempted, failed, fmt.Errorf("%s engine: %w", w.name, err)
		}
	}

	l.out["failed_share"] = float64(failed) / float64(attempted)
	l.budget()
	return l.out, attempted, failed, nil
}

// sink keeps results the rungs compute alive, so the calls are not elided.
var sink float64

// auctionRungs times the selection core on its own.
func (l *ladder) auctionRungs() error {
	rule := smallRule()
	l.out["auction.score_ns"] = l.rung("auction.score", func() int {
		for _, slate := range l.small {
			for i := range slate {
				s, _ := auction.Score(rule, slate[i].Qualities, slate[i].Payment) // generated bids are valid
				sink += s
			}
		}
		return len(l.small) * roundBids
	})
	rng := rand.New(rand.NewSource(l.e.seed))
	var sel auction.Selector
	var selErr error
	l.out["auction.select_small_ns"] = l.rung("auction.select_small", func() int {
		for _, slate := range l.small {
			if _, err := sel.Select(auction.SelectionRequest{Rule: rule, Bids: slate, K: roundK}, rng); err != nil {
				selErr = err
			}
		}
		return len(l.small)
	})
	var big auction.Selector
	l.out["auction.select_large_ns"] = l.rung("auction.select_large", func() int {
		if _, err := big.Select(auction.SelectionRequest{Rule: megaRule(), Bids: l.large, K: megaK, Payment: auction.SecondPrice}, rng); err != nil {
			selErr = err
		}
		return 1
	})
	if selErr != nil {
		return selErr
	}
	game, err := routedGameConfig()
	if err != nil {
		return err
	}
	var solves []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := auction.SolveEquilibrium(game); err != nil {
			return err
		}
		t1 := time.Now()
		l.tr.add("auction.solve", 0, t0, t1, int64(i), 1)
		solves = append(solves, float64(t1.Sub(t0).Nanoseconds())/1e6)
	}
	l.out["auction.solve_ms"] = median(solves)
	return nil
}

// lookupRungs times the two lookups a routed, admitted bid makes.
func (l *ladder) lookupRungs() error {
	// Headroom: limits the rung cannot reach, so every call admits and does
	// the controller's full three-level work.
	ctl := admission.NewController(admission.Config{
		GlobalRate: 1e12, GlobalBurst: 1 << 30, NodeRate: 1e12, NodeBurst: 1 << 30, JobRate: 1e12, JobBurst: 1 << 30,
	})
	node, job := ctl.NewNodeBucket(), ctl.NewJobBucket()
	shed := 0
	l.out["admission.admit_ns"] = l.rung("admission.admit", func() int {
		for i := 0; i < 1024; i++ {
			if ok, _, _ := ctl.AdmitBid(node, job); !ok {
				shed++
			}
		}
		return 1024
	})
	if shed > 0 {
		return fmt.Errorf("admission shed %d bids with headroom", shed)
	}
	m, err := partition.Parse("p0=http://127.0.0.1:1,p1=http://127.0.0.1:2")
	if err != nil {
		return err
	}
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = "routed-" + strconv.Itoa(i)
	}
	orphans := 0
	l.out["partition.owner_ns"] = l.rung("partition.owner", func() int {
		for _, id := range ids {
			if _, ok := m.Owner(id); !ok {
				orphans++
			}
		}
		return len(ids)
	})
	if orphans > 0 {
		return fmt.Errorf("partition map left %d lookups without an owner", orphans)
	}
	return nil
}

// roundRung times rounds of the small slate against an in-process exchange:
// the 64 submits as one span, the close as another. It returns the median
// nanoseconds of a submit, of a close and of a whole round.
func (l *ladder) roundRung(name string, ex *exchange.Exchange) (submitNs, closeNs, roundNs float64, err error) {
	const id = "ladder"
	if _, err = ex.CreateJob(exchange.JobSpec{ID: id, Auction: auction.Config{Rule: smallRule(), K: roundK}, Seed: l.e.seed}); err != nil {
		return 0, 0, 0, err
	}
	var submits, closes, rounds []float64
	root := l.tr.add(name, 0, time.Now(), time.Now(), 0, 0)
	deadline := time.Now().Add(l.d)
	// The first pass over the pool is warm-up; at least three rounds are
	// measured however short the rung's share of the run.
	for i := 0; i < slatePool+3 || time.Now().Before(deadline); i++ {
		slate := l.small[i%slatePool]
		t0 := time.Now()
		for b := range slate {
			if _, err = ex.SubmitBid(id, slate[b]); err != nil {
				return 0, 0, 0, err
			}
		}
		t1 := time.Now()
		if _, err = ex.CloseRound(id); err != nil {
			return 0, 0, 0, err
		}
		t2 := time.Now()
		l.tr.add(name+".submit", root, t0, t1, int64(i), len(slate))
		l.tr.add(name+".close", root, t1, t2, int64(i), 1)
		if i >= slatePool {
			submits = append(submits, float64(t1.Sub(t0).Nanoseconds())/float64(len(slate)))
			closes = append(closes, float64(t2.Sub(t1).Nanoseconds()))
			rounds = append(rounds, float64(t2.Sub(t0).Nanoseconds()))
		}
	}
	return median(submits), median(closes), median(rounds), nil
}

// exchangeRungs times intake and close in an in-memory exchange — bare, with
// the admission controller installed, with the analytics tap attached — and
// in a durable one, every time the same slates from one goroutine into one
// job, so that each difference is the one thing that changed.
func (l *ladder) exchangeRungs() error {
	bare, err := openEmbedded("", exchange.Options{}, false)
	if err != nil {
		return err
	}
	defer bare.close() //nolint:errcheck // in-memory
	submitNs, closeNs, bareRound, err := l.roundRung("exchange", bare.ex)
	if err != nil {
		return err
	}
	l.out["exchange.submit_ns"], l.out["exchange.close_small_ns"] = submitNs, closeNs
	// Allocation counts, on the already warm job: one slate per sample.
	var subAllocs, closeAllocs []float64
	for i := 0; i < 32; i++ {
		slate := l.small[i%slatePool]
		b := 0
		a, _ := allocs(len(slate), func() { bare.ex.SubmitBid("ladder", slate[b]); b++ }) //nolint:errcheck // timed above
		subAllocs = append(subAllocs, a)
		a, _ = allocs(1, func() { bare.ex.CloseRound("ladder") }) //nolint:errcheck // timed above
		closeAllocs = append(closeAllocs, a)
	}
	l.out["exchange.submit_allocs"], l.out["exchange.close_allocs"] = median(subAllocs), median(closeAllocs)

	admitted, err := openEmbedded("", exchange.Options{Admission: admission.NewController(admission.Config{
		GlobalRate: 1e12, GlobalBurst: 1 << 30, MaxInflight: 256,
	})}, false)
	if err != nil {
		return err
	}
	defer admitted.close() //nolint:errcheck // in-memory
	if l.out["exchange.submit_admitted_ns"], _, _, err = l.roundRung("exchange.admitted", admitted.ex); err != nil {
		return err
	}

	tapped, err := openEmbedded("", exchange.Options{}, true)
	if err != nil {
		return err
	}
	defer tapped.close() //nolint:errcheck // in-memory
	_, tappedClose, tappedRound, err := l.roundRung("exchange.tapped", tapped.ex)
	if err != nil {
		return err
	}
	l.out["analytics.tap_ns_per_event"] = (tappedRound - bareRound) / (roundBids + 1)

	dir, err := l.e.scratch("ladder-wal")
	if err != nil {
		return err
	}
	durable, err := openEmbedded(dir, exchange.Options{}, true)
	if err != nil {
		return err
	}
	defer durable.close() //nolint:errcheck // scratch data
	_, durableClose, _, err := l.roundRung("exchange.durable", durable.ex)
	if err != nil {
		return err
	}
	l.out["exchange.wal.append_ns"] = durableClose - tappedClose
	return nil
}

// httpRungs times the same bid through the exchange's handler on a
// recorder, over one loopback keep-alive connection, and through the SDK.
func (l *ladder) httpRungs() error {
	em, err := openEmbedded("", exchange.Options{}, false)
	if err != nil {
		return err
	}
	defer em.close() //nolint:errcheck // in-memory
	if _, err := em.ex.CreateJob(exchange.JobSpec{ID: "ladder", Auction: auction.Config{Rule: smallRule(), K: roundK}, Seed: l.e.seed}); err != nil {
		return err
	}
	h := exchange.NewHandler(em.ex)
	const bidsPath, closePath = "/v1/jobs/ladder/bids", "/v1/jobs/ladder/close"
	var failure error
	keys := 0
	serve := func(method, path string, body []byte, keyed bool, want int) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, path, rd)
		if keyed {
			keys++
			req.Header.Set("Idempotency-Key", "ladder-"+strconv.Itoa(keys))
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != want && failure == nil {
			failure = fmt.Errorf("%s %s on the recorder answered %d: %s", method, path, w.Code, w.Body)
		}
	}
	round := 0
	// One round per batch; only the named call is inside the timed span.
	handlerRound := func(name string, keyed bool) (submitNs, closeNs, outcomeNs float64) {
		var submits, closes, reads []float64
		root := l.tr.add(name, 0, time.Now(), time.Now(), 0, 0)
		deadline := time.Now().Add(l.d)
		for i := 0; i < 3 || time.Now().Before(deadline); i++ {
			round++
			slate := l.bodies[round%slatePool]
			t0 := time.Now()
			for _, body := range slate {
				serve(http.MethodPost, bidsPath, body, keyed, http.StatusAccepted)
			}
			t1 := time.Now()
			serve(http.MethodPost, closePath, nil, false, http.StatusOK)
			t2 := time.Now()
			for k := 0; k < roundK; k++ {
				serve(http.MethodGet, "/v1/jobs/ladder/outcome?round="+strconv.Itoa(round), nil, false, http.StatusOK)
			}
			t3 := time.Now()
			l.tr.add(name+".submit", root, t0, t1, int64(i), len(slate))
			l.tr.add(name+".close", root, t1, t2, int64(i), 1)
			l.tr.add(name+".outcome", root, t2, t3, int64(i), roundK)
			submits = append(submits, float64(t1.Sub(t0).Nanoseconds())/float64(len(slate)))
			closes = append(closes, float64(t2.Sub(t1).Nanoseconds()))
			reads = append(reads, float64(t3.Sub(t2).Nanoseconds())/roundK)
		}
		return median(submits), median(closes), median(reads)
	}
	l.out["exchange.http.submit_ns"], l.out["exchange.http.close_ns"], l.out["exchange.http.outcome_ns"] = handlerRound("exchange.http", false)
	// Fill the idempotency cache to its cap before timing keyed submits.
	for keys < 4096 {
		round++
		for _, body := range l.bodies[round%slatePool] {
			serve(http.MethodPost, bidsPath, body, true, http.StatusAccepted)
		}
		serve(http.MethodPost, closePath, nil, false, http.StatusOK)
	}
	l.out["exchange.http.submit_idem_ns"], _, _ = handlerRound("exchange.http.idem", true)
	var aSamples, bSamples []float64
	for i := 0; i < 16; i++ {
		round++
		slate := l.bodies[round%slatePool]
		b := 0
		a, bytes := allocs(len(slate), func() { serve(http.MethodPost, bidsPath, slate[b], false, http.StatusAccepted); b++ })
		serve(http.MethodPost, closePath, nil, false, http.StatusOK)
		aSamples, bSamples = append(aSamples, a), append(bSamples, bytes)
	}
	l.out["exchange.http.submit_allocs"], l.out["exchange.http.submit_bytes"] = median(aSamples), median(bSamples)
	if failure != nil {
		return failure
	}

	// One keep-alive connection to a real listener in this process.
	srv := httptest.NewServer(h)
	defer srv.Close()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	raw := &edgeInst{e: l.e, srv: &proc{url: srv.URL}, hc: hc}
	post := func(path string, body []byte, keyed bool, want int) {
		key := ""
		if keyed {
			keys++
			key = "ladder-" + strconv.Itoa(keys)
		}
		if status, err := raw.post(path, body, key, nil); (err != nil || status != want) && failure == nil {
			failure = fmt.Errorf("POST %s over loopback answered %d, %v", path, status, err)
		}
	}
	var trip, tripRound []float64
	root := l.tr.add("nethttp", 0, time.Now(), time.Now(), 0, 0)
	deadline := time.Now().Add(2 * l.d)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		round++
		slate := l.bodies[round%slatePool]
		t0 := time.Now()
		for _, body := range slate {
			post(bidsPath, body, true, http.StatusAccepted)
		}
		t1 := time.Now()
		post(closePath, nil, false, http.StatusOK)
		t2 := time.Now()
		l.tr.add("nethttp.roundtrip", root, t0, t1, int64(i), len(slate))
		trip = append(trip, float64(t1.Sub(t0).Nanoseconds())/float64(len(slate)))
		tripRound = append(tripRound, float64(t2.Sub(t0).Nanoseconds())/float64(len(slate)))
	}
	tripNs := median(trip)
	l.out["nethttp.roundtrip_ns"] = tripNs - l.out["exchange.http.submit_idem_ns"]
	l.out["loopback.bid_ns"] = median(tripRound) // one bid with its share of the close, for the budget

	sdk, err := client.New(srv.URL, client.WithHTTPClient(hc))
	if err != nil {
		return err
	}
	bids := make([][]client.Bid, len(l.small))
	for s, slate := range l.small {
		for _, b := range slate {
			bids[s] = append(bids[s], client.Bid{NodeID: b.NodeID, Qualities: b.Qualities, Payment: b.Payment})
		}
	}
	ctx := context.Background()
	var viaSDK []float64
	root = l.tr.add("client", 0, time.Now(), time.Now(), 0, 0)
	deadline = time.Now().Add(2 * l.d)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		round++
		slate := bids[round%slatePool]
		t0 := time.Now()
		for _, b := range slate {
			if _, err := sdk.SubmitBid(ctx, "ladder", b); err != nil && failure == nil {
				failure = fmt.Errorf("SDK submit over loopback: %w", err)
			}
		}
		t1 := time.Now()
		if _, err := sdk.CloseRound(ctx, "ladder"); err != nil && failure == nil {
			failure = fmt.Errorf("SDK close over loopback: %w", err)
		}
		l.tr.add("client.submit", root, t0, t1, int64(i), len(slate))
		viaSDK = append(viaSDK, float64(t1.Sub(t0).Nanoseconds())/float64(len(slate)))
	}
	l.out["client.submit_ns"] = median(viaSDK) - tripNs
	return failure
}

// engine sets up one workload's engine, runs it for d per window, and — for
// the workload the traced run names — also with span recording on.
func (l *ladder) engine(w workloadDef, d time.Duration, traced bool) (attempted, failed int64, err error) {
	in, err := w.setup(l.e)
	if err != nil {
		return 0, 0, err
	}
	closed := false
	defer func() {
		if !closed {
			in.close() //nolint:errcheck // already failing
		}
	}()
	// The engines with more than one window get one share of the run each.
	switch in := in.(type) {
	case *edgeInst:
		// The rung between the loopback round trip inside one process and C
		// workers contending: the same bids at the spawned binary from one
		// worker on one connection, its operations recorded as spans.
		alone := in.loop(1, false, d, l.tr, &measurement{})
		attempted, failed = alone.attempted, alone.failed
		if alone.firstErr != nil {
			return attempted, failed, alone.firstErr
		}
		l.out["budget.solo_bid_us"] = bidSpanUs(alone)
		d *= 2 // closed loop, open loop
	case *routedInst:
		in.withDirect = true // through the router, direct
		d *= 2
	}
	// run measures one window and folds its operation counts into the
	// engine's totals; a failed operation fails the engine.
	run := func(d time.Duration, tr *tracer) (*measurement, error) {
		m, err := in.measure(d, tr)
		if m != nil {
			attempted, failed = attempted+m.attempted(), failed+m.failed()
			if err == nil {
				err = m.firstErr()
			}
		}
		return m, err
	}
	// The traced workload's engine runs with spans on for half a window
	// before and half a window after the untraced one, so that warm-up and
	// drift fall on both sides of the comparison.
	var before, after *measurement
	if traced {
		if before, err = run(d/2, l.tr); err != nil {
			return attempted, failed, err
		}
	}
	m, err := run(d, nil)
	if err != nil {
		return attempted, failed, err
	}
	for k, v := range m.extra {
		l.out[k] = v
	}
	switch in := in.(type) {
	case *edgeInst:
		l.out["budget.rung_sum_us"] = bidSpanUs(m.load)
		l.out["budget.edge_bid_us"] = float64(l.e.c) / m.load.bidsPerS() * 1e6
	case *churnInst:
		if l.out["exchange.wal.sync_ns"], err = in.syncAfterOne(); err != nil {
			return attempted, failed, err
		}
	}
	if traced {
		if after, err = run(d/2, l.tr); err != nil {
			return attempted, failed, err
		}
		nproc := float64(runtime.NumCPU())
		l.out["process.server_cpu_share"] = m.serverCPU / (m.wall * nproc)
		l.out["process.generator_cpu_share"] = m.generatorCPU / (m.wall * nproc)
		l.out["host.ref_kernel_ns"] = m.load.kernelNs
		withSpans := (before.load.bidsPerS() + after.load.bidsPerS()) / 2
		l.out["bench.trace_overhead_pct"] = (m.load.bidsPerS() - withSpans) / m.load.bidsPerS() * 100
	}
	if f, ok := in.(fixturer); ok {
		extra, err := f.fixture()
		if err != nil {
			return attempted, failed, err
		}
		for k, v := range extra {
			l.out[k] = v
		}
	}
	closed = true
	return attempted, failed, in.close()
}

// bidSpanUs is what one bid of a closed-loop window costs its worker by the
// spans recorded around the calls: the mean bid and the bid's share of the
// mean close, in microseconds. Means, because a budget has to add up: a
// worker's time is its spans, stalls and all, and medians leave the skew out.
func bidSpanUs(p *phase) float64 {
	return (p.mean(opSubmit) + p.mean(opClose)/roundBids) * 1e3
}

// syncAfterOne times Sync right after one round's record was appended: the
// price of making one record durable, nothing batched behind it.
func (in *churnInst) syncAfterOne() (float64, error) {
	rec := newRecorder(time.Now(), time.Minute, nil)
	var waits []float64
	for i := 0; i < 32; i++ {
		in.driveRound(rec, i%len(in.ids))
		t0 := time.Now()
		if err := in.em.ex.Sync(); err != nil {
			return 0, err
		}
		waits = append(waits, float64(time.Since(t0).Nanoseconds()))
	}
	if rec.failed > 0 {
		return 0, rec.firstErr
	}
	return median(waits), nil
}

// budgetTolerance is how far the rungs' sum may land from the counted
// per-bid time of edge_bids_http before the budget is flagged.
const budgetTolerance = 0.15

// budget prints one bid's way up the ladder, microseconds of self time per
// rung: each rung's duration by the spans around its public call, minus the
// rung below. The top rung is edge_bids_http's own closed loop, so the self
// times sum to the bid's spans there (their mean); that sum is held against
// what the same window counted, C / bids_per_s. Spans that leave more than
// budgetTolerance of the counted time unaccounted for — failed or untimed
// operations, time the generator spends between calls — or claim more than
// there was are flagged: the attribution is then not to be spent.
func (l *ladder) budget() {
	o := l.out
	score := o["auction.score_ns"]
	closeShare := o["exchange.close_small_ns"] / roundBids
	exch := o["exchange.submit_ns"] + closeShare
	handler := o["exchange.http.submit_idem_ns"] + o["exchange.http.close_ns"]/roundBids
	loop := o["loopback.bid_ns"]
	delete(o, "loopback.bid_ns")
	// What the production stack adds to every bid inside the process, priced
	// by the rungs that isolate it.
	durable := o["exchange.wal.append_ns"] / roundBids
	admit := o["exchange.submit_admitted_ns"] - o["exchange.submit_ns"]
	tap := o["analytics.tap_ns_per_event"] * (roundBids + 1) / roundBids
	inProcess := loop + durable + admit + tap
	solo, sum, counted := o["budget.solo_bid_us"]*1e3, o["budget.rung_sum_us"]*1e3, o["budget.edge_bid_us"]*1e3
	delete(o, "budget.solo_bid_us")
	rows := []struct {
		name string
		ns   float64
	}{
		{"auction: score", score},
		{"auction: select, pay (close share)", closeShare - score},
		{"exchange: intake", o["exchange.submit_ns"]},
		{"exchange.http: handler, JSON, idempotency", handler - exch},
		{"nethttp: loopback round trip", loop - handler},
		{"admission", admit},
		{"analytics tap", tap},
		{"exchange.wal: append (close share)", durable},
		{"process: the spawned binary, one connection", solo - inProcess},
		{"process: C workers contending", sum - solo},
		{"= rung sum: a bid's spans on edge_bids_http", sum},
		{"  C / bids_per_s counted on the same window", counted},
		{"client: SDK over the round trip", o["client.submit_ns"]},
		{"router: forward hop", o["router.forward_ms"] * 1e6},
	}
	fmt.Println("\nbid-path budget, self time per bid:")
	for _, r := range rows {
		fmt.Printf("  %-44s %10.3f us\n", r.name, r.ns/1e3)
	}
	verdict := "within"
	if math.Abs(sum/counted-1) > budgetTolerance {
		verdict = "OUTSIDE"
	}
	fmt.Printf("  the rungs sum to %.0f%% of C / bids_per_s: %s the %.0f%% the budget is trusted to; %.0f%% of the bid is spent inside one process\n",
		sum/counted*100, verdict, budgetTolerance*100, inProcess/counted*100)
}
