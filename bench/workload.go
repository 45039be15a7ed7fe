package main

import (
	"fmt"
	"sync"
	"time"

	"fmore/internal/auction"
)

// instance is one set-up of a workload: the programs under test running
// (or the exchange opened), jobs created, nodes registered, caches warm.
type instance interface {
	// measure drives the workload's operation stream for d and returns what
	// it observed; tr non-nil additionally records a span per operation.
	measure(d time.Duration, tr *tracer) (*measurement, error)
	// pids lists the processes under test; 0 stands for this process (an
	// embedded exchange is tested inside the generator's address space).
	pids() []int
	// close stops every child and closes every exchange.
	close() error
}

// fixturer is an instance with a fixed-size check to run after the measured
// window (round_churn_durable's crash recovery); it returns the fixture's
// readings and its correctness verdict.
type fixturer interface {
	fixture() (map[string]float64, error)
}

// workloadDef is one row of the benchmark: a name the driver passes to
// -workload, why the row exists, and how to set it up.
type workloadDef struct {
	name  string
	why   string
	setup func(e *env) (instance, error)
	// stream fingerprints the operation stream the workload generates for
	// e's seed and load shape, without running anything.
	stream func(e *env) uint64
}

var workloads = []workloadDef{
	{
		name: "edge_bids_http",
		why: "Edge nodes POST single bids to one durable fmore-exchange over keep-alive HTTP: net/http, body read, JSON decode, " +
			"idempotency, admission and intake do the work; selection and the WAL almost none.",
		setup:  setupEdge,
		stream: edgeStream,
	},
	{
		name: "round_churn_durable",
		why: "An aggregator embeds a durable exchange and churns 64-bid rounds over 64 jobs: WAL encode, group commit, fdatasync, " +
			"snapshot/rotation and replay do the work; HTTP none.",
		setup:  setupChurn,
		stream: churnStream,
	},
	{
		name: "mega_round",
		why: "One in-memory job takes 16,384 bids per round from C goroutines at once, K=64 second-price Cobb-Douglas: contended " +
			"intake, pooled scoring, canonical sort and top-K heap do the work; no WAL, no HTTP.",
		setup:  setupMega,
		stream: megaStream,
	},
	{
		name: "routed_mixed",
		why: "Equilibrium bids, closes and outcome reads go through pkg/client and fmore-router to two durable partitioned " +
			"replicas: router forward, partition map and SDK retry/idempotency code work only here.",
		setup:  setupRouted,
		stream: routedStream,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// measurement is what one measure call observed.
type measurement struct {
	// load is the closed-loop window the end-to-end metrics are read from;
	// open is edge_bids_http's open-loop half (nil elsewhere), whose
	// latencies, timed from due time, are per-layer metrics.
	load, open *phase
	// serverCPU and generatorCPU are CPU seconds spent during the windows
	// by the processes under test and by this process; wall is the windows'
	// combined length.
	serverCPU, generatorCPU, wall float64
	// extra carries workload-specific readings (per-layer metric name →
	// value) that only the traced run reports.
	extra map[string]float64
}

func (m *measurement) attempted() int64 { return m.load.attempted + m.openOrNone().attempted }
func (m *measurement) failed() int64    { return m.load.failed + m.openOrNone().failed }

// openOrNone is the open-loop window, or an empty phase without one.
func (m *measurement) openOrNone() *phase {
	if m.open == nil {
		return &phase{}
	}
	return m.open
}

func (m *measurement) firstErr() error {
	if m.load.firstErr != nil {
		return m.load.firstErr
	}
	return m.openOrNone().firstErr
}

// cpuMeter samples CPU seconds of the processes under test and of this
// process around a window.
type cpuMeter struct {
	pids        []int
	server, gen float64
	start       time.Time
}

func startCPU(pids []int) *cpuMeter {
	m := &cpuMeter{pids: pids, start: time.Now()}
	m.server, m.gen = m.read()
	return m
}

func (m *cpuMeter) read() (server, gen float64) {
	for _, pid := range m.pids {
		s, _ := cpuSeconds(pid) // a reading lost to a dead child shows as a failed run elsewhere
		server += s
	}
	gen, _ = cpuSeconds(0)
	return server, gen
}

// stop folds the window's CPU seconds into the measurement.
func (m *cpuMeter) stop(into *measurement) {
	server, gen := m.read()
	into.serverCPU += server - m.server
	into.generatorCPU += gen - m.gen
	into.wall += time.Since(m.start).Seconds()
}

// runWorkers runs fn on c goroutines, each with its own recorder over a
// window of d starting now, and merges what they recorded. The phase's
// window runs until the last worker is done: a worker finishes the round it
// is in, so rates are over the time the counted work really took.
func runWorkers(c int, d time.Duration, tr *tracer, fn func(w int, r *recorder, deadline time.Time)) *phase {
	start := time.Now()
	deadline := start.Add(d)
	recs := make([]*recorder, c)
	for w := range recs {
		recs[w] = newRecorder(start, d, tr)
	}
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w, recs[w], deadline)
		}(w)
	}
	wg.Wait()
	return merge(time.Since(start), recs)
}

// ownJobs lists the jobs worker w of c drives: j ≡ w (mod c). One worker
// issues all of a job's operations in order, so a bid never races the close
// of its own round.
func ownJobs(w, c, jobs int) []int {
	var own []int
	for j := w; j < jobs; j += c {
		own = append(own, j)
	}
	return own
}

// checkOutcome is the per-round correctness check every workload applies:
// the round scored exactly the bids submitted and picked exactly k winners,
// and no winner is paid less than it asked (individual rationality; under
// first price payment equals the ask, under second price it may exceed it).
func checkOutcome(numBids, wantBids, k int, winners int, paid, asked func(i int) float64) error {
	if numBids != wantBids {
		return fmt.Errorf("round scored %d bids, want %d", numBids, wantBids)
	}
	if winners != k {
		return fmt.Errorf("round picked %d winners, want %d", winners, k)
	}
	for i := 0; i < winners; i++ {
		if paid(i) < asked(i) {
			return fmt.Errorf("winner %d paid %v, below its ask %v", i, paid(i), asked(i))
		}
	}
	return nil
}

// checkAuctionOutcome applies checkOutcome to an in-process outcome.
func checkAuctionOutcome(numBids, wantBids, k int, out auction.Outcome) error {
	return checkOutcome(numBids, wantBids, k, len(out.Winners),
		func(i int) float64 { return out.Winners[i].Payment },
		func(i int) float64 { return out.Winners[i].Bid.Payment })
}
