package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fmore/internal/hist"
	"fmore/pkg/api"
)

// The harness is open-loop: bids are fired on a fixed schedule derived
// from the offered rate, regardless of how fast the exchange answers, so
// an overloaded exchange sees true queueing pressure instead of the
// closed-loop self-throttling that hides capacity cliffs.

type config struct {
	target   string
	scenario string
	rate     float64
	duration time.Duration
	workers  int
	nodes    int
	job      string
}

func run() error {
	var cfg config
	flag.StringVar(&cfg.target, "target", "http://localhost:8780", "base URL of the exchange under test")
	flag.StringVar(&cfg.scenario, "scenario", "baseline", "baseline | spike | soak | stress | all")
	flag.Float64Var(&cfg.rate, "rate", 500, "offered bids/sec for baseline/soak; starting step for stress")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "base step duration (soak runs 3x this)")
	flag.IntVar(&cfg.workers, "workers", 32, "concurrent submitter goroutines")
	flag.IntVar(&cfg.nodes, "nodes", 65536, "distinct node IDs the submitters cycle through")
	flag.StringVar(&cfg.job, "job", "", "job ID to create and drive (default loadgen-<scenario>)")
	flag.Parse()

	scenarios := []string{cfg.scenario}
	switch cfg.scenario {
	case "all":
		scenarios = []string{"baseline", "spike", "soak", "stress"}
	case "baseline", "spike", "soak", "stress":
	default:
		return fmt.Errorf("unknown -scenario %q (want baseline, spike, soak, stress or all)", cfg.scenario)
	}
	failed := false
	for _, sc := range scenarios {
		c := cfg
		c.scenario = sc
		if c.job == "" || cfg.scenario == "all" {
			c.job = "loadgen-" + sc
		}
		if err := runScenario(c); err != nil {
			log.Printf("FAIL scenario=%s: %v", sc, err)
			failed = true
		}
	}
	if failed {
		return errors.New("one or more scenarios violated the round-close invariant")
	}
	return nil
}

// step is one constant-rate segment of a scenario.
type step struct {
	name string
	rate float64
	dur  time.Duration
}

func scenarioSteps(c config) []step {
	switch c.scenario {
	case "baseline":
		return []step{{"steady", c.rate, c.duration}}
	case "spike":
		quarter := c.duration / 4
		return []step{
			{"calm", c.rate / 4, quarter},
			{"burst", c.rate * 4, quarter * 2},
			{"recover", c.rate / 4, quarter},
		}
	case "soak":
		return []step{{"soak", c.rate, 3 * c.duration}}
	case "stress":
		// Steps are generated on the fly by runStress.
		return nil
	}
	return nil
}

func runScenario(c config) error {
	log.Printf("scenario=%s target=%s job=%s rate=%.0f duration=%s workers=%d nodes=%d",
		c.scenario, c.target, c.job, c.rate, c.duration, c.workers, c.nodes)
	d := newDriver(c)
	if err := d.createJob(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { defer bg.Done(); d.closerLoop(ctx) }()
	go func() { defer bg.Done(); d.healthzLoop(ctx) }()

	var err error
	if c.scenario == "stress" {
		err = d.runStress(c)
	} else {
		for _, st := range scenarioSteps(c) {
			d.runStep(c, st)
		}
	}
	cancel()
	bg.Wait()
	if err != nil {
		return err
	}
	return d.closeInvariant()
}

// driver owns one scenario's connections and background loops.
type driver struct {
	c  config
	hc *http.Client

	nodeSeq atomic.Int64

	// Closer-loop health: the invariant under test.
	closes       atomic.Int64
	closeShed    atomic.Int64 // 429 on a close — must stay 0
	closeErrs    atomic.Int64 // non-quorum close failures — must stay 0
	lastCloseOK  atomic.Int64 // unix nanos of the last successful close round-trip
	maxCloseGapN atomic.Int64 // widest observed gap between successful closes

	// Healthz sampling.
	hzOK       atomic.Int64
	hzOver     atomic.Int64
	hzFlips    atomic.Int64
	hzLastOver atomic.Bool
}

func newDriver(c config) *driver {
	tr := &http.Transport{
		MaxIdleConns:        c.workers + 8,
		MaxIdleConnsPerHost: c.workers + 8,
	}
	return &driver{c: c, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (d *driver) createJob() error {
	spec := fmt.Sprintf(`{"id":%q,"k":2,"seed":7,"keep_outcomes":16,"rule":{"kind":"additive","alpha":[0.6,0.4]}}`, d.c.job)
	resp, err := d.hc.Post(d.c.target+api.CreateJob.Path, "application/json", strings.NewReader(spec))
	if err != nil {
		return fmt.Errorf("creating job: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 && resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("creating job: HTTP %d", resp.StatusCode)
	}
	return nil
}

// closerLoop closes the job's round every 100ms for the whole scenario.
// Closes are on the admission never-shed list: a 429 here, or any failure
// other than below_quorum (an empty round), is an invariant violation.
func (d *driver) closerLoop(ctx context.Context) {
	d.lastCloseOK.Store(time.Now().UnixNano())
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		resp, err := d.hc.Post(d.c.target+api.CloseRound.URL(d.c.job), "application/json", nil)
		if err != nil {
			d.closeErrs.Add(1)
			continue
		}
		var env api.Error
		_ = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			d.closes.Add(1)
		case resp.StatusCode == http.StatusTooManyRequests:
			d.closeShed.Add(1)
			continue
		case env.Code == api.CodeBelowQuorum:
			// An empty round is fine; it still proves the close path answers.
		default:
			d.closeErrs.Add(1)
			continue
		}
		now := time.Now()
		if gap := now.UnixNano() - d.lastCloseOK.Swap(now.UnixNano()); gap > d.maxCloseGapN.Load() {
			d.maxCloseGapN.Store(gap)
		}
	}
}

func (d *driver) healthzLoop(ctx context.Context) {
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		resp, err := d.hc.Get(d.c.target + api.GetHealthz.Path)
		if err != nil {
			continue
		}
		resp.Body.Close()
		over := resp.StatusCode == http.StatusServiceUnavailable
		if over {
			d.hzOver.Add(1)
		} else {
			d.hzOK.Add(1)
		}
		if d.hzLastOver.Swap(over) != over {
			d.hzFlips.Add(1)
		}
	}
}

// stepResult is what one constant-rate segment measured.
type stepResult struct {
	offered, served, shed, errs int64
	elapsed                     time.Duration
	lat                         *hist.Hist
}

func (r stepResult) offeredQPS() float64 { return float64(r.offered) / r.elapsed.Seconds() }
func (r stepResult) servedQPS() float64  { return float64(r.served) / r.elapsed.Seconds() }

// runStep fires bids open-loop at st.rate for st.dur and reports.
func (d *driver) runStep(c config, st step) stepResult {
	interval := time.Duration(float64(time.Second) / st.rate)
	start := time.Now()
	deadline := start.Add(st.dur)
	var slot atomic.Int64 // next schedule slot to claim
	var served, shed, errs, offered atomic.Int64
	lat := &hist.Hist{}

	var wg sync.WaitGroup
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := make([]byte, 0, 128)
			for {
				when := start.Add(time.Duration(slot.Add(1)-1) * interval)
				// Stop at the schedule's end, and also at the wall-clock
				// deadline: when the system can't absorb the offered rate
				// the backlog of past-due slots is unbounded, and burning
				// through it would stretch the step far past its duration.
				// The undelivered backlog shows up as offered_qps below the
				// step's target rate, which is exactly the saturation signal
				// the stress ramp looks for.
				if when.After(deadline) || time.Now().After(deadline) {
					return
				}
				if wait := time.Until(when); wait > 0 {
					time.Sleep(wait)
				}
				offered.Add(1)
				node := d.nodeSeq.Add(1) % int64(c.nodes)
				q := 0.2 + float64(node%700)/1000
				body = body[:0]
				body = fmt.Appendf(body, `{"node_id":%d,"qualities":[%.3f,%.3f],"payment":0.1}`, node, q, 1.0-q/2)
				t0 := time.Now()
				resp, err := d.hc.Post(d.c.target+api.SubmitBid.URL(d.c.job), "application/json", bytes.NewReader(body))
				if err != nil {
					errs.Add(1)
					continue
				}
				lat.Record(time.Since(t0).Nanoseconds())
				drain(resp)
				switch resp.StatusCode {
				case http.StatusAccepted, http.StatusOK:
					served.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				case http.StatusConflict:
					// duplicate_bid from node-ID reuse inside one round:
					// the submit reached the auction, count it served.
					served.Add(1)
				default:
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res := stepResult{
		offered: offered.Load(), served: served.Load(), shed: shed.Load(),
		errs: errs.Load(), elapsed: time.Since(start), lat: lat,
	}
	hzTotal := d.hzOK.Load() + d.hzOver.Load()
	log.Printf("RESULT scenario=%s step=%s offered_qps=%.0f served_qps=%.0f shed=%d errors=%d "+
		"p50_ms=%.1f p99_ms=%.1f closes=%d close_shed=%d close_errs=%d max_close_gap_ms=%d "+
		"healthz_overloaded=%d/%d flips=%d",
		c.scenario, st.name, res.offeredQPS(), res.servedQPS(), res.shed, res.errs,
		float64(res.lat.Quantile(0.50))/1e6, float64(res.lat.Quantile(0.99))/1e6,
		d.closes.Load(), d.closeShed.Load(), d.closeErrs.Load(), d.maxCloseGapN.Load()/1e6,
		d.hzOver.Load(), hzTotal, d.hzFlips.Load())
	return res
}

// runStress ramps the offered rate x1.5 per step until the exchange serves
// less than 90% of the step's TARGET rate, then prints the capacity claim:
// the last sustained step and the step that broke. Judging against the
// target (not the measured offered rate) catches both failure modes: the
// exchange shedding (served < offered) and the whole system saturating so
// the open-loop schedule itself falls behind (offered < target).
func (d *driver) runStress(c config) error {
	rate := c.rate
	var lastSustained float64
	for i := 0; i < 24; i++ {
		res := d.runStep(c, step{name: fmt.Sprintf("ramp-%d", i), rate: rate, dur: c.duration})
		if res.servedQPS() < 0.9*rate {
			log.Printf("RESULT scenario=stress summary=capacity max_sustained_qps=%.0f breaking_qps=%.0f served_at_break_qps=%.0f",
				lastSustained, res.offeredQPS(), res.servedQPS())
			return nil
		}
		lastSustained = res.servedQPS()
		rate *= 1.5
	}
	log.Printf("RESULT scenario=stress summary=capacity max_sustained_qps=%.0f breaking_qps=NaN (ramp exhausted)", lastSustained)
	return nil
}

// closeInvariant is the pass/fail gate: the closer loop must have run,
// never been shed, and never failed.
func (d *driver) closeInvariant() error {
	if d.closeShed.Load() > 0 {
		return fmt.Errorf("%d round closes were shed with 429 — closes are on the never-shed list", d.closeShed.Load())
	}
	if d.closeErrs.Load() > 0 {
		return fmt.Errorf("%d round closes failed", d.closeErrs.Load())
	}
	if d.closes.Load() == 0 {
		return errors.New("no round ever closed — the closer loop stalled")
	}
	return nil
}

func drain(resp *http.Response) {
	buf := make([]byte, 512)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break
		}
	}
	resp.Body.Close()
}
