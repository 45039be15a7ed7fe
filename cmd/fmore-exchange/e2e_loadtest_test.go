package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fmore/internal/promtext"
	"fmore/pkg/api"
)

// TestE2ELoadtestSmoke is the CI capacity smoke: start the real exchange
// with tight admission limits, fire a burst of bids well past its global
// rate while a closer closes the round every 100 ms, and assert the
// overload machinery engaged without touching the close path — healthz
// flipped to 503 mid-burst and back to 200 after, every round close was
// answered 200 or 409 below_quorum (never 429, 5xx or another error), and the admission_* Prometheus family is present
// and well formed.
func TestE2ELoadtestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the real binary")
	}
	const workers, nodes, burst = 8, 1024, 1500 * time.Millisecond
	url, _, _ := startExchange(t, buildBinary(t, "."), filepath.Join(t.TempDir(), "data"),
		"-rate-global", "200", "-max-inflight", "64", "-max-subscribers", "4")
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: workers + 2},
		Timeout:   10 * time.Second,
	}
	defer hc.CloseIdleConnections()
	// post answers the status of one POST, or 0 when it never got one.
	post := func(path, body string) int {
		resp, err := hc.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			return 0
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse
		resp.Body.Close()
		return resp.StatusCode
	}
	healthz := func() int {
		resp, err := hc.Get(url + api.GetHealthz.Path)
		if err != nil {
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	const job = "loadtest"
	if got := post(api.CreateJob.Path,
		`{"id":"`+job+`","k":2,"seed":7,"keep_outcomes":16,"rule":{"kind":"additive","alpha":[0.6,0.4]}}`); got != http.StatusCreated {
		t.Fatalf("create job = %d, want 201", got)
	}
	if got := healthz(); got != http.StatusOK {
		t.Fatalf("healthz before load = %d, want 200", got)
	}

	// The closer: closes are on the never-shed list, so every answer must
	// be 200 or a 409 below_quorum (an empty round). A 429 counts as shed;
	// any other answer, or none, counts as failed.
	stop := make(chan struct{})
	var closesOK, closesShed, closesFailed atomic.Int64
	var closeFailure atomic.Value // the first failed answer, for the report
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			resp, err := hc.Post(url+api.CloseRound.URL(job), "application/json", nil)
			if err != nil {
				closesFailed.Add(1)
				closeFailure.CompareAndSwap(nil, err.Error())
				continue
			}
			var env api.Error
			_ = json.NewDecoder(resp.Body).Decode(&env)
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				closesOK.Add(1)
			case resp.StatusCode == http.StatusTooManyRequests:
				closesShed.Add(1)
			case resp.StatusCode == http.StatusConflict && env.Code == api.CodeBelowQuorum:
				// An empty round still proves the close path answers.
			default:
				closesFailed.Add(1)
				closeFailure.CompareAndSwap(nil, fmt.Sprintf("HTTP %d %s", resp.StatusCode, env.Code))
			}
		}
	}()
	// The burst: workers bid back to back, far past -rate-global.
	var bidsShed atomic.Int64
	var node atomic.Int64
	for w := 0; w < workers; w++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := node.Add(1) % nodes
				q := 0.2 + float64(n%700)/1000
				if post(api.SubmitBid.URL(job), fmt.Sprintf(
					`{"node_id":%d,"qualities":[%.3f,%.3f],"payment":0.1}`, n, q, 1-q/2)) == http.StatusTooManyRequests {
					bidsShed.Add(1)
				}
			}
		}()
	}

	sawOverloaded := false
	for end := time.Now().Add(burst); time.Now().Before(end); time.Sleep(25 * time.Millisecond) {
		if healthz() == http.StatusServiceUnavailable {
			sawOverloaded = true
		}
	}
	close(stop)
	bg.Wait()
	if !sawOverloaded {
		t.Fatalf("healthz never flipped to 503 during the burst (%d bids shed)", bidsShed.Load())
	}
	if closesShed.Load() > 0 || closesFailed.Load() > 0 {
		t.Errorf("round closes: %d shed with 429, %d failed (first: %v)", closesShed.Load(), closesFailed.Load(), closeFailure.Load())
	}
	if closesOK.Load() == 0 {
		t.Error("no round close succeeded during the burst")
	}

	// Overload clears once the burst's shed window passes.
	recovered := false
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		if healthz() == http.StatusOK {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("healthz did not return to 200 within 5s of the burst ending")
	}

	// The admission metric family must be on the Prometheus surface and
	// carry every shed scope; the global scope did the shedding here.
	resp, err := hc.Get(url + "/v1/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("prometheus exposition did not parse: %v", err)
	}
	shed, ok := m.Families["fmore_exchange_admission_shed_total"]
	if !ok || shed.Type != "counter" {
		t.Fatalf("admission_shed_total family missing or mistyped: %+v", shed)
	}
	reasons := map[string]bool{}
	var globalShed float64
	for _, s := range shed.Samples {
		reasons[s.Labels["reason"]] = true
		if s.Labels["reason"] == "global" {
			globalShed = s.Value
		}
	}
	for _, want := range []string{"global", "node", "job", "inflight"} {
		if !reasons[want] {
			t.Fatalf("admission_shed_total missing reason=%q (have %v)", want, reasons)
		}
	}
	if globalShed == 0 {
		t.Fatal("burst ran but admission_shed_total{reason=\"global\"} is 0")
	}
	for _, g := range []string{
		"fmore_exchange_admission_inflight",
		"fmore_exchange_admission_sse_active",
		"fmore_exchange_admission_overloaded",
		"fmore_exchange_admission_sse_evicted_total",
	} {
		if _, err := m.Value(g); err != nil {
			t.Fatalf("admission catalog: %v", err)
		}
	}
}
