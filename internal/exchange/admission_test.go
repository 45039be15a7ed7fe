package exchange

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fmore/internal/admission"
	"fmore/internal/auction"
	"fmore/internal/promtext"
)

// admittedFixture builds an exchange with the given admission config plus
// one manual-round job.
func admittedFixture(t *testing.T, cfg admission.Config) *Exchange {
	t.Helper()
	ex := New(Options{Admission: admission.NewController(cfg)})
	t.Cleanup(func() { ex.Close() })
	if _, err := ex.CreateJob(JobSpec{ID: "adm", Auction: auction.Config{Rule: testRule(t, 0), K: 2}}); err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestAdmissionShedNeverDropsRoundClose is the core overload invariant
// under -race: 64 bidders flood a rate-limited job while a closer hammers
// round closes; every close succeeds with exactly the bids that were
// admitted (accepted bids are never lost, shed bids never appear), and no
// close is ever refused for overload.
func TestAdmissionShedNeverDropsRoundClose(t *testing.T) {
	ex := admittedFixture(t, admission.Config{GlobalRate: 20000, GlobalBurst: 100})

	const (
		bidders   = 64
		perBidder = 400
	)
	var (
		accepted atomic.Int64
		shed     atomic.Int64
		nextID   atomic.Int64
		wg       sync.WaitGroup
	)
	stop := make(chan struct{})
	closedBids := atomic.Int64{}
	closes := atomic.Int64{}
	var closerErr atomic.Value
	closerDone := make(chan struct{})
	go func() {
		defer close(closerDone)
		for {
			ro, err := ex.CloseRound("adm")
			switch {
			case err == nil:
				closes.Add(1)
				closedBids.Add(int64(ro.NumBids))
			case errors.Is(err, ErrBelowQuorum):
				// Nothing admitted since the last close; keep going.
			default:
				var ov *OverloadError
				if errors.As(err, &ov) {
					closerErr.Store("round close was shed: " + err.Error())
					return
				}
				closerErr.Store(err.Error())
				return
			}
			select {
			case <-stop:
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}()

	for b := 0; b < bidders; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perBidder; i++ {
				id := int(nextID.Add(1))
				_, err := ex.SubmitBid("adm", auction.Bid{
					NodeID: id, Qualities: []float64{0.5, 0.5}, Payment: 0.1,
				})
				var ov *OverloadError
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.As(err, &ov):
					if ov.RetryAfter <= 0 {
						t.Error("shed without a retry hint")
					}
					shed.Add(1)
				default:
					t.Errorf("unexpected submit error: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-closerDone
	if msg := closerErr.Load(); msg != nil {
		t.Fatalf("closer: %v", msg)
	}
	// Drain the final collecting round so every admitted bid is in an
	// outcome.
	if ro, err := ex.CloseRound("adm"); err == nil {
		closes.Add(1)
		closedBids.Add(int64(ro.NumBids))
	} else if !errors.Is(err, ErrBelowQuorum) {
		t.Fatalf("final close: %v", err)
	}

	if accepted.Load()+shed.Load() != bidders*perBidder {
		t.Fatalf("accepted %d + shed %d != %d attempts", accepted.Load(), shed.Load(), bidders*perBidder)
	}
	if shed.Load() == 0 {
		t.Fatal("the flood never tripped the rate limit; the test exercised nothing")
	}
	if got := closedBids.Load(); got != accepted.Load() {
		t.Fatalf("rounds closed with %d bids total, but %d were admitted", got, accepted.Load())
	}
	s := ex.Metrics()
	if !s.AdmissionEnabled || s.AdmissionShedTotal != shed.Load() || s.AdmissionShedGlobal != shed.Load() {
		t.Fatalf("snapshot admission accounting = %+v, want shed_total %d", s, shed.Load())
	}
	if s.BidsAccepted != accepted.Load() {
		t.Fatalf("bids_accepted %d != %d", s.BidsAccepted, accepted.Load())
	}
}

// TestAdmissionHTTP429 pins the wire shape of a shed bid: 429, code
// "overloaded", retry_after_ms ≥ 1 — and that the shed does not burn the
// request's Idempotency-Key (the retry with the same key executes fresh
// and succeeds rather than replaying the 429). The clock is injected so
// the single-token burst cannot refill from real test latency.
func TestAdmissionHTTP429(t *testing.T) {
	var clock atomic.Int64
	clock.Store(time.Now().UnixNano())
	ex := admittedFixture(t, admission.Config{
		GlobalRate: 1000, GlobalBurst: 1,
		Now: func() time.Time { return time.Unix(0, clock.Load()) },
	})
	srv := httptest.NewServer(NewHandler(ex))
	defer srv.Close()

	bid := map[string]any{"node_id": 1, "qualities": []float64{0.5, 0.5}, "payment": 0.1}
	if resp, body := postJSON(t, srv.URL+"/v1/jobs/adm/bids", bid); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first bid: status %d body %v", resp.StatusCode, body)
	}

	post := func(nodeID int) (*http.Response, map[string]any) {
		buf, err := json.Marshal(map[string]any{"node_id": nodeID, "qualities": []float64{0.5, 0.5}, "payment": 0.1})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs/adm/bids", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", "retry-me")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, decodeBody(t, resp)
	}
	resp, body := post(2)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst-exceeded bid: status %d body %v", resp.StatusCode, body)
	}
	if body["code"] != "overloaded" {
		t.Fatalf("shed code = %v", body["code"])
	}
	if ra, ok := body["retry_after_ms"].(float64); !ok || ra < 1 {
		t.Fatalf("retry_after_ms = %v", body["retry_after_ms"])
	}
	if resp.Header.Get("Idempotent-Replay") != "" {
		t.Fatal("a shed must not come from the idempotency cache")
	}
	// The bucket refills one token per millisecond; advance the clock past
	// a refill and the same key executes fresh instead of replaying the
	// recorded 429.
	clock.Add(int64(20 * time.Millisecond))
	resp, body = post(2)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retry after shed: status %d body %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Idempotent-Replay") != "" {
		t.Fatal("the shed 429 was recorded against the Idempotency-Key")
	}
}

// TestAdmissionSSECapEvictsOldest drives the subscriber cap through the
// real handler: with MaxStreams 2, a third subscriber evicts the first
// (oldest) stream — its response ends — while the second and third keep
// receiving events.
func TestAdmissionSSECapEvictsOldest(t *testing.T) {
	ex := admittedFixture(t, admission.Config{MaxStreams: 2})
	srv := httptest.NewServer(NewHandler(ex))
	defer srv.Close()

	r1, close1 := openStream(t, srv.URL+"/v1/jobs/adm/events", "")
	defer close1()
	r2, close2 := openStream(t, srv.URL+"/v1/jobs/adm/events", "")
	defer close2()
	// Both streams are live: each got its round_open frame.
	for i, r := range []*bufio.Reader{r1, r2} {
		if ev, err := readEvent(t, r); err != nil || ev.event != "round_open" {
			t.Fatalf("stream %d first event = %q err %v", i+1, ev.event, err)
		}
	}
	r3, close3 := openStream(t, srv.URL+"/v1/jobs/adm/events", "")
	defer close3()
	if ev, err := readEvent(t, r3); err != nil || ev.event != "round_open" {
		t.Fatalf("stream 3 first event = %q err %v", ev.event, err)
	}
	// Stream 1 (the oldest) was evicted: its body ends.
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(r1)
		done <- err
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("evicted stream did not terminate")
	}
	// Streams 2 and 3 still deliver: close a round and expect the event.
	driveRound(t, srv.URL, "adm", 3, 1)
	for i, r := range []*bufio.Reader{r2, r3} {
		if ev, err := readEvent(t, r); err != nil || ev.event != "round_closed" {
			t.Fatalf("surviving stream %d event = %q err %v, want round_closed", i+2, ev.event, err)
		}
	}
	s := ex.Metrics()
	if s.AdmissionSSEEvicted != 1 || s.AdmissionSSEActive != 2 {
		t.Fatalf("sse accounting: evicted %d active %d", s.AdmissionSSEEvicted, s.AdmissionSSEActive)
	}
}

// TestAdmissionHealthzFlip pins the prober contract: 200 ok while clean,
// 503 overloaded + retry_after_ms while within the overload window of a
// shed, and back to 200 once the window passes (driven by an injected
// clock, so no sleeps).
func TestAdmissionHealthzFlip(t *testing.T) {
	var clock atomic.Int64
	clock.Store(time.Now().UnixNano())
	ex := admittedFixture(t, admission.Config{
		GlobalRate: 1, GlobalBurst: 1,
		Now: func() time.Time { return time.Unix(0, clock.Load()) },
	})
	srv := httptest.NewServer(NewHandler(ex))
	defer srv.Close()

	resp, body := getJSON(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("clean healthz: status %d body %v", resp.StatusCode, body)
	}
	// Spend the burst, then shed once.
	if _, err := ex.SubmitBid("adm", auction.Bid{NodeID: 1, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); err != nil {
		t.Fatal(err)
	}
	_, err := ex.SubmitBid("adm", auction.Bid{NodeID: 2, Qualities: []float64{0.5, 0.5}, Payment: 0.1})
	var ov *OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("second bid err = %v, want OverloadError", err)
	}
	resp, body = getJSON(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "overloaded" {
		t.Fatalf("overloaded healthz: status %d body %v", resp.StatusCode, body)
	}
	if ra, ok := body["retry_after_ms"].(float64); !ok || ra < 1 {
		t.Fatalf("overloaded healthz retry_after_ms = %v", body["retry_after_ms"])
	}
	if st, _ := body["admission_shed_total"].(float64); st != 1 {
		t.Fatalf("healthz shed_total = %v", body["admission_shed_total"])
	}
	// Past the window the signal clears.
	clock.Add(int64(2 * time.Second))
	resp, body = getJSON(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("recovered healthz: status %d body %v", resp.StatusCode, body)
	}
}

// TestAdmissionPrometheusCatalog: with admission installed the exposition
// still parses and carries the admission_* family — the labeled per-scope
// shed counter plus the SSE/inflight/overload series.
func TestAdmissionPrometheusCatalog(t *testing.T) {
	ex := admittedFixture(t, admission.Config{GlobalRate: 1000, GlobalBurst: 1, MaxStreams: 4})
	// One admit, one shed, so the counters are non-trivial.
	if _, err := ex.SubmitBid("adm", auction.Bid{NodeID: 1, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SubmitBid("adm", auction.Bid{NodeID: 2, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); err == nil {
		t.Fatal("second bid should shed")
	}

	var buf bytes.Buffer
	if err := writePrometheus(&buf, ex); err != nil {
		t.Fatal(err)
	}
	page, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	shed, ok := page.Families["fmore_exchange_admission_shed_total"]
	if !ok || shed.Type != "counter" {
		t.Fatalf("admission_shed_total family = %+v", shed)
	}
	byReason := map[string]float64{}
	for _, s := range shed.Samples {
		byReason[s.Labels["reason"]] = s.Value
	}
	for _, reason := range []string{"global", "node", "job", "inflight"} {
		if _, ok := byReason[reason]; !ok {
			t.Fatalf("admission_shed_total missing reason %q: %v", reason, byReason)
		}
	}
	if byReason["global"] != 1 {
		t.Fatalf("global sheds = %v, want 1", byReason["global"])
	}
	for name, typ := range map[string]string{
		"fmore_exchange_admission_sse_evicted_total": "counter",
		"fmore_exchange_admission_inflight":          "gauge",
		"fmore_exchange_admission_sse_active":        "gauge",
		"fmore_exchange_admission_overloaded":        "gauge",
	} {
		f, ok := page.Families[name]
		if !ok || f.Type != typ {
			t.Fatalf("family %s = %+v, want type %s", name, f, typ)
		}
	}
	if v, err := page.Value("fmore_exchange_admission_overloaded"); err != nil || v != 1 {
		t.Fatalf("admission_overloaded = %v err %v, want 1 right after a shed", v, err)
	}
}

// TestAdmissionDisabledZeroSurface: without a controller nothing admission-
// related appears — healthz says ok, the snapshot flags disabled, and the
// exposition omits the family.
func TestAdmissionDisabledZeroSurface(t *testing.T) {
	srv, ex := httpFixture(t)
	resp, body := getJSON(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz without admission: status %d body %v", resp.StatusCode, body)
	}
	if s := ex.Metrics(); s.AdmissionEnabled {
		t.Fatal("admission_enabled without a controller")
	}
	var buf bytes.Buffer
	if err := writePrometheus(&buf, ex); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("admission_")) {
		t.Fatal("admission metrics leak into the exposition when disabled")
	}
}
