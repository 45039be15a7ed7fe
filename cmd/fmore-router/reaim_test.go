package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fmore/internal/exchange"
	"fmore/internal/partition"
)

// TestRouterReaimRacingKeyedCreates: 16 racing POST /v1/jobs carrying one
// Idempotency-Key through a router still routing by the old map produce one
// job and 16 identical answers — whichever of them are refused and
// re-forwarded, and whichever of them the owner replays.
func TestRouterReaimRacingKeyedCreates(t *testing.T) {
	c := startCluster(t, exchange.Options{})
	v2 := &partition.Map{Version: 2, Partitions: []partition.Replica{
		{Partition: "p2", URL: c.m.Partitions[0].URL},
		{Partition: "p1", URL: c.m.Partitions[1].URL},
	}}
	var moved string
	for i := 0; i < 8192 && moved == ""; i++ {
		if id := fmt.Sprintf("race-%d", i); c.m.Owns("p0", id) && v2.Owns("p1", id) {
			moved = id
		}
	}
	if moved == "" {
		t.Fatal("no job moves p0→p1 across the bump")
	}
	c.ex[0].Partition().Map.Advance(v2)
	c.ex[1].Partition().Map.Advance(v2)

	spec := fmt.Sprintf(`{"id":%q,"k":2,"seed":5,"rule":{"kind":"additive","alpha":[0.5,0.5]}}`, moved)
	const racers = 16
	answers := make([]string, racers)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, c.router.URL+"/v1/jobs", strings.NewReader(spec))
			if err != nil {
				answers[i] = err.Error()
				return
			}
			req.Header.Set("Idempotency-Key", "one-key")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				answers[i] = err.Error()
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			answers[i] = fmt.Sprintf("%d %s", resp.StatusCode, body)
		}()
	}
	wg.Wait()
	if !strings.HasPrefix(answers[0], "201 ") {
		t.Fatalf("create answered %q", answers[0])
	}
	for i, a := range answers {
		if a != answers[0] {
			t.Fatalf("answer %d differs:\n%s\n%s", i, a, answers[0])
		}
	}
	if n0, n1 := c.ex[0].Metrics().JobsCreated, c.ex[1].Metrics().JobsCreated; n0 != 0 || n1 != 1 {
		t.Fatalf("jobs created: %d on the stale target, %d on the owner; want 0 and 1", n0, n1)
	}
	if got, _ := scrapeRouter(t, c).Value("fmore_router_retry_total"); got < 1 || got > racers {
		t.Fatalf("retry_total = %v, want between 1 and %d (at most one per request)", got, racers)
	}
}

// TestRouterReaimRelaysUnusable421: a 421 that is not routing feedback —
// here one that names no owner — goes back to the client exactly as the
// replica sent it, the way the SDK surfaces it; the router neither retries
// nor turns it into a router_error.
func TestRouterReaimRelaysUnusable421(t *testing.T) {
	const envelope = `{"code":"wrong_partition","message":"somewhere else","map_version":3}` + "\n"
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		io.WriteString(w, envelope)
	}))
	defer backend.Close()
	rt := newRouter(&partition.Map{Version: 1, Partitions: []partition.Replica{{Partition: "p0", URL: backend.URL}}})
	front := httptest.NewServer(rt)
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/jobs/j1/close", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusMisdirectedRequest || string(body) != envelope {
		t.Fatalf("relayed %d %q, want the replica's 421 unchanged", resp.StatusCode, body)
	}
	if rt.retries.Load() != 0 || rt.proxyErrs.Load() != 0 {
		t.Fatalf("retries %d, proxy errors %d; want 0 and 0", rt.retries.Load(), rt.proxyErrs.Load())
	}
}

// TestRouterEnvelopeBytes pins the router's own two refusals byte for byte:
// they are api.Error now and were map literals, whose keys marshal sorted.
func TestRouterEnvelopeBytes(t *testing.T) {
	for _, tc := range []struct {
		write  func(http.ResponseWriter)
		status int
		body   string
	}{
		{func(w http.ResponseWriter) { shedOverloaded(w, 250) }, http.StatusTooManyRequests,
			`{"code":"overloaded","message":"replica is overloaded; retry after the hint","retry_after_ms":250}` + "\n"},
		{func(w http.ResponseWriter) { shedOverloaded(w, 0) }, http.StatusTooManyRequests,
			`{"code":"overloaded","message":"replica is overloaded; retry after the hint","retry_after_ms":1000}` + "\n"},
		{func(w http.ResponseWriter) { proxyError(w, http.StatusBadGateway, "router has no partition map") }, http.StatusBadGateway,
			`{"code":"router_error","message":"router has no partition map"}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		tc.write(rec)
		if rec.Code != tc.status || rec.Body.String() != tc.body || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("got %d %q (%s), want %d %q", rec.Code, rec.Body.String(), rec.Header().Get("Content-Type"), tc.status, tc.body)
		}
	}
}
