package exchange

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"

	"fmore/internal/auction"
	"fmore/pkg/api"
)

// idemOrder lists the cache's eviction order, oldest first, checking the
// ring against the map on the way.
func idemOrder(t *testing.T, c *idemCache) []string {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for e := c.order.next; e != &c.order; e = e.next {
		if c.m[e.key] != e || e.next.prev != e {
			t.Fatalf("eviction order holds %q, which the map does not (or a broken link)", e.key)
		}
		keys = append(keys, e.key)
	}
	if len(keys) != len(c.m) {
		t.Fatalf("eviction order holds %d keys, the map %d", len(keys), len(c.m))
	}
	return keys
}

// TestIdemCacheEviction pins the cache's two properties at the point where
// they meet: with the oldest claim still in flight, a full cache evicts the
// oldest settled entry behind it, never the in-flight one; and an aborted
// key leaves the eviction order, so a re-claimed key sits in it once.
func TestIdemCacheEviction(t *testing.T) {
	c := newIdemCache(4)
	claim := func(key string) *idemEntry {
		t.Helper()
		e, owner := c.begin(key)
		if !owner {
			t.Fatalf("begin(%q): not the owner", key)
		}
		return e
	}
	inflight := claim("k0") // oldest, never settled while the cache churns
	for _, k := range []string{"k1", "k2", "k3"} {
		c.finish(claim(k), http.StatusAccepted, []byte(k))
	}
	c.finish(claim("k4"), http.StatusAccepted, nil) // full: k1 goes, k0 must not
	if got := idemOrder(t, c); !slices.Equal(got, []string{"k0", "k2", "k3", "k4"}) {
		t.Fatalf("order after the first eviction = %v", got)
	}
	if e, owner := c.begin("k0"); owner || e != inflight {
		t.Fatal("the in-flight entry at the head was evicted: a duplicate became a second owner")
	}
	if e, owner := c.begin("k2"); owner || string(e.body) != "k2" {
		t.Fatal("a settled entry that was not the oldest was evicted")
	}

	// Abort: the key leaves map and order; claimed again it appears once,
	// at the tail, and evictions reach the right entry.
	c.abort(inflight)
	if got := idemOrder(t, c); !slices.Equal(got, []string{"k2", "k3", "k4"}) {
		t.Fatalf("order after the abort = %v", got)
	}
	again := claim("k0")
	c.finish(claim("k5"), http.StatusAccepted, nil) // full again: k2 goes
	c.finish(claim("k6"), http.StatusAccepted, nil) // k3 goes
	if got := idemOrder(t, c); !slices.Equal(got, []string{"k4", "k0", "k5", "k6"}) {
		t.Fatalf("order after the re-claim = %v", got)
	}
	if e, owner := c.begin("k0"); owner || e != again {
		t.Fatal("evicting behind a re-claimed key deleted the live claim")
	}

	// Every entry in flight: nothing to evict, the cache exceeds its cap
	// rather than lose a claim.
	all := newIdemCache(2)
	for _, k := range []string{"a", "b", "c"} {
		if _, owner := all.begin(k); !owner {
			t.Fatalf("begin(%q): not the owner", k)
		}
	}
	if got := idemOrder(t, all); len(got) != 3 {
		t.Fatalf("an all-in-flight cache holds %v, want all three claims", got)
	}
}

// benchmarkIdemCache times one keyed request's trip through the cache
// (begin + finish, a fresh key each time). With full set the cache starts
// at idemCacheCap settled keys, so every request evicts; without, it is
// swapped for an empty one before it can fill, so none does.
func benchmarkIdemCache(b *testing.B, full bool) {
	c := newIdemCache(idemCacheCap)
	for i := 0; full && i < idemCacheCap; i++ {
		e, _ := c.begin("warm-" + strconv.Itoa(i))
		c.finish(e, http.StatusAccepted, nil)
	}
	key := make([]byte, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !full && i%idemCacheCap == idemCacheCap-1 {
			b.StopTimer()
			c = newIdemCache(idemCacheCap)
			b.StartTimer()
		}
		key = strconv.AppendInt(append(key[:0], "bench-"...), int64(i), 10)
		e, _ := c.begin(string(key))
		c.finish(e, http.StatusAccepted, nil)
	}
}

// BenchmarkIdemCacheRoomy is the baseline row: no request evicts.
func BenchmarkIdemCacheRoomy(b *testing.B) { benchmarkIdemCache(b, false) }

// BenchmarkIdemCacheFull is the cache as it is once idemCacheCap keys have
// been seen — that is, always, on a server whose clients key every bid.
// It must stay within 2x of the roomy row (it was 10x when an eviction
// shifted the whole order slice).
func BenchmarkIdemCacheFull(b *testing.B) { benchmarkIdemCache(b, true) }

// TestHTTPOversizedBodyRefused: a request body past the handler's bound is
// refused with 413 invalid_request on every route that reads one — not
// truncated at the bound and then answered as a JSON syntax error (jobs,
// bids) or decoded without any bound at all (nodes) — and an oversized bid
// does not claim its Idempotency-Key.
func TestHTTPOversizedBodyRefused(t *testing.T) {
	srv, ex := httpFixture(t)
	spec := map[string]any{
		"id": "big", "k": 1, "seed": 4,
		"rule": map[string]any{"kind": "additive", "alpha": []float64{1, 1}},
	}
	if resp, body := postJSON(t, srv.URL+"/v1/jobs", spec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	// Valid JSON all the way through: only its size is wrong.
	pad := bytes.Repeat([]byte("x"), api.MaxBody)
	oversized := func(prefix string) []byte {
		return append(append([]byte(prefix+`,"meta":"`), pad...), `"}`...)
	}
	post := func(path, key string, body []byte) (*http.Response, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, decodeBody(t, resp)
	}
	for _, c := range []struct{ path, prefix string }{
		{"/v1/jobs", `{"id":"huge","k":1,"rule":{"kind":"additive","alpha":[1,1]}`},
		{"/v1/jobs/big/bids", `{"node_id":3,"qualities":[0.5,0.5],"payment":0.1`},
		{"/v1/nodes", `{"node_id":9`},
	} {
		resp, body := post(c.path, "oversized", oversized(c.prefix))
		if resp.StatusCode != http.StatusRequestEntityTooLarge || body["code"] != "invalid_request" {
			t.Errorf("POST %s with a %d-byte body: %d %v, want 413 invalid_request", c.path, api.MaxBody+len(c.prefix), resp.StatusCode, body)
		}
	}
	if _, ok := ex.Job("huge"); ok {
		t.Error("the oversized job spec created a job")
	}
	if _, ok := ex.Registry().Lookup(9); ok {
		t.Error("the oversized node body registered a node")
	}
	// The refused bid claimed nothing: sent again under the same key it is
	// refused again, not replayed, and the key then serves the request the
	// client meant to send.
	bids := "/v1/jobs/big/bids"
	if resp, _ := post(bids, "oversized", oversized(`{"node_id":3,"qualities":[0.5,0.5],"payment":0.1`)); resp.StatusCode != http.StatusRequestEntityTooLarge || resp.Header.Get("Idempotent-Replay") != "" {
		t.Errorf("the refused bid again: %d (replay=%q), want a fresh 413", resp.StatusCode, resp.Header.Get("Idempotent-Replay"))
	}
	resp, body := post(bids, "oversized", []byte(`{"node_id":3,"qualities":[0.5,0.5],"payment":0.1}`))
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Idempotent-Replay") != "" {
		t.Errorf("bid after the refused one: %d %v (replay=%q), want a fresh 202", resp.StatusCode, body, resp.Header.Get("Idempotent-Replay"))
	}
}

// TestHTTPRacingKeyedBidsOneEffect: 16 clients POST the same bid under one
// Idempotency-Key at once. The key admits one execution: every request
// answers 202 with the same bytes, all but the executing one are marked
// replays, and the intake holds one bid — the round scores one, and the
// node's accepted-bid counter reads one.
func TestHTTPRacingKeyedBidsOneEffect(t *testing.T) {
	const racers = 16
	srv, ex := httpFixture(t)
	if _, err := ex.CreateJob(JobSpec{ID: "race", Auction: auction.Config{Rule: testRule(t, 0), K: 1}, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		status int
		replay string
		body   []byte
	}
	answers := make([]answer, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func(a *answer) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs/race/bids",
				bytes.NewReader([]byte(`{"node_id":11,"qualities":[0.5,0.5],"payment":0.1}`)))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Idempotency-Key", "racing-bid")
			<-start
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close() //nolint:errcheck // test teardown
			a.status, a.replay = resp.StatusCode, resp.Header.Get("Idempotent-Replay")
			if a.body, err = io.ReadAll(resp.Body); err != nil {
				t.Error(err)
			}
		}(&answers[i])
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	replays := 0
	for i, a := range answers {
		if a.status != http.StatusAccepted {
			t.Errorf("racer %d: status %d %s, want 202", i, a.status, a.body)
		}
		if !bytes.Equal(a.body, answers[0].body) {
			t.Errorf("racer %d: body %s, racer 0's %s", i, a.body, answers[0].body)
		}
		if a.replay == "true" {
			replays++
		}
	}
	if replays != racers-1 {
		t.Errorf("%d answers marked Idempotent-Replay, want %d", replays, racers-1)
	}
	ro, err := ex.CloseRound("race")
	if err != nil || ro.NumBids != 1 {
		t.Errorf("close = (%d bids, %v), want 1 bid", ro.NumBids, err)
	}
	if info, ok := ex.Registry().Lookup(11); !ok {
		t.Error("node 11 was not registered by its accepted bid")
	} else if n := info.Bids(); n != 1 {
		t.Errorf("node 11: %d accepted bids, want 1", n)
	}
}

// TestKeyedRetryAfterRestart pins what a keyed POST retried after a crash
// gets. Keys are process-local, so the reopened replica has forgotten
// both; nothing new is stored to remember them.
//   - The job POST finds its durable job: 400 invalid_request ("already
//     exists"), not a replay of the 201.
//   - A bid whose round was still open was lost with that round, so the
//     retry is its one effect: 202 for the same round, which then scores
//     one bid.
//   - A bid whose round closed durably keeps its effect there, and the
//     retry is a new bid in the next round.
func TestKeyedRetryAfterRestart(t *testing.T) {
	jobBody := map[string]any{"id": "retry", "k": 1, "rule": map[string]any{"kind": "additive", "alpha": []float64{1, 1}}}
	bidBody := map[string]any{"node_id": 4, "qualities": []float64{0.5, 0.5}, "payment": 0.1}
	for _, c := range []struct {
		name        string
		closeBefore bool
		retryRound  float64
	}{{"round open", false, 1}, {"round closed", true, 2}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			ex, err := Open(dir, Options{SnapshotBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(NewHandler(ex))
			if resp, body := postJSONKeyed(t, srv.URL+"/v1/jobs", "job-key", jobBody); resp.StatusCode != http.StatusCreated {
				t.Fatalf("create: %d %v", resp.StatusCode, body)
			}
			if resp, body := postJSONKeyed(t, srv.URL+"/v1/jobs/retry/bids", "bid-key", bidBody); resp.StatusCode != http.StatusAccepted || body["round"] != 1.0 {
				t.Fatalf("bid: %d %v, want 202 for round 1", resp.StatusCode, body)
			}
			if c.closeBefore {
				if _, err := ex.CloseRound("retry"); err != nil {
					t.Fatal(err)
				}
			}
			if err := ex.Sync(); err != nil {
				t.Fatal(err)
			}
			crashDir := cloneDataDir(t, dir) // kill -9 after the last sync
			srv.Close()
			ex.Close() //nolint:errcheck // the clone is what restarts

			ex, err = Open(crashDir, Options{SnapshotBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close() //nolint:errcheck // test teardown
			srv = httptest.NewServer(NewHandler(ex))
			defer srv.Close()
			resp, body := postJSONKeyed(t, srv.URL+"/v1/jobs", "job-key", jobBody)
			if resp.StatusCode != http.StatusBadRequest || body["code"] != "invalid_request" || resp.Header.Get("Idempotent-Replay") != "" {
				t.Errorf("job POST retried: %d %v (replay=%q), want a fresh 400 invalid_request", resp.StatusCode, body, resp.Header.Get("Idempotent-Replay"))
			}
			resp, body = postJSONKeyed(t, srv.URL+"/v1/jobs/retry/bids", "bid-key", bidBody)
			if resp.StatusCode != http.StatusAccepted || body["round"] != c.retryRound || resp.Header.Get("Idempotent-Replay") != "" {
				t.Errorf("bid POST retried: %d %v (replay=%q), want a fresh 202 for round %v", resp.StatusCode, body, resp.Header.Get("Idempotent-Replay"), c.retryRound)
			}
			ro, err := ex.CloseRound("retry")
			if err != nil || ro.Round != int(c.retryRound) || ro.NumBids != 1 {
				t.Errorf("close after the retry = (round %d, %d bids, %v), want round %v with 1 bid", ro.Round, ro.NumBids, err, c.retryRound)
			}
			if c.closeBefore {
				job, _ := ex.Job("retry")
				if first, err := job.Outcome(1); err != nil || first.NumBids != 1 {
					t.Errorf("round 1 after the restart = (%d bids, %v), want the original bid kept", first.NumBids, err)
				}
			}
		})
	}
}
