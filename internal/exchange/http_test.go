package exchange

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fmore/internal/auction"
	"fmore/internal/wal"
	"fmore/pkg/api"
)

// httpFixture spins up the JSON front end over a fresh exchange.
func httpFixture(t *testing.T) (*httptest.Server, *Exchange) {
	t.Helper()
	ex := New(Options{})
	srv := httptest.NewServer(NewHandler(ex))
	t.Cleanup(func() {
		srv.Close()
		ex.Close()
	})
	return srv, ex
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close() //nolint:errcheck // test teardown
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return m
}

func TestHTTPJobLifecycle(t *testing.T) {
	srv, _ := httpFixture(t)

	// Create a manual-mode job.
	resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id":   "cv-task",
		"rule": map[string]any{"kind": "additive", "alpha": []float64{0.5, 0.5}},
		"k":    2,
		"seed": 17,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create job: status %d, body %v", resp.StatusCode, body)
	}
	if body["id"] != "cv-task" || body["state"] != "collecting" {
		t.Fatalf("create job body: %v", body)
	}

	// Submit five bids.
	for i := 0; i < 5; i++ {
		resp, body := postJSON(t, srv.URL+"/v1/jobs/cv-task/bids", map[string]any{
			"node_id":   i,
			"qualities": []float64{0.2 * float64(i+1), 0.9 - 0.1*float64(i)},
			"payment":   0.1,
			"meta":      fmt.Sprintf("edge-%d", i),
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("bid %d: status %d, body %v", i, resp.StatusCode, body)
		}
	}

	// A duplicate bid conflicts.
	resp, _ = postJSON(t, srv.URL+"/v1/jobs/cv-task/bids", map[string]any{
		"node_id": 0, "qualities": []float64{0.1, 0.1}, "payment": 0.1,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate bid: status %d, want 409", resp.StatusCode)
	}

	// Close the round and read the outcome both ways.
	resp, closeBody := postJSON(t, srv.URL+"/v1/jobs/cv-task/close", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d, body %v", resp.StatusCode, closeBody)
	}
	if n := closeBody["num_bids"].(float64); n != 5 {
		t.Errorf("close outcome num_bids = %v, want 5", n)
	}
	resp, outBody := getJSON(t, srv.URL+"/v1/jobs/cv-task/outcome?round=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outcome: status %d, body %v", resp.StatusCode, outBody)
	}
	// ?wait=1 with no round returns the latest completed round immediately —
	// it must not block on the now-collecting round 2.
	resp, waitBody := getJSON(t, srv.URL+"/v1/jobs/cv-task/outcome?wait=1")
	if resp.StatusCode != http.StatusOK || waitBody["round"].(float64) != 1 {
		t.Fatalf("wait latest: status %d, body %v", resp.StatusCode, waitBody)
	}
	winners := outBody["winners"].([]any)
	if len(winners) != 2 {
		t.Fatalf("outcome winners = %d, want 2", len(winners))
	}

	// Status and job listing reflect the completed round.
	_, status := getJSON(t, srv.URL+"/v1/jobs/cv-task")
	if status["round"].(float64) != 2 {
		t.Errorf("job round = %v, want 2", status["round"])
	}
	_, list := getJSON(t, srv.URL+"/v1/jobs")
	if jobs := list["jobs"].([]any); len(jobs) != 1 || jobs[0].(map[string]any)["id"] != "cv-task" {
		t.Errorf("job list = %v", jobs)
	}

	// DELETE evicts the job: the listing empties and further reads 404.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/cv-task", nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if decodeBody(t, delResp); delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete job: status %d", delResp.StatusCode)
	}
	resp, _ = getJSON(t, srv.URL+"/v1/jobs/cv-task")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status after delete: %d, want 404", resp.StatusCode)
	}
	_, list = getJSON(t, srv.URL+"/v1/jobs")
	if jobs := list["jobs"].([]any); len(jobs) != 0 {
		t.Errorf("job list after delete = %v, want empty", jobs)
	}

	// Metrics report the traffic.
	_, metrics := getJSON(t, srv.URL+"/v1/metrics")
	if metrics["rounds_total"].(float64) != 1 {
		t.Errorf("rounds_total = %v, want 1", metrics["rounds_total"])
	}
	if metrics["bids_accepted"].(float64) != 5 {
		t.Errorf("bids_accepted = %v, want 5", metrics["bids_accepted"])
	}
	if metrics["nodes_known"].(float64) != 5 {
		t.Errorf("nodes_known = %v, want 5", metrics["nodes_known"])
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	srv, ex := httpFixture(t)

	resp, _ := getJSON(t, srv.URL+"/v1/jobs/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"rule": map[string]any{"kind": "martian", "alpha": []float64{1}},
		"k":    1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad rule kind status: %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/nodes/abc/blacklist", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad node id status: %d, want 400", resp.StatusCode)
	}
	// A pending round is "not there yet", not a malformed request.
	_, createBody := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"rule": map[string]any{"kind": "additive", "alpha": []float64{1, 1}},
		"k":    1,
	})
	jobID := createBody["id"].(string)
	resp, _ = getJSON(t, srv.URL+"/v1/jobs/"+jobID+"/outcome?round=99")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pending round status: %d, want 404", resp.StatusCode)
	}
	// A rejected bid must not register its node, even with meta attached.
	resp, _ = postJSON(t, srv.URL+"/v1/jobs/"+jobID+"/bids", map[string]any{
		"node_id": 77, "qualities": []float64{0.5}, "payment": 0.1, "meta": "edge-77",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong-dims bid status: %d, want 400", resp.StatusCode)
	}
	if _, ok := ex.Registry().Lookup(77); ok {
		t.Error("rejected bid registered node 77 via meta")
	}
}

// TestHTTPUnknownSpecKinds pins how POST /v1/jobs refuses a spec naming a
// rule, cost, distribution or solver the auction package does not build:
// 400 invalid_request, with the message prefixed by the package that owns
// the wire specs ("auction:", not the TCP harness's package name).
func TestHTTPUnknownSpecKinds(t *testing.T) {
	srv, _ := httpFixture(t)
	rule := map[string]any{"kind": "additive", "alpha": []float64{0.5, 0.5}}
	eq := func(cost, theta, solver string) map[string]any {
		return map[string]any{
			"cost":  map[string]any{"kind": cost, "beta": []float64{0.5, 0.5}},
			"theta": map[string]any{"kind": theta, "lo": 1, "hi": 2},
			"n":     6, "q_lo": []float64{0, 0}, "q_hi": []float64{1, 1},
			"solver": solver,
		}
	}
	for name, tc := range map[string]struct {
		body map[string]any
		want string
	}{
		"rule":   {map[string]any{"k": 2, "rule": map[string]any{"kind": "martian", "alpha": []float64{1}}}, `auction: unknown rule kind "martian"`},
		"cost":   {map[string]any{"k": 2, "rule": rule, "equilibrium": eq("cubic", "uniform", "")}, `auction: unknown cost kind "cubic"`},
		"dist":   {map[string]any{"k": 2, "rule": rule, "equilibrium": eq("linear", "pareto", "")}, `auction: unknown distribution kind "pareto"`},
		"solver": {map[string]any{"k": 2, "rule": rule, "equilibrium": eq("linear", "uniform", "simplex")}, `auction: unknown solver "simplex"`},
	} {
		resp, body := postJSON(t, srv.URL+"/v1/jobs", tc.body)
		if resp.StatusCode != http.StatusBadRequest || body["code"] != "invalid_request" {
			t.Errorf("%s: status %d code %v, want 400 invalid_request", name, resp.StatusCode, body["code"])
		}
		if msg, _ := body["message"].(string); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: message %q, want it to contain %q", name, msg, tc.want)
		}
	}
}

// TestHTTPMetaDoesNotBypassRegistration guards the -require-registration
// gate: attaching meta to a bid must not implicitly register the node.
func TestHTTPMetaDoesNotBypassRegistration(t *testing.T) {
	ex := New(Options{RequireRegistration: true})
	srv := httptest.NewServer(NewHandler(ex))
	t.Cleanup(func() {
		srv.Close()
		ex.Close()
	})
	_, createBody := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id":   "gated",
		"rule": map[string]any{"kind": "additive", "alpha": []float64{1, 1}},
		"k":    1,
	})
	if createBody["id"] != "gated" {
		t.Fatalf("create job: %v", createBody)
	}
	resp, _ := postJSON(t, srv.URL+"/v1/jobs/gated/bids", map[string]any{
		"node_id": 5, "qualities": []float64{0.5, 0.5}, "payment": 0.1,
		"meta": "sneaky-self-registration",
	})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("bid with meta on gated exchange: status %d, want 403", resp.StatusCode)
	}
	if _, ok := ex.Registry().Lookup(5); ok {
		t.Error("meta on a rejected bid registered the node anyway")
	}
}

// TestHTTPKeepOutcomesExposed guards the keep_outcomes plumbing: the field
// must round-trip through POST /jobs, surface in GET /jobs/{id} alongside
// the window behavior, and actually bound the retained history.
func TestHTTPKeepOutcomesExposed(t *testing.T) {
	srv, _ := httpFixture(t)
	resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id":            "hist",
		"rule":          map[string]any{"kind": "additive", "alpha": []float64{1, 1}},
		"k":             1,
		"min_bids":      2,
		"keep_outcomes": 2,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	if body["keep_outcomes"].(float64) != 2 {
		t.Fatalf("create response keep_outcomes = %v, want 2", body["keep_outcomes"])
	}
	_, view := getJSON(t, srv.URL+"/v1/jobs/hist")
	if view["keep_outcomes"].(float64) != 2 || view["min_bids"].(float64) != 2 || view["bid_window_ms"].(float64) != 0 {
		t.Fatalf("job view = %v, want keep_outcomes 2, min_bids 2, bid_window_ms 0", view)
	}
	for round := 1; round <= 3; round++ {
		for node := 0; node < 2; node++ {
			if resp, body := postJSON(t, srv.URL+"/v1/jobs/hist/bids", map[string]any{
				"node_id": node, "qualities": []float64{0.4, 0.4 + 0.1*float64(round)}, "payment": 0.1,
			}); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("round %d bid: %d %v", round, resp.StatusCode, body)
			}
		}
		if resp, body := postJSON(t, srv.URL+"/v1/jobs/hist/close", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d close: %d %v", round, resp.StatusCode, body)
		}
	}
	// With keep_outcomes=2, round 1 has aged out (410) and rounds 2-3 serve.
	if resp, _ := getJSON(t, srv.URL+"/v1/jobs/hist/outcome?round=1"); resp.StatusCode != http.StatusGone {
		t.Errorf("evicted round status: %d, want 410", resp.StatusCode)
	}
	if resp, _ := getJSON(t, srv.URL+"/v1/jobs/hist/outcome?round=3"); resp.StatusCode != http.StatusOK {
		t.Errorf("retained round status: %d, want 200", resp.StatusCode)
	}
	// Unset keep_outcomes falls back to the server default.
	_, defBody := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"rule": map[string]any{"kind": "additive", "alpha": []float64{1, 1}},
		"k":    1,
	})
	if defBody["keep_outcomes"].(float64) != 128 {
		t.Errorf("default keep_outcomes = %v, want 128", defBody["keep_outcomes"])
	}
}

func TestHTTPBlacklistFlow(t *testing.T) {
	srv, _ := httpFixture(t)
	if _, body := postJSON(t, srv.URL+"/v1/nodes", map[string]any{"node_id": 3, "meta": "edge-3"}); body["node_id"].(float64) != 3 {
		t.Fatalf("register node body: %v", body)
	}
	resp, _ := postJSON(t, srv.URL+"/v1/nodes/3/blacklist", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blacklist status: %d", resp.StatusCode)
	}
	_, createBody := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"rule": map[string]any{"kind": "additive", "alpha": []float64{1, 1}},
		"k":    1,
	})
	jobID := createBody["id"].(string)
	resp, _ = postJSON(t, srv.URL+"/v1/jobs/"+jobID+"/bids", map[string]any{
		"node_id": 3, "qualities": []float64{0.5, 0.5}, "payment": 0.1,
	})
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("blacklisted bid status: %d, want 403", resp.StatusCode)
	}
}

// TestHTTPRegisterNodeRefusesTrailingBytes: a registration body is exactly
// one JSON value, as job specs and bids are. Junk or a second value after the
// first is a 400 invalid_request that registers nobody and logs nothing.
func TestHTTPRegisterNodeRefusesTrailingBytes(t *testing.T) {
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(ex))
	for _, body := range []string{`{"node_id":7} junk`, `{"node_id":8}{"node_id":9}`} {
		resp, err := http.Post(srv.URL+"/v1/nodes", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got := decodeBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest || got["code"] != "invalid_request" {
			t.Errorf("POST /v1/nodes %s: status %d, body %v; want 400 invalid_request", body, resp.StatusCode, got)
		}
	}
	if n := ex.Registry().Len(); n != 0 {
		t.Errorf("registry holds %d nodes after two refused registrations, want 0", n)
	}
	srv.Close()
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}

	log, rec, err := wal.Open(dir, wal.Options{SegmentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close() //nolint:errcheck // read-only inspection
	for _, seg := range rec.Segments {
		for _, raw := range seg.Records {
			var r walRecord
			if err := json.Unmarshal(raw, &r); err != nil {
				t.Fatal(err)
			}
			if r.Kind == recNode {
				t.Errorf("the log holds a node record for a refused registration: %s", raw)
			}
		}
	}
}

// TestHTTPRoundBodiesWholeOrRefused: a round body is written whole — a
// 64-bid round's, past net/http's 2 KB pre-chunking buffer, still arrives
// with its Content-Length — and a round that does not encode (two winners'
// payments of 1e308 sum to +Inf) answers 500 internal_error with
// encoding/json's error rather than a 200 with an empty body; its
// round_closed frame is skipped.
func TestHTTPRoundBodiesWholeOrRefused(t *testing.T) {
	srv, ex := httpFixture(t)
	fetch := func(method, path string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck // read below
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	for _, spec := range []JobSpec{
		{ID: "whole", Auction: auction.Config{Rule: testRule(t, 0), K: 8}},
		{ID: "inf", Auction: auction.Config{Rule: testRule(t, 0), K: 2}},
	} {
		if _, err := ex.CreateJob(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range testBids(0, 1, 64) {
		if _, err := ex.SubmitBid("whole", b); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{1, 2} {
		if _, err := ex.SubmitBid("inf", auction.Bid{NodeID: id, Qualities: []float64{1.4e308, 1.4e308}, Payment: 1e308}); err != nil {
			t.Fatal(err)
		}
	}

	// The close first, then two reads of the round it closed.
	requests := [][2]string{{http.MethodPost, "/close"}, {http.MethodGet, "/outcome?round=1"}, {http.MethodGet, "/outcomes"}}
	for _, req := range requests {
		resp, body := fetch(req[0], "/v1/jobs/whole"+req[1])
		if resp.StatusCode != http.StatusOK || len(body) <= 2048 || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s %s: status %d, %d bytes, Content-Length %d, Transfer-Encoding %v; want 200 with the length of a body over 2 KB",
				req[0], req[1], resp.StatusCode, len(body), resp.ContentLength, resp.TransferEncoding)
		}
	}
	const refusal = `{"code":"internal_error","message":"json: unsupported value: +Inf"}` + "\n"
	for _, req := range requests {
		if resp, body := fetch(req[0], "/v1/jobs/inf"+req[1]); resp.StatusCode != http.StatusInternalServerError || string(body) != refusal {
			t.Errorf("%s %s: %d %q, want 500 %q", req[0], req[1], resp.StatusCode, body, refusal)
		}
	}
	stream, stop := pipeStream(t, NewHandler(ex), "/v1/jobs/inf/events")
	defer stop()
	if frame, err := readFrame(stream); err != nil || frame != `event: round_open`+"\n"+`data: {"job":"inf","round":2}` {
		t.Errorf("first frame after an unencodable round = %q (%v), want round 2's round_open", frame, err)
	}
}

// TestHTTPOverflowingBidRefused: qualities and payments that are each
// finite can still overflow a round record. One bid can score +Inf —
// 1.7e308 + 1.7e308 under additive [1,1], 1e200 · 1e200 under Cobb-Douglas
// [1,1] — and at K = 2 two finite scores of 1.7e308 (a payment of
// −1.7e308, or qualities 8e307) sum to an aggregator profit of +Inf. Each
// such bid is refused with 400 invalid_request and counted in
// bids_rejected. Accepted, its round record would not encode and the
// durable exchange would answer every later write 503 durability_lost;
// refused, an ordinary round of K bids then closes and /v1/healthz stays
// 200.
func TestHTTPOverflowingBidRefused(t *testing.T) {
	ex, err := Open(t.TempDir(), Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(ex))
	t.Cleanup(func() {
		srv.Close()
		ex.Close() //nolint:errcheck // test teardown
	})
	additive := map[string]any{"kind": "additive", "alpha": []float64{1, 1}}
	type bid struct{ q, p float64 }
	rejected := int64(0)
	for _, c := range []struct {
		id   string
		rule map[string]any
		k    int
		bids []bid // refused, each from its own node
	}{
		{"additive", additive, 1, []bid{{1.7e308, 0.1}}},
		{"cobb-douglas", map[string]any{"kind": "cobb-douglas", "alpha": []float64{1, 1}, "scale": 1}, 1, []bid{{1e200, 0.1}}},
		{"profit-by-payment", additive, 2, []bid{{0.5, -1.7e308}, {0.5, -1.7e308}}},
		{"profit-by-quality", additive, 2, []bid{{8e307, 0.1}, {8e307, 0.1}}},
	} {
		job := srv.URL + "/v1/jobs/" + c.id
		if resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{"id": c.id, "k": c.k, "rule": c.rule}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %v", c.id, resp.StatusCode, body)
		}
		for n, b := range c.bids {
			resp, body := postJSON(t, job+"/bids", map[string]any{"node_id": 1 + n, "qualities": []float64{b.q, b.q}, "payment": b.p})
			if resp.StatusCode != http.StatusBadRequest || body["code"] != "invalid_request" {
				t.Errorf("%s: bid %v: %d %v, want 400 invalid_request", c.id, b, resp.StatusCode, body)
			}
			rejected++
		}
		if got := ex.Metrics().BidsRejected; got != rejected {
			t.Errorf("%s: bids_rejected = %d, want %d", c.id, got, rejected)
		}
		for n := range c.k {
			if resp, body := postJSON(t, job+"/bids", map[string]any{"node_id": 101 + n, "qualities": []float64{0.5, 0.5}, "payment": 0.1}); resp.StatusCode != http.StatusAccepted {
				t.Errorf("%s: ordinary bid: %d %v, want 202", c.id, resp.StatusCode, body)
			}
		}
		if resp, body := postJSON(t, job+"/close", nil); resp.StatusCode != http.StatusOK || body["num_bids"] != float64(c.k) {
			t.Errorf("%s: close: %d %v, want 200 with %d bids", c.id, resp.StatusCode, body, c.k)
		}
	}
	if resp, body := getJSON(t, srv.URL+"/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after the refused bids: %d %v, want 200", resp.StatusCode, body)
	}
}

// FuzzCreateJob feeds arbitrary POST /v1/jobs bodies through NewHandler.
// No body panics or answers 5xx; a 201 is an api.Job that echoes the
// request's k and bid_window_ms; any other answer is the api.Error
// envelope. Seeds: the rule families, the jobs of
// TestHTTPOverflowingBidRefused, and a bid_window_ms whose product with
// time.Millisecond overflowed into a manual-mode job echoing -1.
func FuzzCreateJob(f *testing.F) {
	for _, seed := range []string{
		`{"id":"add","k":1,"rule":{"kind":"additive","alpha":[1,1]}}`,
		`{"id":"cd","k":1,"rule":{"kind":"cobb-douglas","alpha":[1,1],"scale":1}}`,
		`{"k":2,"bid_window_ms":9223372036854775807,"rule":{"kind":"additive","alpha":[0.5,0.5]}}`,
		`{"k":2,"bid_window_ms":-1,"rule":{"kind":"additive","alpha":[0.5,0.5]}}`,
		`{"k":3,"bid_window_ms":300,"payment":"second-price","psi":0.5,"min_bids":2,"max_rounds":4,"keep_outcomes":8,"rule":{"kind":"leontief","alpha":[1,2]}}`,
		`{"k":2,"rule":{"kind":"additive","alpha":[0.5,0.5]},"equilibrium":{"cost":{"kind":"linear","beta":[0.5,0.5]},"theta":{"kind":"uniform","lo":1,"hi":2},"n":6,"q_lo":[0,0],"q_hi":[1,1]}}`,
		`{"k":0,"rule":{"kind":"additive","alpha":[1]}}`,
		`{"k":1,"payment":"third-price","rule":{"kind":"additive","alpha":[1]}}`,
		`{"k":1,"rule":{"kind":"additive","alpha":[1]}} trailing`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	ex := New(Options{})
	defer ex.Close() //nolint:errcheck // test teardown
	h := NewHandler(ex)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%q: %d %s", body, rec.Code, rec.Body)
		}
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if rec.Code != http.StatusCreated {
			var env api.Error
			if err := dec.Decode(&env); err != nil || env.Code == "" || env.Message == "" {
				t.Fatalf("%q: %d answered outside the error envelope (%v)", body, rec.Code, err)
			}
			return
		}
		var req api.JobRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%q: 201 for a body that does not decode: %v", body, err)
		}
		var job api.Job
		if err := dec.Decode(&job); err != nil {
			t.Fatalf("%q: 201 body is not an api.Job: %v", body, err)
		}
		if job.K != req.K || job.BidWindowMS != req.BidWindowMS {
			t.Fatalf("%q: created k=%d bid_window_ms=%d, asked for k=%d bid_window_ms=%d", body, job.K, job.BidWindowMS, req.K, req.BidWindowMS)
		}
		// The fuzzer reuses IDs; a removed job frees its own.
		if err := ex.RemoveJob(job.ID); err != nil {
			t.Fatal(err)
		}
	})
}
