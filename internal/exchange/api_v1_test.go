package exchange

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
)

// postJSONKeyed is postJSON with an Idempotency-Key header.
func postJSONKeyed(t *testing.T, url, key string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

// TestV1ErrorEnvelope pins the uniform error shape: every error response is
// {code, message} JSON with the right Content-Type.
func TestV1ErrorEnvelope(t *testing.T) {
	srv, _ := httpFixture(t)
	resp, err := http.Get(srv.URL + "/v1/jobs/ghost")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	body := decodeBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	if body["code"] != "unknown_job" || body["message"] == "" {
		t.Errorf("envelope = %v, want code unknown_job with message", body)
	}
	// Unrouted paths answer the JSON envelope too, not the mux's text 404.
	resp, err = http.Get(srv.URL + "/v2/nothing")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("unrouted Content-Type = %q", ct)
	}
	if body := decodeBody(t, resp); body["code"] != "not_found" {
		t.Errorf("unrouted envelope = %v", body)
	}
	// A wrong method on a registered path is also the envelope (the mux's
	// own 405 is rewritten), with the Allow header preserved.
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/jobs status = %d, want 405", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("405 Content-Type = %q, want application/json", ct)
	}
	if resp.Header.Get("Allow") == "" {
		t.Error("405 lost the Allow header")
	}
	if body := decodeBody(t, resp); body["code"] != "method_not_allowed" {
		t.Errorf("405 envelope = %v", body)
	}
}

// TestStatsRoutesOnBareHandler: without the analytics wrapper in front, a
// stats route is not served (404) but still known: a wrong method on it is
// 405 with Allow: GET.
func TestStatsRoutesOnBareHandler(t *testing.T) {
	srv, _ := httpFixture(t)
	for _, c := range []struct {
		method string
		status int
		code   string
	}{
		{http.MethodGet, http.StatusNotFound, "not_found"},
		{http.MethodPost, http.StatusMethodNotAllowed, "method_not_allowed"},
	} {
		req, err := http.NewRequest(c.method, srv.URL+"/v1/jobs/x/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		allow := resp.Header.Get("Allow")
		if body := decodeBody(t, resp); resp.StatusCode != c.status || body["code"] != c.code {
			t.Errorf("%s /v1/jobs/x/stats = %d %v, want %d %s", c.method, resp.StatusCode, body, c.status, c.code)
		}
		if c.status == http.StatusMethodNotAllowed && allow != "GET" {
			t.Errorf("%s /v1/jobs/x/stats Allow = %q, want GET", c.method, allow)
		}
	}
}

// TestCloseRoundStatusRegression pins the 404-vs-409 split on close: a job
// the exchange hosts but whose lifecycle conflicts (already closed, below
// quorum) answers 409 with a code naming the conflict; only a job the
// exchange does not host answers 404.
func TestCloseRoundStatusRegression(t *testing.T) {
	srv, ex := httpFixture(t)
	if resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id": "reg", "k": 1,
		"rule": map[string]any{"kind": "additive", "alpha": []float64{1, 1}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}

	// Below quorum (no bids): 409 below_quorum, round keeps collecting.
	resp, body := postJSON(t, srv.URL+"/v1/jobs/reg/close", nil)
	if resp.StatusCode != http.StatusConflict || body["code"] != "below_quorum" {
		t.Fatalf("empty close: status %d body %v, want 409 below_quorum", resp.StatusCode, body)
	}

	// Closed job: 409 job_closed — the job exists, the operation conflicts.
	job, _ := ex.Job("reg")
	job.Close()
	resp, body = postJSON(t, srv.URL+"/v1/jobs/reg/close", nil)
	if resp.StatusCode != http.StatusConflict || body["code"] != "job_closed" {
		t.Fatalf("closed-job close: status %d body %v, want 409 job_closed", resp.StatusCode, body)
	}

	// Unknown job: 404 unknown_job.
	resp, body = postJSON(t, srv.URL+"/v1/jobs/ghost/close", nil)
	if resp.StatusCode != http.StatusNotFound || body["code"] != "unknown_job" {
		t.Fatalf("unknown close: status %d body %v, want 404 unknown_job", resp.StatusCode, body)
	}
}

// TestLegacyPathsRemoved: the pre-v1 unversioned aliases were deleted after
// their deprecation window. Every former alias now answers 404 with the v1
// JSON envelope (not the mux's text/plain), and carries no deprecation
// headers — there is nothing left to deprecate.
func TestLegacyPathsRemoved(t *testing.T) {
	srv, _ := httpFixture(t)
	if resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id": "alias", "k": 1, "seed": 9,
		"rule": map[string]any{"kind": "additive", "alpha": []float64{1, 1}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	driveRound(t, srv.URL, "alias", 2, 1)

	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/jobs"},
		{http.MethodGet, "/jobs"},
		{http.MethodGet, "/jobs/alias"},
		{http.MethodGet, "/jobs/alias/outcome?round=1"},
		{http.MethodPost, "/jobs/alias/bids"},
		{http.MethodPost, "/jobs/alias/close"},
		{http.MethodPost, "/nodes"},
		{http.MethodGet, "/metrics"},
	} {
		req, err := http.NewRequest(probe.method, srv.URL+probe.path, bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s status = %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s Content-Type = %q, want application/json", probe.method, probe.path, ct)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Errorf("%s %s still carries a Deprecation header", probe.method, probe.path)
		}
		if body := decodeBody(t, resp); body["code"] != "not_found" || body["message"] == "" {
			t.Errorf("%s %s envelope = %v, want code not_found with message", probe.method, probe.path, body)
		}
	}

	// The /v1 twin still serves.
	resp, err := http.Get(srv.URL + "/v1/jobs/alias/outcome?round=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // read
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("v1 outcome after alias removal: status %d body %q", resp.StatusCode, body)
	}
}

// TestV1JobsPagination walks GET /v1/jobs with a page size smaller than the
// job count.
func TestV1JobsPagination(t *testing.T) {
	srv, _ := httpFixture(t)
	for i := 0; i < 5; i++ {
		if resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
			"id": fmt.Sprintf("page-%d", i), "k": 1,
			"rule": map[string]any{"kind": "additive", "alpha": []float64{1}},
		}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: %d %v", i, resp.StatusCode, body)
		}
	}
	var ids []string
	cursor := ""
	pages := 0
	for {
		url := srv.URL + "/v1/jobs?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, body := getJSON(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list: %d %v", resp.StatusCode, body)
		}
		pages++
		for _, j := range body["jobs"].([]any) {
			ids = append(ids, j.(map[string]any)["id"].(string))
		}
		nc, _ := body["next_cursor"].(string)
		if nc == "" {
			break
		}
		cursor = nc
	}
	if pages != 3 || len(ids) != 5 {
		t.Fatalf("pages = %d ids = %v, want 3 pages / 5 ids", pages, ids)
	}
	for i, id := range ids {
		if want := fmt.Sprintf("page-%d", i); id != want {
			t.Errorf("ids[%d] = %q, want %q (lexical order)", i, id, want)
		}
	}
}

// TestV1OutcomesPagination walks GET /v1/jobs/{id}/outcomes by cursor.
func TestV1OutcomesPagination(t *testing.T) {
	srv, _ := httpFixture(t)
	if resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id": "hist2", "k": 1, "seed": 2,
		"rule": map[string]any{"kind": "additive", "alpha": []float64{1, 1}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	for round := 1; round <= 5; round++ {
		driveRound(t, srv.URL, "hist2", 2, round)
	}
	var rounds []int
	cursor := 0
	for {
		resp, body := getJSON(t, fmt.Sprintf("%s/v1/jobs/hist2/outcomes?limit=2&cursor=%d", srv.URL, cursor))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("outcomes: %d %v", resp.StatusCode, body)
		}
		outs := body["outcomes"].([]any)
		for _, o := range outs {
			om := o.(map[string]any)
			rounds = append(rounds, int(om["round"].(float64)))
			if om["winners"] == nil {
				t.Errorf("round %v listing has no winners", om["round"])
			}
		}
		nc, _ := body["next_cursor"].(string)
		if nc == "" {
			break
		}
		cursor = rounds[len(rounds)-1]
	}
	if len(rounds) != 5 {
		t.Fatalf("rounds = %v, want 1..5", rounds)
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("rounds = %v, want contiguous 1..5", rounds)
		}
	}
	// A cursor past the history is an empty page, not an error.
	resp, body := getJSON(t, srv.URL+"/v1/jobs/hist2/outcomes?cursor=99")
	if resp.StatusCode != http.StatusOK || len(body["outcomes"].([]any)) != 0 {
		t.Errorf("past-end page: %d %v", resp.StatusCode, body)
	}
}

// TestV1IdempotencyReplay pins the Idempotency-Key contract on job creation
// and bid submission: the second request with the same key replays the
// recorded response byte-for-byte instead of conflicting.
func TestV1IdempotencyReplay(t *testing.T) {
	srv, _ := httpFixture(t)
	spec := map[string]any{
		"id": "idem", "k": 1, "seed": 4,
		"rule": map[string]any{"kind": "additive", "alpha": []float64{1, 1}},
	}
	resp1, body1 := postJSONKeyed(t, srv.URL+"/v1/jobs", "create-1", spec)
	if resp1.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp1.StatusCode, body1)
	}
	resp2, body2 := postJSONKeyed(t, srv.URL+"/v1/jobs", "create-1", spec)
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("replayed create: %d %v, want original 201", resp2.StatusCode, body2)
	}
	if resp2.Header.Get("Idempotent-Replay") != "true" {
		t.Error("replayed create missing Idempotent-Replay header")
	}
	if fmt.Sprint(body1) != fmt.Sprint(body2) {
		t.Errorf("replayed body differs: %v vs %v", body1, body2)
	}
	// Without the header, the duplicate ID conflicts as before.
	resp3, body3 := postJSON(t, srv.URL+"/v1/jobs", spec)
	if resp3.StatusCode != http.StatusBadRequest && resp3.StatusCode != http.StatusConflict {
		t.Fatalf("unkeyed duplicate: %d %v", resp3.StatusCode, body3)
	}
	// The same key with a *different* payload must not replay the old
	// response — the fingerprinted key misses and the request runs into the
	// genuine duplicate-ID failure.
	other := map[string]any{
		"id": "idem", "k": 2, "seed": 5,
		"rule": map[string]any{"kind": "additive", "alpha": []float64{1, 1}},
	}
	resp4, body4 := postJSONKeyed(t, srv.URL+"/v1/jobs", "create-1", other)
	if resp4.Header.Get("Idempotent-Replay") == "true" {
		t.Fatal("reused key with a different payload replayed the old response")
	}
	if resp4.StatusCode == http.StatusCreated {
		t.Fatalf("mismatched re-create: %d %v, want a failure", resp4.StatusCode, body4)
	}

	// Bid: same key replays the acceptance; a fresh key is a duplicate bid.
	bid := map[string]any{"node_id": 7, "qualities": []float64{0.5, 0.5}, "payment": 0.1}
	respA, bodyA := postJSONKeyed(t, srv.URL+"/v1/jobs/idem/bids", "bid-1", bid)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("bid: %d %v", respA.StatusCode, bodyA)
	}
	respB, bodyB := postJSONKeyed(t, srv.URL+"/v1/jobs/idem/bids", "bid-1", bid)
	if respB.StatusCode != http.StatusAccepted || fmt.Sprint(bodyA) != fmt.Sprint(bodyB) {
		t.Fatalf("replayed bid: %d %v, want replay of %v", respB.StatusCode, bodyB, bodyA)
	}
	respC, bodyC := postJSONKeyed(t, srv.URL+"/v1/jobs/idem/bids", "bid-2", bid)
	if respC.StatusCode != http.StatusConflict || bodyC["code"] != "duplicate_bid" {
		t.Fatalf("fresh-key duplicate: %d %v, want 409 duplicate_bid", respC.StatusCode, bodyC)
	}
}
