package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"fmore/internal/fault"
	"fmore/internal/partition"
	"fmore/pkg/api"
)

// fpTransport injects transport-level failures (connection errors, latency)
// into every SDK request — event-stream connects included, since they share
// do's send helper — exercising the client's retry/backoff/budget
// machinery without a flaky network. Enable via
// FMORE_FAILPOINTS="sdk/transport=eio@p0.1" in a process that calls
// fault.EnableFromEnv, or fault.Enable in tests.
var fpTransport = fault.New("sdk/transport")

// Client is a typed client for the exchange's /v1 API. All methods are safe
// for concurrent use; the underlying http.Client reuses connections.
type Client struct {
	base string
	hc   *http.Client
	// The retry schedule, fixed by New (the package's tests shorten it):
	// an idempotent request is retried up to retries times after a
	// transient failure (network error or 502/503/504); attempt n sleeps
	// roughly backoff·2ⁿ with ±50% jitter, capped at 5s, unless the server
	// hints a delay. retryBudget caps the total time one call may spend
	// sleeping between attempts (hints and computed backoff alike); once
	// the next sleep would exceed it the call fails with the last error, so
	// a degraded cluster — every replica answering 503 durability_lost with
	// a retry hint — fails fast rather than backing off for every retry.
	retries     int
	backoff     time.Duration
	retryBudget time.Duration
	// routes holds the cluster partition map once EnableRouting (or a
	// re-aim) fetched one; with no map every request goes to base.
	routes partition.Routes
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, proxies, test
// doubles). The default is an http.Client on partition.Transport: the
// standard transport, keeping every connection a burst opened to a host
// instead of two.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the exchange at baseURL (e.g.
// "http://localhost:8780"). The /v1 prefix is implied; do not include it.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q has no host", baseURL)
	}
	c := &Client{
		base:        strings.TrimRight(u.String(), "/"),
		hc:          &http.Client{Transport: partition.Transport},
		retries:     3,
		backoff:     100 * time.Millisecond,
		retryBudget: 5 * time.Second,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// BaseURL returns the exchange base URL the client was built with.
func (c *Client) BaseURL() string { return c.base }

// CreateJob creates (or idempotently re-creates) a hosted job. When
// spec.IdempotencyKey is empty a random key is generated for the call, so
// automatic retries after a network failure cannot create the job twice; a
// caller-supplied key additionally makes whole-call replays safe — the
// exchange returns the originally recorded response.
func (c *Client) CreateJob(ctx context.Context, spec JobSpec) (Job, error) {
	key := spec.IdempotencyKey
	if key == "" {
		key = newIdempotencyKey()
	}
	var job Job
	err := c.do(ctx, request{
		route:   api.CreateJob,
		id:      spec.ID,
		body:    spec.wire(),
		headers: map[string]string{"Idempotency-Key": key},
		out:     &job,
		retry:   true,
	})
	return job, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, jobID string) (Job, error) {
	var job Job
	err := c.do(ctx, request{route: api.GetJob, id: jobID, out: &job, retry: true})
	return job, err
}

// Jobs lists every hosted job, following cursor pagination to the end.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var all []Job
	cursor := ""
	for {
		q := url.Values{}
		if cursor != "" {
			q.Set("cursor", cursor)
		}
		var page api.JobList
		if err := c.do(ctx, request{route: api.ListJobs, query: q, out: &page, retry: true}); err != nil {
			return nil, err
		}
		all = append(all, page.Jobs...)
		if page.NextCursor == "" {
			return all, nil
		}
		cursor = page.NextCursor
	}
}

// RemoveJob closes the job and evicts it from the exchange.
func (c *Client) RemoveJob(ctx context.Context, jobID string) error {
	return c.do(ctx, request{route: api.RemoveJob, id: jobID})
}

// SubmitBid submits one sealed bid into the job's collecting round and
// returns the round it entered. Each call carries a fresh idempotency key,
// so transparent retries after a transport failure cannot double-bid (the
// exchange replays the recorded acceptance instead of answering 409).
func (c *Client) SubmitBid(ctx context.Context, jobID string, bid Bid) (round int, err error) {
	var resp api.BidAck
	err = c.do(ctx, request{
		route:   api.SubmitBid,
		id:      jobID,
		body:    bid,
		headers: map[string]string{"Idempotency-Key": newIdempotencyKey()},
		out:     &resp,
		retry:   true,
	})
	return resp.Round, err
}

// CloseRound closes the job's collecting round now and returns its outcome.
// Not retried automatically: closing is not idempotent (a retry would close
// the next round too).
func (c *Client) CloseRound(ctx context.Context, jobID string) (Outcome, error) {
	var out Outcome
	err := c.do(ctx, request{route: api.CloseRound, id: jobID, out: &out})
	return out, err
}

// Outcome fetches one completed round.
func (c *Client) Outcome(ctx context.Context, jobID string, round int) (Outcome, error) {
	q := url.Values{"round": {strconv.Itoa(round)}}
	var out Outcome
	err := c.do(ctx, request{route: api.GetOutcome, id: jobID, query: q, out: &out, retry: true})
	return out, err
}

// LatestOutcome fetches the most recent completed round without blocking.
func (c *Client) LatestOutcome(ctx context.Context, jobID string) (Outcome, error) {
	var out Outcome
	err := c.do(ctx, request{route: api.GetOutcome, id: jobID, out: &out, retry: true})
	return out, err
}

// WaitOutcome blocks until the round completes (long-polling the exchange,
// re-issuing the poll on server timeouts) or ctx expires. round 0 waits for
// the latest completed round instead of a specific one.
func (c *Client) WaitOutcome(ctx context.Context, jobID string, round int) (Outcome, error) {
	q := url.Values{"wait": {"1"}}
	if round > 0 {
		q.Set("round", strconv.Itoa(round))
	}
	for {
		var out Outcome
		err := c.do(ctx, request{route: api.GetOutcome, id: jobID, query: q, out: &out, retry: true})
		if err == nil {
			return out, nil
		}
		// A 504 means the server's poll window lapsed with the round still
		// pending; keep waiting as long as our own context allows.
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != CodeTimeout {
			return Outcome{}, err
		}
		if ctx.Err() != nil {
			return Outcome{}, ctx.Err()
		}
	}
}

// Outcomes fetches one page of retained rounds with numbers strictly
// greater than afterRound (oldest first) and reports whether more remain.
// limit 0 uses the server default.
func (c *Client) Outcomes(ctx context.Context, jobID string, afterRound, limit int) (page []Outcome, more bool, err error) {
	q := url.Values{}
	if afterRound > 0 {
		q.Set("cursor", strconv.Itoa(afterRound))
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	var resp api.OutcomeList
	err = c.do(ctx, request{route: api.ListOutcomes, id: jobID, query: q, out: &resp, retry: true})
	return resp.Outcomes, resp.NextCursor != "", err
}

// Register adds the node to the exchange's registry (idempotent).
func (c *Client) Register(ctx context.Context, nodeID int, meta string) error {
	return c.do(ctx, request{route: api.RegisterNode, body: api.NodeRequest{NodeID: nodeID, Meta: meta}, retry: true})
}

// Blacklist bans the node from all future rounds.
func (c *Client) Blacklist(ctx context.Context, nodeID int) error {
	return c.do(ctx, request{route: api.BlacklistNode, id: strconv.Itoa(nodeID), retry: true})
}

// Strategy fetches the job's solved Theorem 1 equilibrium bid curve with
// the given sample count (0 uses the server default). Interpolate with the
// returned Strategy's Payment/Qualities, or use NewBidder.
func (c *Client) Strategy(ctx context.Context, jobID string, samples int) (*Strategy, error) {
	q := url.Values{}
	if samples > 0 {
		q.Set("samples", strconv.Itoa(samples))
	}
	var s Strategy
	if err := c.do(ctx, request{route: api.GetStrategy, id: jobID, query: q, out: &s, retry: true}); err != nil {
		return nil, err
	}
	return &s, nil
}

// Metrics fetches the exchange's health snapshot.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	err := c.do(ctx, request{route: api.GetMetrics, out: &m, retry: true})
	return m, err
}

// PrometheusMetrics fetches the exchange's Prometheus text exposition page
// (GET /v1/metrics/prometheus) verbatim.
func (c *Client) PrometheusMetrics(ctx context.Context) (string, error) {
	var text string
	err := c.do(ctx, request{route: api.GetPrometheus, rawOut: &text, retry: true})
	return text, err
}

// JobStats fetches the job's windowed and lifetime analytics rollups
// (GET /v1/jobs/{id}/stats). The endpoint is served by exchanges running
// the analytics wrapper handler; a bare exchange answers 404.
func (c *Client) JobStats(ctx context.Context, jobID string) (JobStats, error) {
	var st JobStats
	err := c.do(ctx, request{route: api.GetJobStats, id: jobID, out: &st, retry: true})
	return st, err
}

// NodeStats fetches one node's windowed and lifetime analytics rollups
// (GET /v1/nodes/{id}/stats). See JobStats for availability.
func (c *Client) NodeStats(ctx context.Context, nodeID int) (NodeStats, error) {
	var st NodeStats
	err := c.do(ctx, request{route: api.GetNodeStats, id: strconv.Itoa(nodeID), out: &st, retry: true})
	return st, err
}

// --- transport core ---------------------------------------------------------

// request is one API call description for do: a route and its {id}.
type request struct {
	route   api.Route
	id      string
	query   url.Values
	body    any
	headers map[string]string
	out     any
	// rawOut receives the response body verbatim instead of JSON-decoding
	// into out (non-JSON endpoints, e.g. the Prometheus exposition).
	rawOut *string
	// retry marks the request safe to re-issue after a transient failure
	// (GETs, and POSTs carrying an idempotency key).
	retry bool
}

// doTransport issues one HTTP request through the sdk/transport failpoint:
// when firing it injects its configured latency and error before the
// request leaves the process, modelling the connection failures the retry
// loop must absorb.
func (c *Client) doTransport(ctx context.Context, method, u string, body []byte, headers map[string]string) (*http.Response, error) {
	hr, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("building request: %w", err)
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	for k, v := range headers {
		hr.Header.Set(k, v)
	}
	if err := fpTransport.Fire(); err != nil {
		return nil, err
	}
	return c.hc.Do(hr)
}

// send issues one request to base+target under the one re-aim rule
// (partition.Routes.Reaim): a wrong_partition answer is replayed once,
// byte for byte, against the owner it names — safe even for non-idempotent
// requests, since the refuser executed nothing. do and connectEvents both
// send through here, so event streams re-aim, and meet the sdk/transport
// failpoint, like every other call.
func (c *Client) send(ctx context.Context, method, base, target string, body []byte, headers map[string]string) (*http.Response, error) {
	resp, err := c.doTransport(ctx, method, base+target, body, headers)
	if err != nil {
		return nil, err
	}
	if owner, ok := c.routes.Reaim(ctx, c.hc, base, resp); ok {
		return c.doTransport(ctx, method, owner.URL+target, body, headers)
	}
	return resp, nil
}

// do executes one API request with context-aware retries and jittered
// exponential backoff on transient failures. With routing enabled,
// job-scoped requests go directly to the owning replica; a wrong_partition
// answer re-aims at the replica the envelope names (once per attempt,
// immediately, refreshing the map on the way — see send), and a replica
// that is unreachable falls back through the client's base URL.
func (c *Client) do(ctx context.Context, req request) error {
	var bodyBytes []byte
	if req.body != nil {
		var err error
		if bodyBytes, err = json.Marshal(req.body); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	path := req.route.URL(req.id)
	target := path
	if len(req.query) > 0 {
		target += "?" + req.query.Encode()
	}
	maxAttempts := 1
	if req.retry {
		maxAttempts += c.retries
	}
	// pinned overrides per-attempt base selection after a fallback;
	// rerouted caps durability_lost re-aims at one per call.
	pinned := ""
	rerouted := false
	var slept time.Duration // total retry-sleep spent, charged against the budget
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			// A server-supplied retry_after_ms (429 overloaded, 503
			// durability_lost, 504 timeout) overrides the computed backoff:
			// the server knows when capacity returns, and honoring the hint
			// keeps a shedding exchange from being hammered on the client's
			// own schedule.
			d := retryHint(lastErr)
			if d <= 0 {
				d = backoffDelay(c.backoff, attempt-1)
			}
			// The retry budget fails the call fast once the retries' sleep
			// time is spent — a fully degraded cluster answers in ~budget,
			// not retries x hint.
			if slept+d > c.retryBudget {
				return lastErr
			}
			slept += d
			if err := sleepFor(ctx, d); err != nil {
				return lastErr
			}
		}
		base := pinned
		if base == "" {
			base = c.routedBase(req.route, req.id)
		}
		resp, err := c.send(ctx, req.route.Method, base, target, bodyBytes, req.headers)
		if err != nil {
			lastErr = fmt.Errorf("client: %s %s: %w", req.route.Method, path, err)
			if ctx.Err() != nil {
				return lastErr
			}
			if base != c.base {
				// The owning replica is unreachable; retries go through the
				// client's own base (typically the router).
				pinned = c.base
			}
			continue
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			if req.rawOut != nil {
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close() //nolint:errcheck // read
				if err != nil {
					return fmt.Errorf("client: reading %s %s response: %w", req.route.Method, path, err)
				}
				*req.rawOut = string(raw)
				return nil
			}
			if req.out == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close() //nolint:errcheck // drained
				return nil
			}
			err := json.NewDecoder(resp.Body).Decode(req.out)
			resp.Body.Close() //nolint:errcheck // decoded
			if err != nil {
				return fmt.Errorf("client: decoding %s %s response: %w", req.route.Method, path, err)
			}
			return nil
		}
		apiErr := decodeAPIError(resp)
		lastErr = apiErr
		if apiErr.Code == CodeDurabilityLost && !rerouted {
			// Routing feedback of the wrong_partition class: the degraded
			// replica refused before executing anything, so one immediate
			// re-aim — with the same headers, Idempotency-Key included — is
			// safe. Refresh the map in case the operator already moved the
			// partition to healthy hardware; otherwise fall back through the
			// client's base (typically the router, whose healthz probe knows
			// which replicas still take writes).
			rerouted = true
			_ = c.routes.Refresh(ctx, c.hc, c.base)
			if pinned = c.routedBase(req.route, req.id); pinned == base {
				pinned = c.base
			}
			attempt--
			continue
		}
		if !transientStatus(resp.StatusCode) {
			return apiErr
		}
	}
	return lastErr
}

// transientStatus reports whether a failure status is worth retrying.
// 504 is the long-poll timeout — WaitOutcome handles it explicitly, and a
// plain request hitting a gateway timeout is equally safe to re-issue. 429
// is the exchange's admission shed: deliberate, explicitly retryable
// backpressure whose envelope carries the retry_after_ms hint the retry
// loop honors. Requests are re-sent with their original headers, so a
// retried keyed POST reuses its Idempotency-Key — a shed never burns the
// key (the server rejects before claiming it), and the eventual success is
// recorded against it normally.
func transientStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryHint extracts the server's suggested retry delay from the previous
// attempt's error, 0 when it sent none.
func retryHint(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > 0 {
		return ae.RetryAfter
	}
	return 0
}

// sleepFor sleeps exactly d, or returns early when ctx expires.
func sleepFor(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoffDelay computes base·2ᵃᵗᵗᵉᵐᵖᵗ with ±50% jitter, capped at 5s. The
// delay is materialized before sleeping so the retry budget can charge it.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	d := time.Duration(float64(base) * math.Pow(2, float64(attempt)))
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return time.Duration(float64(d) * (0.5 + mrand.Float64())) //nolint:gosec // jitter, not crypto
}

// decodeAPIError reads the v1 error envelope (falling back to the raw body
// for non-JSON responses, e.g. an intermediary's error page).
func decodeAPIError(resp *http.Response) *APIError {
	defer resp.Body.Close() //nolint:errcheck // error path
	ae := &APIError{Status: resp.StatusCode}
	var env api.Error
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if err := json.Unmarshal(raw, &env); err == nil && env.Code != "" {
		ae.Code = env.Code
		ae.Message = env.Message
		ae.RetryAfter = time.Duration(env.RetryAfterMS) * time.Millisecond
		ae.Partition = env.Partition
		ae.ReplicaURL = env.ReplicaURL
		ae.MapVersion = env.MapVersion
		return ae
	}
	ae.Message = strings.TrimSpace(string(raw))
	if ae.Message == "" {
		ae.Message = resp.Status
	}
	return ae
}

// newIdempotencyKey returns a random 128-bit hex key.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; fall back to math/rand rather
		// than failing the request over a retry-safety nicety.
		for i := range b {
			b[i] = byte(mrand.Int()) //nolint:gosec // fallback only
		}
	}
	return hex.EncodeToString(b[:])
}

// wire converts the SDK spec to the POST /v1/jobs payload. Knobs at or
// below zero are left out, so the server applies its defaults.
func (s JobSpec) wire() api.JobRequest {
	return api.JobRequest{
		ID:           s.ID,
		Rule:         s.Rule,
		K:            s.K,
		Payment:      s.Payment,
		Psi:          s.Psi,
		Seed:         s.Seed,
		BidWindowMS:  max(0, int64(s.BidWindow/time.Millisecond)),
		MaxRounds:    max(0, s.MaxRounds),
		MinBids:      max(0, s.MinBids),
		KeepOutcomes: max(0, s.KeepOutcomes),
		Equilibrium:  s.Equilibrium,
	}
}

// JobSpec configures a job to create. Rule and Equilibrium use the wire
// forms re-exported as RuleSpec/EquilibriumSpec, so external modules can
// populate them without internal imports.
type JobSpec struct {
	// ID names the job; empty lets the exchange assign one.
	ID string
	// Rule is the scoring rule (additive, leontief, cobb-douglas).
	Rule RuleSpec
	// K is the per-round winner count.
	K int
	// Payment is "first-price" (default) or "second-price".
	Payment string
	// Psi enables ψ-FMore when in (0, 1).
	Psi float64
	// Seed drives the job's deterministic tiebreak rng.
	Seed int64
	// BidWindow > 0 makes the exchange close rounds on a timer; zero means
	// manual rounds (CloseRound).
	BidWindow time.Duration
	// MaxRounds closes the job after that many rounds (0 = unlimited).
	MaxRounds int
	// MinBids is the round quorum (default 1).
	MinBids int
	// KeepOutcomes bounds retained history (0 = server default).
	KeepOutcomes int
	// Equilibrium optionally describes the bidder-side game so the job can
	// serve the solved Theorem 1 strategy.
	Equilibrium *EquilibriumSpec
	// IdempotencyKey, when set, is sent as the Idempotency-Key header so a
	// repeated CreateJob with the same key replays the original response
	// instead of failing on the duplicate ID.
	IdempotencyKey string
}
