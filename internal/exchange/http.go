package exchange

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"fmore/internal/admission"
	"fmore/internal/auction"
	"fmore/internal/partition"
	"fmore/pkg/api"
)

// maxWait caps how long GET /v1/jobs/{id}/outcome?wait=1 blocks.
const maxWait = 30 * time.Second

// sseHeartbeat is the event stream's keep-alive comment interval; proxies
// and idle-connection reapers see traffic even on a quiet job. Tests shorten
// it.
var sseHeartbeat = 15 * time.Second

// NewHandler returns the exchange's HTTP front end: every row of api.Routes
// but the two stats routes, which the internal/analytics wrapper handler
// serves in front of this one. Every error, a removed pre-v1 path's 404
// included, is the api.Error envelope.
func NewHandler(ex *Exchange) http.Handler {
	h := &handler{ex: ex, idem: newIdemCache(idemCacheCap)}
	mux := http.NewServeMux()
	for rt, fn := range map[api.Route]http.HandlerFunc{
		api.ListJobs:      h.listJobs,
		api.CreateJob:     h.createJob,
		api.GetJob:        h.jobStatus,
		api.RemoveJob:     h.removeJob,
		api.SubmitBid:     h.submitBid,
		api.CloseRound:    h.closeRound,
		api.GetOutcome:    h.outcome,
		api.ListOutcomes:  h.listOutcomes,
		api.WatchEvents:   h.events,
		api.GetStrategy:   h.strategy,
		api.RegisterNode:  h.registerNode,
		api.BlacklistNode: h.blacklistNode,
		api.GetMetrics:    h.metrics,
		api.GetPrometheus: h.metricsPrometheus,
		api.GetPartitions: h.clusterPartitions,
		api.GetHealthz:    h.healthz,
	} {
		mux.HandleFunc(rt.Method+" "+rt.Path, fn)
	}
	// Fallback for everything the typed routes miss. The method-less "/"
	// pattern outranks the mux's built-in 405 handling, so wrong-method
	// requests land here too: 405 with Allow for a path a row serves under
	// another method, else 404 — in the JSON envelope, not the mux's text.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if route, _, allow := api.Lookup(r.Method, r.URL.EscapedPath()); route == (api.Route{}) && len(allow) > 0 {
			w.Header().Set("Allow", strings.Join(allow, ", "))
			writeError(w, http.StatusMethodNotAllowed, api.CodeNotAllowed,
				fmt.Sprintf("%s not allowed for %s (allow: %s)", r.Method, r.URL.Path, strings.Join(allow, ", ")))
			return
		}
		writeError(w, http.StatusNotFound, api.CodeNotFound,
			fmt.Sprintf("no route for %s %s (the versioned API lives under /v1)", r.Method, r.URL.Path))
	})
	return mux
}

type handler struct {
	ex   *Exchange
	idem *idemCache
}

// --- idempotency ------------------------------------------------------------

// idemCacheCap bounds the recorded-response cache; entries beyond it evict
// FIFO. Keys live as long as the process (replays are best-effort, not
// durable across restarts).
const idemCacheCap = 4096

// readBody reads a POST's body (a what). It reads one byte past the bound,
// so a body that does not fit is refused with 413 instead of being
// truncated and decoded as if whole. ok false: the response is written.
func readBody(w http.ResponseWriter, r *http.Request, what string) (raw []byte, ok bool) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, api.MaxBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Sprintf("reading %s: %v", what, err))
		return nil, false
	}
	if len(raw) > api.MaxBody {
		writeError(w, http.StatusRequestEntityTooLarge, api.CodeInvalidRequest, fmt.Sprintf("%s body exceeds %d bytes", what, api.MaxBody))
		return nil, false
	}
	return raw, true
}

// idemEntry is one idempotency-key slot. done closes when the first request
// carrying the key settles; status 0 afterwards means it failed without
// recording a response (the key is released for a clean retry). key, prev
// and next place the entry in its cache's eviction order, under the
// cache's mutex.
type idemEntry struct {
	done   chan struct{}
	status int
	body   []byte

	key        string
	prev, next *idemEntry
}

// idemCache replays recorded responses for repeated Idempotency-Key values,
// so a client retrying POST /v1/jobs or a bid submission after a network
// failure gets the original result instead of a duplicate-side-effect
// error. Entries are claimed before the operation executes, so a retry
// racing its own in-flight first attempt waits for that attempt's recorded
// response instead of executing twice.
type idemCache struct {
	cap int
	mu  sync.Mutex
	m   map[string]*idemEntry
	// order is the sentinel of a ring through every entry of m, oldest
	// claim first (order.next): claim, evict and abort are O(1) at any fill.
	order idemEntry
}

func newIdemCache(cap int) *idemCache {
	c := &idemCache{cap: cap, m: make(map[string]*idemEntry)}
	c.order.prev, c.order.next = &c.order, &c.order
	return c
}

// begin claims the key. owner reports whether the caller runs the operation
// (and must settle the entry via finish or abort); otherwise the returned
// entry belongs to an earlier request — wait on done and replay.
func (c *idemCache) begin(key string) (e *idemEntry, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		return e, false
	}
	if len(c.m) >= c.cap {
		c.evictOneLocked()
	}
	e = &idemEntry{done: make(chan struct{}), key: key}
	c.m[key] = e
	e.prev, e.next = c.order.prev, &c.order
	e.prev.next, e.next.prev = e, e
	return e, true
}

// evictOneLocked drops the oldest *settled* entry. In-flight entries are
// never evicted — losing one would let a racing duplicate become a second
// owner and execute the operation twice; if every entry is in flight the
// cache temporarily exceeds cap (bounded by concurrent keyed requests, as
// is the number of entries the walk steps over).
func (c *idemCache) evictOneLocked() {
	for e := c.order.next; e != &c.order; e = e.next {
		select {
		case <-e.done:
			c.removeLocked(e)
			return
		default:
		}
	}
}

// removeLocked takes e out of the map and the eviction order.
func (c *idemCache) removeLocked(e *idemEntry) {
	delete(c.m, e.key)
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// finish records the response and releases waiters.
func (c *idemCache) finish(e *idemEntry, status int, body []byte) {
	e.status = status
	e.body = body
	close(e.done)
}

// abort releases the key after a failed attempt: waiters (and future
// requests) get a clean slate instead of a recorded error. The key leaves
// the eviction order too — otherwise error-dominated keyed traffic would
// grow it without bound.
func (c *idemCache) abort(e *idemEntry) {
	c.mu.Lock()
	if c.m[e.key] == e {
		c.removeLocked(e)
	}
	c.mu.Unlock()
	close(e.done)
}

// idemToken is one handler's claim on an idempotency key. A zero token
// (no Idempotency-Key header) is inert.
type idemToken struct {
	c       *idemCache
	e       *idemEntry
	settled bool
}

// finish records a successful response; abort (deferred) becomes a no-op.
func (t *idemToken) finish(status int, body []byte) {
	if t.e == nil || t.settled {
		return
	}
	t.settled = true
	t.c.finish(t.e, status, body)
}

// abort releases an unsettled claim; deferred on every handler exit path.
func (t *idemToken) abort() {
	if t.e == nil || t.settled {
		return
	}
	t.settled = true
	t.c.abort(t.e)
}

// idemBegin implements the Idempotency-Key contract for one request. The
// key is scoped to the operation and fingerprinted with the payload, so a
// reused key with a different body does not replay the old response — it
// misses the cache and runs normally (typically into the underlying
// conflict). handled reports that a recorded response was replayed (or an
// in-flight twin's response was awaited) and the caller must return.
func (h *handler) idemBegin(w http.ResponseWriter, r *http.Request, op, scope string, body []byte) (tok idemToken, handled bool) {
	key := r.Header.Get("Idempotency-Key")
	if key == "" {
		return idemToken{}, false
	}
	sum := sha256.Sum256(body)
	full := op + "\x00" + scope + "\x00" + key + "\x00" + string(sum[:])
	for {
		e, owner := h.idem.begin(full)
		if owner {
			return idemToken{c: h.idem, e: e}, false
		}
		select {
		case <-e.done:
		case <-r.Context().Done():
			return idemToken{}, true // client gone; nothing to write
		}
		if e.status == 0 {
			// The first attempt aborted without a recorded response; race
			// for ownership of a fresh slot.
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Idempotent-Replay", "true")
		w.WriteHeader(e.status)
		_, _ = w.Write(e.body)
		return idemToken{}, true
	}
}

// --- handlers ---------------------------------------------------------------

func (h *handler) createJob(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r, "job spec")
	if !ok {
		return
	}
	tok, handled := h.idemBegin(w, r, "create-job", "", raw)
	if handled {
		return
	}
	defer tok.abort()
	var req api.JobRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Sprintf("decoding job spec: %v", err))
		return
	}
	// A larger window would overflow time.Duration, and a wrapped one
	// reads as manual mode.
	if req.BidWindowMS < 0 || req.BidWindowMS > math.MaxInt64/int64(time.Millisecond) {
		writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Sprintf("bid_window_ms %d is negative or too large", req.BidWindowMS))
		return
	}
	rule, err := req.Rule.Build()
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, err.Error())
		return
	}
	var payment auction.PaymentRule
	switch req.Payment {
	case "", "first-price":
		payment = auction.FirstPrice
	case "second-price":
		payment = auction.SecondPrice
	default:
		writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Sprintf("unknown payment rule %q", req.Payment))
		return
	}
	job, err := h.ex.CreateJob(JobSpec{
		ID:           req.ID,
		Auction:      auction.Config{Rule: rule, K: req.K, Payment: payment, Psi: req.Psi},
		Seed:         req.Seed,
		BidWindow:    time.Duration(req.BidWindowMS) * time.Millisecond,
		MaxRounds:    req.MaxRounds,
		MinBids:      req.MinBids,
		KeepOutcomes: req.KeepOutcomes,
		Equilibrium:  req.Equilibrium,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	h.writeJSONIdempotent(w, http.StatusCreated, jobView(job), &tok)
}

// listJobs serves the v1 paginated listing: jobs in lexical ID order,
// ?cursor= the last ID of the previous page, ?limit= page size.
func (h *handler) listJobs(w http.ResponseWriter, r *http.Request) {
	limit, err := parseLimit(r.URL.Query().Get("limit"), 100, 1000)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, err.Error())
		return
	}
	cursor := r.URL.Query().Get("cursor")
	ids := h.ex.JobIDs()
	if cursor != "" {
		for len(ids) > 0 && ids[0] <= cursor {
			ids = ids[1:]
		}
	}
	var resp api.JobList
	resp.Jobs = make([]api.Job, 0, min(limit, len(ids)))
	for _, id := range ids {
		if len(resp.Jobs) == limit {
			resp.NextCursor = resp.Jobs[len(resp.Jobs)-1].ID
			break
		}
		if job, ok := h.ex.Job(id); ok {
			resp.Jobs = append(resp.Jobs, jobView(job))
		}
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// resolveJob looks up a hosted job; on a miss it writes unknown_job — or
// wrong_partition with the owner's URL when the cluster map places the job
// on another replica — and returns ok=false.
func (h *handler) resolveJob(w http.ResponseWriter, id string) (*Job, bool) {
	job, ok := h.ex.Job(id)
	if !ok {
		writeErr(w, h.ex.missingJob(id))
		return nil, false
	}
	return job, true
}

func (h *handler) jobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := h.resolveJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	api.WriteJSON(w, http.StatusOK, jobView(job))
}

func (h *handler) submitBid(w http.ResponseWriter, r *http.Request) {
	// The in-flight gate runs before the body read and before the
	// idempotency claim: a shed request is the cheapest possible 429 and
	// never burns its Idempotency-Key, so the client's retry replays
	// nothing stale.
	adm := h.ex.Admission()
	if ok, retry := adm.BeginRequest(); !ok {
		writeOverloaded(w, admission.ScopeInflight, retry)
		return
	}
	defer adm.EndRequest()
	jobID := r.PathValue("id")
	raw, ok := readBody(w, r, "bid")
	if !ok {
		return
	}
	tok, handled := h.idemBegin(w, r, "submit-bid", jobID, raw)
	if handled {
		return
	}
	defer tok.abort()
	var req api.Bid
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Sprintf("decoding bid: %v", err))
		return
	}
	round, err := h.ex.SubmitBid(jobID, auction.Bid{
		NodeID:    req.NodeID,
		Qualities: req.Qualities,
		Payment:   req.Payment,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	// Meta-on-bid is a labeling convenience of the open posture only, and
	// only an accepted bid earns it: rejected requests must not mutate the
	// registry, and on a gated exchange registration happens exclusively
	// through POST /v1/nodes.
	if req.Meta != "" && !h.ex.opts.RequireRegistration {
		h.ex.RegisterNode(req.NodeID, req.Meta)
	}
	h.writeJSONIdempotent(w, http.StatusAccepted, api.BidAck{Job: jobID, Round: round}, &tok)
}

func (h *handler) removeJob(w http.ResponseWriter, r *http.Request) {
	if err := h.ex.RemoveJob(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.JobRemoved{Job: r.PathValue("id"), Removed: true})
}

// closeRound closes the collecting round now and answers with its outcome
// (writeRound). An already-closed job answers 409 job_closed (the job
// exists — the operation conflicts with its state); only a job the exchange
// does not host answers 404.
func (h *handler) closeRound(w http.ResponseWriter, r *http.Request) {
	ro, err := h.ex.CloseRound(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeRound(w, &ro)
}

// outcome serves one retained round through writeRound: the latest, the
// latest or a named one waited for (?wait=1), or a named one (?round=N).
func (h *handler) outcome(w http.ResponseWriter, r *http.Request) {
	job, ok := h.resolveJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	q := r.URL.Query()
	wait := false
	if s := q.Get("wait"); s != "" {
		v, err := strconv.ParseBool(s)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Sprintf("bad wait %q (want a boolean)", s))
			return
		}
		wait = v
	}
	if q.Get("round") == "" && !wait {
		ro, ok := job.Latest()
		if !ok {
			writeError(w, http.StatusNotFound, api.CodeRoundPending, "no completed rounds yet")
			return
		}
		if ro.Err != nil {
			// A failed round must not read as a winnerless success; report
			// it exactly as the by-round path would.
			writeErr(w, ro.Err)
			return
		}
		writeRound(w, &ro)
		return
	}
	if wait {
		ctx, cancel := context.WithTimeout(r.Context(), maxWait)
		defer cancel()
		var (
			ro  RoundOutcome
			err error
		)
		if s := q.Get("round"); s != "" {
			n, perr := strconv.Atoi(s)
			if perr != nil {
				writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Sprintf("bad round %q", s))
				return
			}
			ro, err = job.WaitOutcome(ctx, n)
		} else {
			// No round named: wait for the latest completed round. Waiting
			// on the collecting round number would race with the bid window
			// closing between a client's bid and its poll.
			ro, err = job.WaitLatest(ctx)
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		writeRound(w, &ro)
		return
	}
	n, err := strconv.Atoi(q.Get("round"))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Sprintf("bad round %q", q.Get("round")))
		return
	}
	ro, err := job.Outcome(n)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeRound(w, &ro)
}

// listOutcomes serves the v1 paginated outcome listing: retained rounds with
// numbers strictly greater than ?cursor=, oldest first. Failed rounds appear
// with their error set so pages stay contiguous. The page is api.OutcomeList
// as encoding/json spells it, its rounds written by appendOutcome into one
// body (writeBody).
func (h *handler) listOutcomes(w http.ResponseWriter, r *http.Request) {
	job, ok := h.resolveJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	limit, err := parseLimit(r.URL.Query().Get("limit"), 100, 1000)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, err.Error())
		return
	}
	after := 0
	if s := r.URL.Query().Get("cursor"); s != "" {
		after, err = strconv.Atoi(s)
		if err != nil || after < 0 {
			writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Sprintf("bad cursor %q (want a round number)", s))
			return
		}
	}
	page, more := job.OutcomesAfter(after, limit)
	body := append(make([]byte, 0, roundBodyHint), `{"outcomes":[`...)
	for i := range page {
		if i == 1 {
			// A job's rounds are about the same size: the first sizes the
			// page.
			body = slices.Grow(body, (len(page)-1)*len(body))
		}
		if i > 0 {
			body = append(body, ',')
		}
		if body, err = appendOutcome(body, &page[i]); err != nil {
			break
		}
	}
	body = append(body, ']')
	if more {
		body = append(body, `,"next_cursor":"`...)
		body = strconv.AppendInt(body, int64(page[len(page)-1].Round), 10)
		body = append(body, '"')
	}
	writeBody(w, append(body, '}'), err)
}

// events streams the job's round lifecycle as Server-Sent Events:
//
//	event: round_open    data: {"job": "...", "round": N}
//	event: round_closed  data: <api.Outcome>   (id: round number)
//	event: job_closed    data: {"job": "..."}
//
// round_closed events carry the outcome inline and an SSE id equal to the
// round number, each frame built whole by writeRoundClosed and sent with one
// Write. The stream is a cursor over the job's retained rounds, woken
// by the broadcast the blocking outcome reads wait on: the job never waits
// for a reader, and a reader that falls behind is not dropped — it reads on
// from the history at its own pace. On attach every retained round after
// Last-Event-ID (or ?after=, clamped to the latest completed round) is
// replayed, then the collecting round is announced; after that each
// round_closed is followed by the next round's round_open, and job_closed
// ends the stream. Rounds that leave the KeepOutcomes window before the
// cursor reaches them are skipped. A reader that keeps up sees the
// round_open of every round that opened; one that catches up only after the
// job closed gets none for the round that was collecting at the close, since
// the history cannot show that a round which never completed had opened.
// Heartbeat comments flow every sseHeartbeat while the stream idles.
func (h *handler) events(w http.ResponseWriter, r *http.Request) {
	job, ok := h.resolveJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "response writer does not support streaming")
		return
	}
	after := 0
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("after")
	}
	if lastID != "" {
		n, err := strconv.Atoi(lastID)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Sprintf("bad Last-Event-ID %q (want a round number)", lastID))
			return
		}
		after = n
	}

	// SSE stream cap: register the stream with the admission controller
	// before attaching. At the cap the controller cancels the OLDEST
	// stream's context to make room — new streams always get in, and the
	// victim's wait loop returns. Heartbeats of admitted streams are never
	// shed.
	if adm := h.ex.Admission(); adm != nil {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		release := adm.AcquireStream(cancel)
		defer release()
		r = r.WithContext(ctx)
	}

	cursor := after
	page, cur, closed, wake := job.since(&cursor)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	var frame []byte
	for i := range page {
		frame = writeRoundClosed(w, frame, &page[i])
	}
	if !closed {
		writeSSE(w, "", api.EventRoundOpen, api.RoundOpen{Job: job.ID(), Round: cur})
	}

	ticker := time.NewTicker(sseHeartbeat)
	defer ticker.Stop()
	for !closed {
		flusher.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
			_, _ = fmt.Fprint(w, ": hb\n\n")
			continue
		case <-wake:
		}
		page, _, closed, wake = job.since(&cursor)
		for i := range page {
			ro := &page[i]
			frame = writeRoundClosed(w, frame, ro)
			// The next round provably opened if the job is still open, or if
			// it completed as well.
			if !closed || ro.Round < cursor {
				writeSSE(w, "", api.EventRoundOpen, api.RoundOpen{Job: job.ID(), Round: ro.Round + 1})
			}
		}
	}
	writeSSE(w, "", api.EventJobClosed, api.JobClosed{Job: job.ID()})
	flusher.Flush()
}

// writeRoundClosed writes ro's round_closed frame — id, event and the
// appendOutcome body as data — built whole in frame (returned for the next
// frame) and sent with one Write. A round that does not encode is skipped,
// as writeSSE skips a payload that does not marshal.
func writeRoundClosed(w io.Writer, frame []byte, ro *RoundOutcome) []byte {
	frame = append(frame[:0], "id: "...)
	frame = strconv.AppendInt(frame, int64(ro.Round), 10)
	frame = append(frame, "\nevent: "+api.EventRoundClosed+"\ndata: "...)
	frame, err := appendOutcome(frame, ro)
	if err == nil {
		frame = append(frame, "\n\n"...)
		_, _ = w.Write(frame)
	}
	return frame
}

// writeSSE emits one SSE frame. data is JSON-marshaled; json.Marshal output
// is single-line, so no data-field splitting is needed.
func writeSSE(w http.ResponseWriter, id, event string, data any) {
	b, err := json.Marshal(data)
	if err != nil {
		return
	}
	if id != "" {
		_, _ = fmt.Fprintf(w, "id: %s\n", id)
	}
	_, _ = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}

// defaultStrategySamples balances curve fidelity against payload size; the
// solver's own θ grid has 129 points, so more than that adds nothing.
const defaultStrategySamples = 33

func (h *handler) strategy(w http.ResponseWriter, r *http.Request) {
	job, ok := h.resolveJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	samples := defaultStrategySamples
	if s := r.URL.Query().Get("samples"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 2 || n > 1024 {
			writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Sprintf("bad samples %q (want an integer in [2, 1024])", s))
			return
		}
		samples = n
	}
	strat, err := job.Strategy()
	if err != nil {
		writeErr(w, err)
		return
	}
	spec := job.Spec()
	lo, hi := strat.ThetaSupport()
	api.WriteJSON(w, http.StatusOK, api.Strategy{
		Job:     job.ID(),
		Rule:    spec.Auction.Rule.Name(),
		N:       spec.Equilibrium.N,
		K:       spec.Auction.K,
		ThetaLo: lo,
		ThetaHi: hi,
		Points:  strat.SampleCurve(samples),
	})
}

func (h *handler) registerNode(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r, "node")
	if !ok {
		return
	}
	var req api.NodeRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Sprintf("decoding node: %v", err))
		return
	}
	info := h.ex.RegisterNode(req.NodeID, req.Meta)
	api.WriteJSON(w, http.StatusOK, api.NodeRegistered{Bids: info.Bids(), NodeID: info.ID})
}

func (h *handler) blacklistNode(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Sprintf("bad node id %q", r.PathValue("id")))
		return
	}
	// BlacklistNode (not Registry().Blacklist) so the ban lands in the
	// outcome log and survives a restart.
	if !h.ex.BlacklistNode(id) {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("node %d is not registered", id))
		return
	}
	api.WriteJSON(w, http.StatusOK, api.NodeBlacklisted{Blacklisted: true, NodeID: id})
}

func (h *handler) metrics(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, h.ex.Metrics())
}

// clusterPartitions serves the replica's cluster map. An unpartitioned
// exchange answers 404 not_found — the SDK treats that as "routing off".
func (h *handler) clusterPartitions(w http.ResponseWriter, _ *http.Request) {
	m := h.ex.PartitionMap()
	if m == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "exchange is not partitioned")
		return
	}
	api.WriteJSON(w, http.StatusOK, partition.Document{
		Version:    m.Version,
		Local:      h.ex.Partition().Local,
		Partitions: m.Partitions,
	})
}

// healthz is the health probe for routers and load balancers: 200 while
// the exchange accepts work, 503 + retry_after_ms while the admission
// controller reports overload (in-flight gate saturated, or a shed within
// the overload window) or the replica is degraded (outcome log failed —
// see the failure-model section in the package docs). Degraded wins over
// overloaded: it is the stronger condition, never clears on its own, and
// is reported with or without an admission controller installed. The
// handler itself is never shed — a prober must always get an answer.
func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	resp := api.Healthz{Status: "ok"}
	if adm := h.ex.Admission(); adm != nil {
		st := adm.Stats()
		resp.Inflight = st.Inflight
		resp.ShedTotal = st.ShedTotal()
		resp.SSEActive = st.SSEActive
		if st.Overloaded {
			resp.Status = "overloaded"
			resp.RetryAfterMS = retryMS(st.RetryAfter)
		}
	}
	if h.ex.Degraded() {
		resp.Status = "degraded"
		resp.WalFailedUnix = h.ex.DegradedSince()
		resp.RetryAfterMS = retryMS(time.Second)
	}
	status := http.StatusOK
	if resp.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, resp)
}

// metricsPrometheus serves the same health counters in the Prometheus text
// exposition format (see prometheus.go and the catalog in doc.go).
func (h *handler) metricsPrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = writePrometheus(w, h.ex)
}

func jobView(j *Job) api.Job {
	spec := j.Spec()
	return api.Job{
		ID:           j.ID(),
		State:        j.State(),
		Round:        j.Round(),
		PendingBids:  j.PendingBids(),
		Rule:         spec.Auction.Rule.Name(),
		K:            spec.Auction.K,
		BidWindowMS:  int64(spec.BidWindow / time.Millisecond),
		MaxRounds:    spec.MaxRounds,
		MinBids:      spec.MinBids,
		KeepOutcomes: spec.KeepOutcomes,
		HasStrategy:  spec.Equilibrium != nil,
	}
}

// parseLimit parses a ?limit= value with a default and an upper bound.
func parseLimit(s string, def, max int) (int, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad limit %q (want a positive integer)", s)
	}
	if n > max {
		n = max
	}
	return n, nil
}

// classify maps an exchange error onto its HTTP status and envelope code.
func classify(err error) (status int, code string) {
	var wp *WrongPartitionError
	var ov *OverloadError
	var dg *DegradedError
	switch {
	case errors.As(err, &wp):
		return http.StatusMisdirectedRequest, api.CodeWrongPartition
	case errors.As(err, &ov):
		return http.StatusTooManyRequests, api.CodeOverloaded
	case errors.As(err, &dg):
		return http.StatusServiceUnavailable, api.CodeDurabilityLost
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound, api.CodeUnknownJob
	case errors.Is(err, ErrRoundPending):
		return http.StatusNotFound, api.CodeRoundPending
	case errors.Is(err, ErrNoStrategy):
		return http.StatusNotFound, api.CodeNoStrategy
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// A long-poll (?wait=1) that ran out of time: the request was fine,
		// the outcome just is not there yet — retryable, not a client error.
		return http.StatusGatewayTimeout, api.CodeTimeout
	case errors.Is(err, ErrOutcomeEvicted):
		return http.StatusGone, api.CodeOutcomeEvicted
	case errors.Is(err, ErrDuplicateBid):
		return http.StatusConflict, api.CodeDuplicateBid
	case errors.Is(err, ErrJobClosed):
		return http.StatusConflict, api.CodeJobClosed
	case errors.Is(err, ErrBelowQuorum):
		return http.StatusConflict, api.CodeBelowQuorum
	case errors.Is(err, ErrExchangeClosed):
		return http.StatusConflict, api.CodeExchangeClosed
	case errors.Is(err, ErrNotRegistered):
		return http.StatusForbidden, api.CodeNotRegistered
	case errors.Is(err, ErrBlacklisted):
		return http.StatusForbidden, api.CodeBlacklisted
	default:
		return http.StatusBadRequest, api.CodeInvalidRequest
	}
}

// roundBodyHint is the buffer a round body starts in: a 64-bid, K=8 round
// is ~2.6 KB.
const roundBodyHint = 4 << 10

// writeRound answers 200 with one round's /v1 body (appendOutcome). The
// close and the scalar outcome reads answer a failed round with the error
// envelope instead, before they get here.
func writeRound(w http.ResponseWriter, ro *RoundOutcome) {
	body, err := appendOutcome(make([]byte, 0, roundBodyHint), ro)
	writeBody(w, body, err)
}

// writeBody answers 200 with a JSON body built whole — newline-terminated
// as json.Encoder terminates it, Content-Length set, one Write — or, when
// it did not encode, 500 internal_error with the error, as
// writeJSONIdempotent does.
func writeBody(w http.ResponseWriter, body []byte, err error) {
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	body = append(body, '\n')
	hdr := w.Header()
	hdr.Set("Content-Type", "application/json")
	hdr.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// writeJSONIdempotent writes a success response and, when the request
// carried an Idempotency-Key, records the exact bytes for replay.
func (h *handler) writeJSONIdempotent(w http.ResponseWriter, status int, v any, tok *idemToken) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	tok.finish(status, body)
}

// writeErr renders an exchange error in the uniform envelope. Timeouts
// advertise a retry delay; everything else is either permanent or resolved
// by the next round.
func writeErr(w http.ResponseWriter, err error) {
	status, code := classify(err)
	env := api.Error{Code: code, Message: err.Error()}
	if status == http.StatusGatewayTimeout {
		env.RetryAfterMS = int64(time.Second / time.Millisecond)
	}
	var wp *WrongPartitionError
	if errors.As(err, &wp) {
		env.Misdirect = partition.Misdirect{Partition: wp.Partition, ReplicaURL: wp.ReplicaURL, MapVersion: wp.MapVersion}
	}
	var ov *OverloadError
	if errors.As(err, &ov) {
		env.RetryAfterMS = retryMS(ov.RetryAfter)
	}
	var dg *DegradedError
	if errors.As(err, &dg) {
		// The condition clears only on replica restart (or failover), so
		// the hint is "soon, elsewhere": long enough for a router probe
		// cycle to steer traffic away, short enough that clients holding a
		// stale map re-resolve quickly.
		env.RetryAfterMS = retryMS(time.Second)
	}
	api.WriteJSON(w, status, env)
}

// retryMS renders a retry hint as whole milliseconds, clamped to ≥ 1 so a
// sub-millisecond hint still tells the client to back off.
func retryMS(d time.Duration) int64 {
	ms := int64(d / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return ms
}

// writeOverloaded renders an admission shed that never reached the
// exchange core (the in-flight gate) in the same envelope SubmitBid sheds
// use.
func writeOverloaded(w http.ResponseWriter, scope admission.Scope, retry time.Duration) {
	api.WriteJSON(w, http.StatusTooManyRequests, api.Error{
		Code:         api.CodeOverloaded,
		Message:      fmt.Sprintf("exchange: overloaded (%s limit), retry advised", scope),
		RetryAfterMS: retryMS(retry),
	})
}

// writeError renders an explicit status/code pair (request validation and
// routing failures that never reach the exchange core).
func writeError(w http.ResponseWriter, status int, code, message string) {
	api.WriteJSON(w, status, api.Error{Code: code, Message: message})
}
