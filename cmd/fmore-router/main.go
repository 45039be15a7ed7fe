// fmore-router is a thin partition-aware reverse proxy in front of a
// cluster of fmore-exchange replicas. Clients that cannot (or prefer not
// to) run SDK-side routing talk to the router as if it were a single
// exchange; the router consults the cluster partition map and forwards each
// request to the replica that owns it.
//
//	go run ./cmd/fmore-router -addr :8779 \
//	  -replicas "p0=http://h1:8780,p1=http://h2:8780"
//
// -replicas takes the same "partition=url,..." spec that fmore-exchange's
// -partition-map does; start the router with the map the replicas were
// started with. The router keeps the map fresh on its own: whenever a
// replica answers wrong_partition (HTTP 421) — which happens after a map
// version bump the router has not seen — the router re-fetches
// GET /v1/cluster/partitions, installs the newer map, and re-forwards the
// buffered request once to the replica the refusal named. Requests
// therefore converge in at most one retry, and the retry carries the
// original Idempotency-Key so a redirected POST cannot double-apply. The
// rule is partition.Routes.Reaim, shared with pkg/client: the fetch runs
// inside the one misdirected request, from the replica that refused it,
// bounded and single-flight — concurrent misroutes re-forward at once
// without fetching, and a failed fetch never fails the re-forward. A 421
// that names no usable owner is relayed as the replica sent it.
//
// Each request goes where the Scope of its api.Routes row (api.Lookup)
// says; an unmatched path goes to the default replica. Event streams are
// proxied unbuffered.
//
// A forward runs on the request's own goroutine (upstream.go): the buffered
// request is written to a pooled keep-alive connection and the replica's
// answer read back on the goroutine net/http serves the request on, then
// relayed through a pooled buffer; the connection returns to the pool when
// the answer's body ends. An idle connection is checked before reuse (a
// non-blocking peek), so one the replica closed is never written to. A
// request that fails on a reused connection is sent again, once, on a fresh
// one, only under net/http's replay rule — nothing of it was written, or it
// is a GET (HEAD, OPTIONS, TRACE) or carries an Idempotency-Key — so an
// unkeyed round close is never sent twice. A replica's redirect is relayed
// to the client, never followed. https replicas, replicas behind an
// environment proxy, and every replica on a platform without the peek go
// through partition.Transport (net/http's transport).
//
// Overload protection: the router probes each replica's GET /v1/healthz
// once a second. While a replica advertises overload or durability loss
// (503 {"status":"overloaded"} or {"status":"degraded"} — the latter after
// a WAL failure under the degrade policy), bid submits bound for it are
// failed fast with 429 {"code":"overloaded","retry_after_ms":N} — the
// replica's own hint — without consuming a connection on the struggling
// backend. A per-replica circuit breaker does the same for replicas that
// stop answering at the transport level: three consecutive forward errors
// open the circuit and bid submits shed until a cooldown probe succeeds.
// Only bid submits are ever shed; job creation, round closes, registry
// writes and event streams always forward.
//
// The router's own counters are at GET /router/metrics in Prometheus text
// format: fmore_router_forward_total{partition=...}, fmore_router_fanout_total,
// fmore_router_retry_total, fmore_router_proxy_error_total,
// fmore_router_shed_total and fmore_router_map_version.
//
// -pprof-addr (off by default) serves net/http/pprof on a separate
// listener for live profiling, as fmore-exchange's does; while it is up,
// mutex contention is sampled (1 in 100). Keep it loopback-only in
// production.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on the DefaultServeMux served at -pprof-addr
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fmore/internal/admission"
	"fmore/internal/fault"
	"fmore/internal/partition"
	"fmore/pkg/api"
)

// fpForward is the router's forward-path failpoint (see internal/fault):
// dormant — one atomic load — unless a test or FMORE_FAILPOINTS arms it.
var fpForward = fault.New("router/forward")

// Breaker tuning for replica forwards: three consecutive transport errors
// open the circuit, and a probe is allowed through after one second.
const (
	breakerThreshold = 3
	breakerCooldown  = time.Second
)

// defaultShedRetryMS is the retry_after_ms the router advertises when it
// sheds without a fresher hint from the replica (breaker open, or an
// overloaded replica that sent no hint).
const defaultShedRetryMS = 1000

// router proxies exchange requests to the owning replica, retrying once on
// wrong_partition with a refreshed map.
type router struct {
	routes partition.Routes
	hc     *http.Client

	mu    sync.Mutex
	parts map[string]*replicaState // per-partition counters and health, filled lazily

	fanouts   atomic.Int64
	retries   atomic.Int64
	proxyErrs atomic.Int64
	sheds     atomic.Int64
}

// replicaState is what the router knows about one partition's replica: how
// many requests it forwarded there, and the replica's ability to take
// sheddable load — the overload bit its /v1/healthz advertised on the last
// probe (with the replica's retry hint), and a circuit breaker fed by
// forward outcomes for replicas that stop answering entirely.
type replicaState struct {
	forwards     atomic.Int64
	overloaded   atomic.Bool
	retryAfterMS atomic.Int64
	breaker      *admission.Breaker
}

func newRouter(m *partition.Map) *router {
	rt := &router{hc: &http.Client{Transport: newUpstream()}, parts: make(map[string]*replicaState)}
	rt.routes.Store(m)
	return rt
}

// part returns the partition's state, minting it on first use.
func (rt *router) part(id string) *replicaState {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	p := rt.parts[id]
	if p == nil {
		p = &replicaState{breaker: admission.NewBreaker(breakerThreshold, breakerCooldown)}
		rt.parts[id] = p
	}
	return p
}

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/router/metrics" && r.Method == http.MethodGet {
		rt.metrics(w)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, api.MaxBody+1))
	if err != nil {
		proxyError(w, http.StatusBadGateway, "reading request body: "+err.Error())
		return
	}
	if len(body) > api.MaxBody {
		proxyError(w, http.StatusRequestEntityTooLarge, "request body exceeds the router's buffer")
		return
	}

	m := rt.routes.Load()
	route, id, _ := api.Lookup(r.Method, r.URL.EscapedPath())
	if route.Scope == api.Fanout && m != nil {
		rt.fanout(w, r, m, body)
		return
	}
	target, ok := replicaFor(route, id, m, body)
	if !ok {
		proxyError(w, http.StatusBadGateway, "router has no partition map")
		return
	}
	// Bid submits are the only load the router sheds: fail fast while the
	// replica advertises overload (healthz probe) or has stopped answering
	// (open breaker), instead of adding our connection to its pile.
	// Shedding anything else would stall auctions rather than protect them.
	rep := rt.part(target.Partition)
	if route == api.SubmitBid {
		if rep.overloaded.Load() {
			rt.sheds.Add(1)
			shedOverloaded(w, rep.retryAfterMS.Load())
			return
		}
		if !rep.breaker.Allow(time.Now().UnixNano()) {
			rt.sheds.Add(1)
			shedOverloaded(w, defaultShedRetryMS)
			return
		}
	}
	rep.forwards.Add(1)

	resp, err := rt.send(r, target.URL, body)
	if err != nil {
		rep.breaker.Failure(time.Now().UnixNano())
		rt.proxyErrs.Add(1)
		proxyError(w, http.StatusBadGateway, "forwarding to "+target.Partition+": "+err.Error())
		return
	}
	rep.breaker.Success()
	// A replica that does not own the job answers 421 with the owner's URL:
	// refresh the map (a version bump is the usual cause) and re-forward the
	// buffered request once. The replayed request is byte-identical,
	// Idempotency-Key included, so redirected POSTs stay exactly-once.
	if owner, ok := rt.routes.Reaim(r.Context(), rt.hc, target.URL, resp); ok {
		if cur := rt.routes.Load(); cur != m {
			log.Printf("partition map advanced to version %d (%s)", cur.Version, cur.Spec())
		}
		rt.retries.Add(1)
		if owner.Partition != "" {
			rt.part(owner.Partition).forwards.Add(1)
		}
		resp, err = rt.send(r, owner.URL, body)
		if err != nil {
			rt.proxyErrs.Add(1)
			proxyError(w, http.StatusBadGateway, "retrying on "+owner.URL+": "+err.Error())
			return
		}
	}
	copyResponse(w, resp)
}

// replicaFor resolves the replica a request belongs to by its route's
// scope; id is the route's {id}.
func replicaFor(route api.Route, id string, m *partition.Map, body []byte) (partition.Replica, bool) {
	if route.Scope == api.JobBody {
		var spec api.JobRequest
		_ = json.Unmarshal(body, &spec) // only the id matters; the rest is the owner's to judge
		id = spec.ID
	}
	if (route.Scope == api.JobPath || route.Scope == api.JobBody) && id != "" {
		if owner, ok := m.Owner(id); ok {
			return owner, true
		}
	}
	return m.Default()
}

// fanout sends a node-registry write to every replica. The primary
// (default) replica's response is the one returned to the client.
func (rt *router) fanout(w http.ResponseWriter, r *http.Request, m *partition.Map, body []byte) {
	rt.fanouts.Add(1)
	primary, _ := m.Default()
	var primaryResp *http.Response
	for _, rep := range m.Partitions {
		rt.part(rep.Partition).forwards.Add(1)
		resp, err := rt.send(r, rep.URL, body)
		if err != nil {
			rt.proxyErrs.Add(1)
			if rep.Partition == primary.Partition {
				proxyError(w, http.StatusBadGateway, "forwarding to "+rep.Partition+": "+err.Error())
				return
			}
			continue
		}
		if rep.Partition == primary.Partition {
			primaryResp = resp
		} else {
			// Read the answer to its end before closing it: the transport
			// drops a connection whose response was closed unread, and the
			// next registration would dial the replica again. A registry
			// answer is tens of bytes; the bound is against a replica that
			// streams.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
		}
	}
	if primaryResp == nil {
		proxyError(w, http.StatusBadGateway, "no replica answered the fan-out")
		return
	}
	copyResponse(w, primaryResp)
}

// send forwards the buffered request to one replica base URL.
func (rt *router) send(r *http.Request, baseURL string, body []byte) (*http.Response, error) {
	u := strings.TrimRight(baseURL, "/") + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vv := range r.Header {
		// Expect is the router's to answer: it holds the whole body already.
		if isHopByHop(k) || k == "Expect" {
			continue
		}
		req.Header[k] = vv
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		prior := r.Header.Get("X-Forwarded-For")
		if prior != "" {
			host = prior + ", " + host
		}
		req.Header.Set("X-Forwarded-For", host)
	}
	// Chaos lever for the forward path: an armed router/forward failpoint
	// makes this hop fail (or stall) like a flaky replica link, feeding the
	// same breaker a real transport error would.
	if err := fpForward.Fire(); err != nil {
		return nil, err
	}
	// The transport, not the client: a replica's redirect is the client's
	// to follow, and following it here turned a POST into a GET.
	return rt.hc.Transport.RoundTrip(req)
}

// shedOverloaded answers a router-level shed in the exchange's own
// overload envelope so SDK clients retry after the hint exactly as they
// would for a replica-issued 429.
func shedOverloaded(w http.ResponseWriter, retryMS int64) {
	if retryMS <= 0 {
		retryMS = defaultShedRetryMS
	}
	api.WriteJSON(w, http.StatusTooManyRequests, api.Error{
		Code:         api.CodeOverloaded,
		Message:      "replica is overloaded; retry after the hint",
		RetryAfterMS: retryMS,
	})
}

// probeInterval is how often the router re-checks every replica's
// /v1/healthz.
const probeInterval = time.Second

// probeLoop re-checks every replica's /v1/healthz once per probeInterval,
// for the life of the process.
func (rt *router) probeLoop() {
	for range time.Tick(probeInterval) {
		rt.probeOnce(context.Background())
	}
}

// probeOnce polls each replica's health endpoint and updates its overload
// bit and retry hint. A probe that fails at the transport level leaves the
// last-known state alone — the forward-path breaker handles dead replicas,
// and flapping the overload bit on a lost probe would shed load a healthy
// replica could serve.
func (rt *router) probeOnce(ctx context.Context) {
	m := rt.routes.Load()
	if m == nil {
		return
	}
	for _, rep := range m.Partitions {
		h := rt.part(rep.Partition)
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		req, err := http.NewRequestWithContext(pctx, http.MethodGet,
			strings.TrimRight(rep.URL, "/")+api.GetHealthz.Path, nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := rt.hc.Do(req)
		if err != nil {
			cancel()
			continue
		}
		var hz api.Healthz
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&hz)
		resp.Body.Close()
		cancel()
		if resp.StatusCode == http.StatusServiceUnavailable {
			h.retryAfterMS.Store(hz.RetryAfterMS)
			h.overloaded.Store(true)
		} else {
			h.overloaded.Store(false)
		}
	}
}

// relayBufs are the buffers copyResponse relays answer bodies through.
var relayBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// copyResponse relays status, headers and body. The body goes through a
// pooled buffer with the ResponseWriter's ReadFrom hidden — that writes a
// body over 512 bytes as two syscalls through a fresh 32 KiB buffer — so a
// round close or an outcome read leaves in one write. Event streams (SSE)
// are flushed write-by-write so round events reach the subscriber as they
// happen rather than when a buffer fills.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vv := range resp.Header {
		if isHopByHop(k) {
			continue
		}
		h[k] = vv
	}
	w.WriteHeader(resp.StatusCode)
	var dst io.Writer = struct{ io.Writer }{w}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		if f, ok := w.(http.Flusher); ok {
			dst = flushWriter{w: w, f: f}
		}
	}
	buf := relayBufs.Get().(*[32 << 10]byte)
	_, _ = io.CopyBuffer(dst, resp.Body, buf[:])
	relayBufs.Put(buf)
}

type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.f.Flush()
	return n, err
}

func isHopByHop(header string) bool {
	switch http.CanonicalHeaderKey(header) {
	case "Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
		"Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

// proxyError answers a router-level failure in the exchange's JSON envelope
// shape so SDK clients surface it as a regular APIError.
func proxyError(w http.ResponseWriter, status int, msg string) {
	api.WriteJSON(w, status, api.Error{Code: api.CodeRouterError, Message: msg})
}

// metrics serves the router's counters in Prometheus text format 0.0.4.
func (rt *router) metrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b bytes.Buffer
	b.WriteString("# HELP fmore_router_forward_total Requests forwarded to each replica, by partition.\n")
	b.WriteString("# TYPE fmore_router_forward_total counter\n")
	rt.mu.Lock()
	parts := make([]string, 0, len(rt.parts))
	for p := range rt.parts {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	for _, p := range parts {
		// A partition that was only ever probed has no sample yet.
		if n := rt.parts[p].forwards.Load(); n > 0 {
			fmt.Fprintf(&b, "fmore_router_forward_total{partition=%q} %d\n", p, n)
		}
	}
	rt.mu.Unlock()
	b.WriteString("# HELP fmore_router_fanout_total Node-registry writes fanned out to every replica.\n")
	b.WriteString("# TYPE fmore_router_fanout_total counter\n")
	fmt.Fprintf(&b, "fmore_router_fanout_total %d\n", rt.fanouts.Load())
	b.WriteString("# HELP fmore_router_retry_total Requests re-forwarded after a wrong_partition refusal.\n")
	b.WriteString("# TYPE fmore_router_retry_total counter\n")
	fmt.Fprintf(&b, "fmore_router_retry_total %d\n", rt.retries.Load())
	b.WriteString("# HELP fmore_router_proxy_error_total Forwards that failed at the transport level.\n")
	b.WriteString("# TYPE fmore_router_proxy_error_total counter\n")
	fmt.Fprintf(&b, "fmore_router_proxy_error_total %d\n", rt.proxyErrs.Load())
	b.WriteString("# HELP fmore_router_shed_total Bid submits failed fast (429) because the owning replica was overloaded or its circuit was open.\n")
	b.WriteString("# TYPE fmore_router_shed_total counter\n")
	fmt.Fprintf(&b, "fmore_router_shed_total %d\n", rt.sheds.Load())
	b.WriteString("# HELP fmore_router_map_version Version of the partition map the router routes by.\n")
	b.WriteString("# TYPE fmore_router_map_version gauge\n")
	version := int64(0)
	if m := rt.routes.Load(); m != nil {
		version = m.Version
	}
	fmt.Fprintf(&b, "fmore_router_map_version %d\n", version)
	_, _ = w.Write(b.Bytes())
}

func main() {
	addr := flag.String("addr", ":8779", "HTTP listen address (:0 picks a free port, logged on start)")
	replicas := flag.String("replicas", "",
		`cluster partition map, "p0=http://host:port,p1=..." (same spec the replicas were started with)`)
	pprofAddr := flag.String("pprof-addr", "",
		"serve net/http/pprof on this address (empty = disabled); keep it loopback-only in production")
	flag.Parse()

	if err := fault.EnableFromEnv(); err != nil {
		log.Fatalf("%s: %v", fault.EnvVar, err)
	}
	if *pprofAddr != "" {
		// Its own listener: the service listener serves the router itself,
		// never the DefaultServeMux net/http/pprof registers on. Mutex
		// contention is sampled only while it is up, as in fmore-exchange.
		runtime.SetMutexProfileFraction(100)
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	m, err := partition.Parse(*replicas)
	if err != nil {
		log.Fatalf("parsing -replicas: %v", err)
	}
	rt := newRouter(m)
	go rt.probeLoop()

	listener, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	server := &http.Server{
		Handler:           rt,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("fmore-router listening on %s (replicas=%q)", listener.Addr(), m.Spec())
	if err := server.Serve(listener); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
}
