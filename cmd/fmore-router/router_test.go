package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fmore/internal/auction"
	"fmore/internal/exchange"
	"fmore/internal/partition"
	"fmore/internal/promtext"
	"fmore/pkg/api"
)

// cluster is a two-replica exchange cluster plus a router in front of it,
// all in-process.
type cluster struct {
	ex     [2]*exchange.Exchange
	rt     *router
	router *httptest.Server
	m      *partition.Map
}

func startCluster(t *testing.T, opts exchange.Options) *cluster {
	t.Helper()
	c := &cluster{}
	handles := [2]*partition.Handle{partition.NewHandle(nil), partition.NewHandle(nil)}
	var urls [2]string
	for i, part := range []string{"p0", "p1"} {
		o := opts
		o.Partition = &partition.Assignment{Local: part, Map: handles[i]}
		c.ex[i] = exchange.New(o)
		srv := httptest.NewServer(exchange.NewHandler(c.ex[i]))
		urls[i] = srv.URL
		ex := c.ex[i]
		t.Cleanup(func() { srv.Close(); ex.Close() })
	}
	c.m = &partition.Map{Version: 1, Partitions: []partition.Replica{
		{Partition: "p0", URL: urls[0]},
		{Partition: "p1", URL: urls[1]},
	}}
	if err := c.m.Validate(); err != nil {
		t.Fatal(err)
	}
	handles[0].Advance(c.m)
	handles[1].Advance(c.m)
	c.rt = newRouter(c.m)
	c.router = httptest.NewServer(c.rt)
	t.Cleanup(c.router.Close)
	return c
}

// jobOn finds a job ID owned by the given partition under m.
func jobOn(t *testing.T, m *partition.Map, part string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("viaproxy-%d", i)
		if m.Owns(part, id) {
			return id
		}
	}
	t.Fatalf("no candidate job for %s", part)
	return ""
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil && err != io.EOF {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, decoded
}

func createJob(t *testing.T, base, id string) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/jobs", map[string]any{
		"id": id, "k": 2, "seed": 5,
		"rule": map[string]any{"kind": "additive", "alpha": []float64{0.5, 0.5}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d body %v", id, resp.StatusCode, body)
	}
}

func scrapeRouter(t *testing.T, c *cluster) *promtext.Metrics {
	t.Helper()
	resp, err := http.Get(c.router.URL + "/router/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/router/metrics status %d", resp.StatusCode)
	}
	metrics, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("router exposition failed validation: %v", err)
	}
	return metrics
}

func forwardCount(t *testing.T, metrics *promtext.Metrics, part string) float64 {
	t.Helper()
	fam, ok := metrics.Families["fmore_router_forward_total"]
	if !ok {
		t.Fatal("no fmore_router_forward_total family")
	}
	for _, s := range fam.Samples {
		if s.Labels["partition"] == part {
			return s.Value
		}
	}
	return 0
}

// TestRouterRoutesByJobPath drives jobs owned by both partitions through the
// router and checks each landed on its owning replica with zero retries,
// and that the router's exposition validates.
func TestRouterRoutesByJobPath(t *testing.T) {
	c := startCluster(t, exchange.Options{})
	job0, job1 := jobOn(t, c.m, "p0"), jobOn(t, c.m, "p1")

	for _, id := range []string{job0, job1} {
		createJob(t, c.router.URL, id)
		resp, body := postJSON(t, c.router.URL+"/v1/jobs/"+id+"/bids", map[string]any{
			"node_id": 1, "qualities": []float64{0.7, 0.3}, "payment": 0.1,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("bid on %s: status %d body %v", id, resp.StatusCode, body)
		}
		resp, body = postJSON(t, c.router.URL+"/v1/jobs/"+id+"/close", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("close %s: status %d body %v", id, resp.StatusCode, body)
		}
		if body["round"] != float64(1) {
			t.Fatalf("close %s: round %v, want 1", id, body["round"])
		}
	}
	if _, ok := c.ex[0].Job(job0); !ok {
		t.Fatalf("%s not hosted on p0", job0)
	}
	if _, ok := c.ex[1].Job(job1); !ok {
		t.Fatalf("%s not hosted on p1", job1)
	}
	// Neither replica ever saw a request for a job it does not own.
	if n := c.ex[0].Metrics().WrongPartition + c.ex[1].Metrics().WrongPartition; n != 0 {
		t.Fatalf("replicas refused %d requests; the router should route first-try", n)
	}

	metrics := scrapeRouter(t, c)
	if got := forwardCount(t, metrics, "p0"); got < 3 {
		t.Fatalf("forward_total{partition=p0} = %v, want >= 3", got)
	}
	if got := forwardCount(t, metrics, "p1"); got < 3 {
		t.Fatalf("forward_total{partition=p1} = %v, want >= 3", got)
	}
	for name, want := range map[string]float64{
		"fmore_router_retry_total":       0,
		"fmore_router_proxy_error_total": 0,
		"fmore_router_map_version":       1,
	} {
		got, err := metrics.Value(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestRouterRoutesEscapedJobIDs: a job ID that must be escaped in a path —
// a slash, a percent sign, an escape sequence spelled out, a space — is
// routed by the ID itself, so its requests reach the owner first try.
func TestRouterRoutesEscapedJobIDs(t *testing.T) {
	c := startCluster(t, exchange.Options{})
	for _, stem := range []string{"a/b", "50%", "x%2Fy", "with space"} {
		id := ""
		for i := 0; id == ""; i++ {
			if cand := fmt.Sprintf("%s-%d", stem, i); c.m.Owns("p1", cand) {
				id = cand
			}
		}
		createJob(t, c.router.URL, id)
		resp, err := http.Get(c.router.URL + "/v1/jobs/" + url.PathEscape(id))
		if err != nil {
			t.Fatal(err)
		}
		var job api.Job
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || job.ID != id {
			t.Fatalf("GET job %q through the router: %d %+v %v", id, resp.StatusCode, job, err)
		}
		if _, ok := c.ex[1].Job(id); !ok {
			t.Fatalf("%q not hosted on p1", id)
		}
	}
	if got, err := scrapeRouter(t, c).Value("fmore_router_retry_total"); err != nil || got != 0 {
		t.Errorf("fmore_router_retry_total = %v (%v), want 0", got, err)
	}
	for i, ex := range c.ex {
		if n := ex.Metrics().WrongPartition; n != 0 {
			t.Errorf("replica %d refused %d requests as wrong_partition, want 0", i, n)
		}
	}
}

// TestRouterRetriesOnMapBump advances the cluster map under a router still
// routing by v1: the misdirected create is refused once, re-forwarded to
// the owner the refusal named, and the router's map catches up.
func TestRouterRetriesOnMapBump(t *testing.T) {
	c := startCluster(t, exchange.Options{})

	// v2 renames p0 → p2; pick a job moving p0 → p1 so the stale router
	// aims at replica 0 and replica 1 is the true owner.
	v2 := &partition.Map{Version: 2, Partitions: []partition.Replica{
		{Partition: "p2", URL: c.m.Partitions[0].URL},
		{Partition: "p1", URL: c.m.Partitions[1].URL},
	}}
	var moved string
	for i := 0; i < 8192 && moved == ""; i++ {
		id := fmt.Sprintf("bump-%d", i)
		if c.m.Owns("p0", id) && v2.Owns("p1", id) {
			moved = id
		}
	}
	if moved == "" {
		t.Fatal("no job moves p0→p1 across the bump")
	}
	c.ex[0].Partition().Map.Advance(v2)
	c.ex[1].Partition().Map.Advance(v2)

	createJob(t, c.router.URL, moved)
	if _, ok := c.ex[1].Job(moved); !ok {
		t.Fatal("job did not land on the v2 owner")
	}

	metrics := scrapeRouter(t, c)
	if got, _ := metrics.Value("fmore_router_retry_total"); got != 1 {
		t.Fatalf("retry_total = %v, want exactly 1", got)
	}
	// The refresh kicked off by the refusal is asynchronous.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got, _ := scrapeRouter(t, c).Value("fmore_router_map_version"); got == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router map never advanced to version 2")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterFansOutNodeWrites registers a node through the router and checks
// the registration reached every replica: bids gated by -require-registration
// succeed on jobs hosted by either one.
func TestRouterFansOutNodeWrites(t *testing.T) {
	c := startCluster(t, exchange.Options{RequireRegistration: true})
	resp, body := postJSON(t, c.router.URL+"/v1/nodes", map[string]any{"node_id": 7, "meta": "edge-7"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d body %v", resp.StatusCode, body)
	}

	for _, part := range []string{"p0", "p1"} {
		id := jobOn(t, c.m, part)
		createJob(t, c.router.URL, id)
		resp, body := postJSON(t, c.router.URL+"/v1/jobs/"+id+"/bids", map[string]any{
			"node_id": 7, "qualities": []float64{0.6, 0.4}, "payment": 0.1,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("registered node refused on %s: status %d body %v", part, resp.StatusCode, body)
		}
	}
	if got, _ := scrapeRouter(t, c).Value("fmore_router_fanout_total"); got != 1 {
		t.Fatalf("fanout_total = %v, want 1", got)
	}
}

// TestRouterEventsStream subscribes to a job's SSE stream through the router
// and checks a round event arrives (the stream is proxied, not buffered to
// completion).
func TestRouterEventsStream(t *testing.T) {
	c := startCluster(t, exchange.Options{})
	id := jobOn(t, c.m, "p1")
	createJob(t, c.router.URL, id)

	req, err := http.NewRequest(http.MethodGet, c.router.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type %q", ct)
	}

	if _, err := c.ex[1].SubmitBid(id, auction.Bid{NodeID: 2, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ex[1].CloseRound(id); err != nil {
		t.Fatal(err)
	}

	got := make(chan string, 1)
	go func() {
		buf := make([]byte, 4096)
		var acc []byte
		for {
			n, err := resp.Body.Read(buf)
			acc = append(acc, buf[:n]...)
			if bytes.Contains(acc, []byte("round_closed")) || err != nil {
				got <- string(acc)
				return
			}
		}
	}()
	select {
	case frames := <-got:
		if !strings.Contains(frames, "round_closed") {
			t.Fatalf("no round_closed event in stream:\n%s", frames)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round_closed event never arrived through the router")
	}
}

// TestRouterShedsOverloadedReplica: a healthz probe that finds a replica
// overloaded makes the router fail bid submits fast with the replica's own
// retry hint, while round closes still forward; a healthy probe restores
// forwarding, and the sheds show up on /router/metrics.
func TestRouterShedsOverloadedReplica(t *testing.T) {
	var overloaded atomic.Bool
	overloaded.Store(true)
	var backendBids, backendCloses atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/healthz":
			w.Header().Set("Content-Type", "application/json")
			if overloaded.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"status":"overloaded","retry_after_ms":250}`)
				return
			}
			io.WriteString(w, `{"status":"ok"}`)
		case strings.HasSuffix(r.URL.Path, "/bids"):
			backendBids.Add(1)
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"round":1}`)
		case strings.HasSuffix(r.URL.Path, "/close"):
			backendCloses.Add(1)
			io.WriteString(w, `{"round":1}`)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer backend.Close()

	m := &partition.Map{Version: 1, Partitions: []partition.Replica{{Partition: "p0", URL: backend.URL}}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	rt := newRouter(m)
	front := httptest.NewServer(rt)
	defer front.Close()
	ctx := context.Background()

	rt.probeOnce(ctx)
	resp, err := http.Post(front.URL+"/v1/jobs/j1/bids", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || env["code"] != "overloaded" {
		t.Fatalf("shed response = %d %v", resp.StatusCode, env)
	}
	if ms, _ := env["retry_after_ms"].(float64); ms != 250 {
		t.Fatalf("retry_after_ms = %v, want the replica's hint 250", env["retry_after_ms"])
	}
	if got := backendBids.Load(); got != 0 {
		t.Fatalf("backend saw %d bids while shedding, want 0", got)
	}
	// Round closes are never shed.
	resp, err = http.Post(front.URL+"/v1/jobs/j1/close", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || backendCloses.Load() != 1 {
		t.Fatalf("close while overloaded: status %d, backend closes %d", resp.StatusCode, backendCloses.Load())
	}

	// A healthy probe lifts the shed.
	overloaded.Store(false)
	rt.probeOnce(ctx)
	resp, err = http.Post(front.URL+"/v1/jobs/j1/bids", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || backendBids.Load() != 1 {
		t.Fatalf("bid after recovery: status %d, backend bids %d", resp.StatusCode, backendBids.Load())
	}

	mresp, err := http.Get(front.URL + "/router/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	parsed, err := promtext.Parse(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := parsed.Value("fmore_router_shed_total"); err != nil || v != 1 {
		t.Fatalf("fmore_router_shed_total = %v (%v), want 1", v, err)
	}
}

// TestRouterBreakerFailsFast: a replica that stops answering at the
// transport level trips the per-replica breaker after three consecutive
// forward errors, after which bid submits shed without touching the socket.
func TestRouterBreakerFailsFast(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore

	m := &partition.Map{Version: 1, Partitions: []partition.Replica{{Partition: "p0", URL: deadURL}}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	rt := newRouter(m)
	front := httptest.NewServer(rt)
	defer front.Close()

	for i := 0; i < breakerThreshold; i++ {
		resp, err := http.Post(front.URL+"/v1/jobs/j1/bids", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("forward %d while circuit closed: status %d, want 502", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(front.URL+"/v1/jobs/j1/bids", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || env["code"] != "overloaded" {
		t.Fatalf("post-trip response = %d %v, want fast 429 overloaded", resp.StatusCode, env)
	}
	if rt.sheds.Load() != 1 {
		t.Fatalf("sheds = %d, want 1", rt.sheds.Load())
	}
}

// waveBackend is a replica stand-in that holds every request until width of
// them are in flight — so a wave needs width connections at once — and
// counts the connections it was ever dialled on.
func waveBackend(t *testing.T, width int) (url string, opened *atomic.Int64) {
	t.Helper()
	var mu sync.Mutex
	arrived, gate := 0, make(chan struct{})
	opened = new(atomic.Int64)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		mu.Lock()
		arrived++
		g := gate
		if arrived == width {
			arrived, gate = 0, make(chan struct{})
			close(g)
		}
		mu.Unlock()
		<-g
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv.URL, opened
}

// TestRouterKeepsUpstreamConnections: sixteen forwards in flight to one
// replica, wave after wave, ride the sixteen connections the first wave
// opened. On http.DefaultTransport (two idle connections per host) every
// wave after the first re-dialled fourteen.
func TestRouterKeepsUpstreamConnections(t *testing.T) {
	const width, waves = 16, 4
	url, opened := waveBackend(t, width)
	m, err := partition.Parse("p0=" + url)
	if err != nil {
		t.Fatal(err)
	}
	rt := newRouter(m)
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < width; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/j/outcome", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("forward answered %d", rec.Code)
				}
			}()
		}
		wg.Wait()
	}
	if n := opened.Load(); n > width {
		t.Errorf("%d waves of %d forwards opened %d upstream connections, want at most %d", waves, width, n, width)
	}
}

// TestRouterFanoutKeepsUpstreamConnections: registrations one after another
// through a two-replica router reach the non-primary replica over the one
// connection the first opened. A fan-out that closed that replica's answer
// unread made the transport drop the connection, so each registration
// dialled again.
func TestRouterFanoutKeepsUpstreamConnections(t *testing.T) {
	const registrations = 8
	var urls [2]string
	var opened [2]atomic.Int64
	for i := range urls {
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, `{"bids":0,"node_id":7}`+"\n")
		}))
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				opened[i].Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	m, err := partition.Parse("p0=" + urls[0] + ",p1=" + urls[1])
	if err != nil {
		t.Fatal(err)
	}
	primary, _ := m.Default()
	secondary := 1
	if primary.URL == urls[1] {
		secondary = 0
	}
	rt := newRouter(m)
	for i := 0; i < registrations; i++ {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/nodes", strings.NewReader(`{"node_id":7}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("registration %d answered %d: %s", i, rec.Code, rec.Body)
		}
	}
	if n := opened[secondary].Load(); n != 1 {
		t.Errorf("%d registrations opened %d connections to the non-primary replica, want 1", registrations, n)
	}
	if n := opened[1-secondary].Load(); n != 1 {
		t.Errorf("%d registrations opened %d connections to the primary replica, want 1", registrations, n)
	}
}
