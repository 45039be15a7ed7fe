package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fmore/internal/partition"
)

// eachTransport runs f over the router's own upstream and over
// partition.Transport, the net/http transport the router forwarded through
// before: the contract tests hold the two to the same behaviour.
func eachTransport(t *testing.T, f func(t *testing.T, tr http.RoundTripper)) {
	for _, tc := range []struct {
		name string
		tr   http.RoundTripper
	}{{"http.Transport", partition.Transport}, {"upstream", newUpstream()}} {
		t.Run(tc.name, func(t *testing.T) { f(t, tc.tr) })
	}
}

// frontOf serves a router in front of the one replica at url, forwarding
// through tr, and returns the router's URL.
func frontOf(t *testing.T, url string, tr http.RoundTripper) string {
	t.Helper()
	m, err := partition.Parse("p0=" + url)
	if err != nil {
		t.Fatal(err)
	}
	rt := newRouter(m)
	rt.hc.Transport = tr
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	return front.URL
}

// TestUpstreamSkipsConnectionsClosedWhileIdle: a replica that closes idle
// connections after 30 ms, and an unkeyed close every 80 ms through the
// router. Each close must go out on a live connection: one written to a
// connection the replica already closed cannot be replayed and answers 502.
func TestUpstreamSkipsConnectionsClosedWhileIdle(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr http.RoundTripper) {
		var closes atomic.Int64
		replica := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			closes.Add(1)
			_, _ = io.WriteString(w, `{"round":1}`)
		}))
		replica.Config.IdleTimeout = 30 * time.Millisecond
		replica.Start()
		t.Cleanup(replica.Close)
		front := frontOf(t, replica.URL, tr)
		const rounds = 5
		for i := 0; i < rounds; i++ {
			if i > 0 {
				time.Sleep(80 * time.Millisecond) // past the replica's idle timeout
			}
			resp, err := http.Post(front+"/v1/jobs/j/close", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("close %d answered %d: %s", i, resp.StatusCode, body)
			}
		}
		if n := closes.Load(); n != rounds {
			t.Fatalf("replica executed %d closes, want %d", n, rounds)
		}
	})
}

// hangupReplica answers the first request on each connection and hangs up
// on the second after reading it whole, without answering: a request after
// a warm-up meets a reused connection that dies under it. seen lists what it
// read, "METHOD path body", in order.
func hangupReplica(t *testing.T) (url string, seen func() []string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		reads  []string
		conns  []net.Conn
		closed bool
		wg     sync.WaitGroup
	)
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		closed = true
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	serve := func(c net.Conn) {
		defer wg.Done()
		defer c.Close()
		br := bufio.NewReader(c)
		for n := 0; n < 2; n++ {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			body, _ := io.ReadAll(req.Body)
			mu.Lock()
			reads = append(reads, req.Method+" "+req.URL.Path+" "+string(body))
			mu.Unlock()
			if n == 1 {
				return // read whole, never answered
			}
			_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}")
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if closed {
				mu.Unlock()
				c.Close()
				return
			}
			conns = append(conns, c)
			wg.Add(1)
			mu.Unlock()
			go serve(c)
		}
	}()
	return "http://" + ln.Addr().String(), func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), reads...)
	}
}

// TestUpstreamReplayRule: a request that dies with its reused connection is
// sent again, on a fresh one, only when net/http would send it again: a
// keyed POST and a GET are, an unkeyed close is not — it reached the
// replica once, and the client gets 502.
func TestUpstreamReplayRule(t *testing.T) {
	for _, tc := range []struct {
		name, method, path, key, body string
		status, arrivals              int
	}{
		{"keyed POST", http.MethodPost, "/v1/jobs/j/bids", "k-1", `{"node_id":7}`, http.StatusOK, 2},
		{"GET", http.MethodGet, "/v1/jobs/j/outcome", "", "", http.StatusOK, 2},
		{"unkeyed close", http.MethodPost, "/v1/jobs/j/close", "", `{}`, http.StatusBadGateway, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachTransport(t, func(t *testing.T, tr http.RoundTripper) {
				url, seen := hangupReplica(t)
				front := frontOf(t, url, tr)
				do := func(method, path, key, body string) int {
					req, err := http.NewRequest(method, front+path, strings.NewReader(body))
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
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					return resp.StatusCode
				}
				const warm = "GET /v1/jobs/w/outcome "
				if got := do(http.MethodGet, "/v1/jobs/w/outcome", "", ""); got != http.StatusOK {
					t.Fatalf("warm-up answered %d", got)
				}
				if got := do(tc.method, tc.path, tc.key, tc.body); got != tc.status {
					t.Fatalf("answered %d, want %d", got, tc.status)
				}
				want, arrivals := tc.method+" "+tc.path+" "+tc.body, 0
				for _, s := range seen() {
					switch s {
					case want:
						arrivals++
					case warm:
					default:
						t.Errorf("replica read %q", s)
					}
				}
				if arrivals != tc.arrivals {
					t.Fatalf("replica read %q %d times, want %d", want, arrivals, tc.arrivals)
				}
			})
		})
	}
}

// TestUpstreamInterimAndExpect: a client's Expect: 100-continue is the
// router's to answer — it holds the whole body before it forwards — so the
// replica never sees it; an interim 103 from the replica is skipped and the
// final answer relayed.
func TestUpstreamInterimAndExpect(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr http.RoundTripper) {
		expect := make(chan []string, 1)
		replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			expect <- r.Header.Values("Expect")
			body, _ := io.ReadAll(r.Body)
			w.Header().Set("Link", "</v1/jobs>; rel=preload")
			w.WriteHeader(http.StatusEarlyHints)
			w.Header().Del("Link")
			w.WriteHeader(http.StatusCreated)
			_, _ = w.Write(body)
		}))
		t.Cleanup(replica.Close)
		front := frontOf(t, replica.URL, tr)
		const spec = `{"id":"e"}`
		req, err := http.NewRequest(http.MethodPost, front+"/v1/jobs", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Expect", "100-continue")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || string(body) != spec {
			t.Fatalf("answered %d %q, want 201 %q", resp.StatusCode, body, spec)
		}
		if got := <-expect; len(got) != 0 {
			t.Fatalf("replica saw Expect %q", got)
		}
	})
}

// TestUpstreamLeavesRequestAlone: RoundTrip changes nothing of the request
// it is handed.
func TestUpstreamLeavesRequestAlone(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr http.RoundTripper) {
		replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusAccepted)
		}))
		t.Cleanup(replica.Close)
		req, err := http.NewRequest(http.MethodPost, replica.URL+"/v1/jobs/j/bids", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", "k")
		header, url, host, length := req.Header.Clone(), req.URL.String(), req.Host, req.ContentLength
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !reflect.DeepEqual(req.Header, header) || req.URL.String() != url || req.Host != host || req.ContentLength != length {
			t.Fatalf("request changed: %v %s %s %d", req.Header, req.URL, req.Host, req.ContentLength)
		}
	})
}

// TestUpstreamClientLeavesStream: a client that hangs up in the middle of an
// event stream ends the replica's request within a second — the router
// tears its upstream connection down instead of reading on for nobody.
func TestUpstreamClientLeavesStream(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr http.RoundTripper) {
		ended := make(chan struct{})
		replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/event-stream")
			_, _ = io.WriteString(w, "id: 1\ndata: {}\n\n")
			w.(http.Flusher).Flush()
			<-r.Context().Done()
			close(ended)
		}))
		t.Cleanup(replica.Close)
		front := frontOf(t, replica.URL, tr)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, front+"/v1/jobs/j/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if line, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil || line != "id: 1\n" {
			t.Fatalf("first frame: %q, %v", line, err)
		}
		cancel()
		resp.Body.Close()
		select {
		case <-ended:
		case <-time.After(time.Second):
			t.Fatal("the replica's request outlived the client by a second")
		}
	})
}

// TestRouterRelaysRedirect: a replica's 3xx goes back to the client as the
// replica sent it. Followed inside the router, a 301 to a POST close became
// a GET of the new address without the body.
func TestRouterRelaysRedirect(t *testing.T) {
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs/j/close":
			http.Redirect(w, r, "/v1/moved", http.StatusMovedPermanently)
		case r.Method == http.MethodGet && r.URL.Path == "/v1/moved":
			_, _ = io.WriteString(w, "moved")
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer replica.Close()
	m, err := partition.Parse("p0=" + replica.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(newRouter(m))
	defer front.Close()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := client.Post(front.URL+"/v1/jobs/j/close", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMovedPermanently || resp.Header.Get("Location") != "/v1/moved" {
		t.Fatalf("client saw %d Location %q, want the replica's 301 to /v1/moved", resp.StatusCode, resp.Header.Get("Location"))
	}
}

// BenchmarkRouterForward: one request through newRouter to a replica on
// loopback and its answer back — a bid (a 40 B acknowledgement) and a round
// close (a 2.7 KB answer). Client, router and replica share this process,
// so allocs/op counts all three.
func BenchmarkRouterForward(b *testing.B) {
	ack := []byte(`{"job_id":"j","round":1,"accepted":true}`)
	closed := []byte(`{"pad":"` + strings.Repeat("0", 2688) + `"}`)
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		body, status := closed, http.StatusOK
		if strings.HasSuffix(r.URL.Path, "/bids") {
			body, status = ack, http.StatusAccepted
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		_, _ = w.Write(body)
	}))
	defer replica.Close()
	m, err := partition.Parse("p0=" + replica.URL)
	if err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(newRouter(m))
	defer front.Close()
	client := &http.Client{Transport: partition.Transport}
	bid := []byte(`{"node_id":17,"qualities":[0.8,0.6],"payment":0.2}`)
	for _, bc := range []struct {
		name, path string
		body       []byte
		size       int64
	}{
		{"bid", "/v1/jobs/j/bids", bid, int64(len(ack))},
		{"close", "/v1/jobs/j/close", nil, int64(len(closed))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				resp, err := client.Post(front.URL+bc.path, "application/json", bytes.NewReader(bc.body))
				if err != nil {
					b.Fatal(err)
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 300 || n != bc.size {
					b.Fatalf("answered %d with %d bytes", resp.StatusCode, n)
				}
			}
		})
	}
}
