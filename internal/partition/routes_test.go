package partition

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scripted is one replica of the two-replica test cluster: an httptest
// server that serves the cluster map, records every other request it sees
// and answers it from a script (default: 200 "ok").
type scripted struct {
	srv *httptest.Server

	mu       sync.Mutex
	seen     []recorded
	answer   func(w http.ResponseWriter, r *http.Request)
	mapDoc   http.HandlerFunc // nil: serve doc
	doc      Document
	mapHits  atomic.Int32
	inFlight atomic.Int32 // map fetches being served right now
	maxSeen  atomic.Int32 // high-water mark of inFlight
}

type recorded struct {
	method, uri, key string
	body             []byte
}

func newScripted(t *testing.T) *scripted {
	t.Helper()
	s := &scripted{}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == MapPath {
			s.mapHits.Add(1)
			n := s.inFlight.Add(1)
			defer s.inFlight.Add(-1)
			for {
				hi := s.maxSeen.Load()
				if n <= hi || s.maxSeen.CompareAndSwap(hi, n) {
					break
				}
			}
			s.mu.Lock()
			doc, custom := s.doc, s.mapDoc
			s.mu.Unlock()
			if custom != nil {
				custom(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(doc)
			return
		}
		body, _ := io.ReadAll(r.Body)
		s.mu.Lock()
		s.seen = append(s.seen, recorded{r.Method, r.URL.RequestURI(), r.Header.Get("Idempotency-Key"), body})
		answer := s.answer
		s.mu.Unlock()
		if answer != nil {
			answer(w, r)
			return
		}
		io.WriteString(w, "ok")
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *scripted) requests() []recorded {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]recorded(nil), s.seen...)
}

// refuse answers every request with a 421 carrying body.
func (s *scripted) refuse(body string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.answer = func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		io.WriteString(w, body)
	}
}

// pair starts replicas a (p0) and b (p1), both serving map v2; the caller's
// Routes starts on the v1 spelling of the same topology.
func pair(t *testing.T) (a, b *scripted, r *Routes) {
	t.Helper()
	a, b = newScripted(t), newScripted(t)
	parts := []Replica{{Partition: "p0", URL: a.srv.URL}, {Partition: "p1", URL: b.srv.URL}}
	a.doc = Document{Version: 2, Local: "p0", Partitions: parts}
	b.doc = Document{Version: 2, Local: "p1", Partitions: parts}
	r = &Routes{}
	r.Store(&Map{Version: 1, Partitions: parts})
	return a, b, r
}

func wrongPartition(owner *scripted) string {
	return fmt.Sprintf(`{"code":"wrong_partition","message":"elsewhere","partition":"p1","replica_url":%q,"map_version":2}`, owner.srv.URL)
}

// forward is what every consumer of the rule does: send, ask Reaim, and on
// feedback send the identical request to the owner exactly once.
func forward(t *testing.T, r *Routes, base, key string, body []byte) (resp *http.Response, reaims int) {
	t.Helper()
	send := func(base string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs/j/bids?x=1", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp = send(base)
	if owner, ok := r.Reaim(context.Background(), http.DefaultClient, base, resp); ok {
		return send(owner.URL), 1
	}
	return resp, 0
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRoutesReaimContract is the ≤1-retry convergence contract, once, next
// to the rule: what is routing feedback, what is not, and what the caller
// gets back in each case.
func TestRoutesReaimContract(t *testing.T) {
	body := []byte(`{"node_id":1,"qualities":[0.5,0.5],"payment":0.1}`)

	t.Run("fresh map: no re-aim, no fetch", func(t *testing.T) {
		a, b, r := pair(t)
		resp, reaims := forward(t, r, b.srv.URL, "k", body)
		if got := readAll(t, resp); reaims != 0 || resp.StatusCode != 200 || got != "ok" {
			t.Fatalf("reaims %d, status %d, body %q", reaims, resp.StatusCode, got)
		}
		if a.mapHits.Load()+b.mapHits.Load() != 0 || len(a.requests()) != 0 || r.Load().Version != 1 {
			t.Fatalf("a correctly routed request touched the map (fetches %d, version %d)", a.mapHits.Load()+b.mapHits.Load(), r.Load().Version)
		}
	})

	t.Run("stale map: one re-aim, map advanced, replay byte-identical", func(t *testing.T) {
		a, b, r := pair(t)
		a.refuse(wrongPartition(b))
		resp, reaims := forward(t, r, a.srv.URL, "key-1", body)
		if got := readAll(t, resp); reaims != 1 || resp.StatusCode != 200 || got != "ok" {
			t.Fatalf("reaims %d, status %d, body %q", reaims, resp.StatusCode, got)
		}
		if v := r.Load().Version; v != 2 {
			t.Fatalf("map version after the re-aim = %d, want 2 (refreshed from the refuser)", v)
		}
		if a.mapHits.Load() != 1 || b.mapHits.Load() != 0 {
			t.Fatalf("map fetched %d times from the refuser and %d from the owner, want 1 and 0", a.mapHits.Load(), b.mapHits.Load())
		}
		first, replay := a.requests(), b.requests()
		if len(first) != 1 || len(replay) != 1 {
			t.Fatalf("refuser saw %d requests, owner %d; want 1 and 1", len(first), len(replay))
		}
		if first[0].method != replay[0].method || first[0].uri != replay[0].uri || first[0].key != replay[0].key ||
			replay[0].key != "key-1" || !bytes.Equal(first[0].body, replay[0].body) || !bytes.Equal(replay[0].body, body) {
			t.Fatalf("replay differs from the original:\n%+v\n%+v", first[0], replay[0])
		}
	})

	t.Run("a second 421 from the named owner is returned as is", func(t *testing.T) {
		a, b, r := pair(t)
		a.refuse(wrongPartition(b))
		b.refuse(wrongPartition(a)) // the two replicas disagree: no loop
		resp, reaims := forward(t, r, a.srv.URL, "k", body)
		if got := readAll(t, resp); reaims != 1 || resp.StatusCode != http.StatusMisdirectedRequest || got != wrongPartition(a) {
			t.Fatalf("reaims %d, status %d, body %q", reaims, resp.StatusCode, got)
		}
		if len(a.requests()) != 1 || len(b.requests()) != 1 {
			t.Fatalf("requests: refuser %d, owner %d; want exactly 1 and 1", len(a.requests()), len(b.requests()))
		}
	})

	// A 421 that is not routing feedback sends nothing anywhere — not the
	// request, not a map fetch — and stays decodable by the caller.
	for name, envelope := range notFeedback {
		t.Run("not feedback: "+name, func(t *testing.T) {
			a, b, r := pair(t)
			envelope = strings.ReplaceAll(envelope, "OWNER", b.srv.URL)
			a.refuse(envelope)
			resp, reaims := forward(t, r, a.srv.URL, "k", body)
			if got := readAll(t, resp); reaims != 0 || resp.StatusCode != http.StatusMisdirectedRequest || got != envelope {
				t.Fatalf("reaims %d, status %d, body %q (want the replica's 421 unchanged)", reaims, resp.StatusCode, got)
			}
			if len(b.requests()) != 0 || a.mapHits.Load()+b.mapHits.Load() != 0 || r.Load().Version != 1 {
				t.Fatalf("a non-feedback 421 caused traffic: owner requests %d, map fetches %d", len(b.requests()), a.mapHits.Load()+b.mapHits.Load())
			}
		})
	}

	t.Run("a 421 body past the read bound comes back whole", func(t *testing.T) {
		a, _, r := pair(t)
		huge := `{"code":"not_routing","message":"` + strings.Repeat("x", maxPeerBody+4096) + `"}`
		a.refuse(huge)
		resp, reaims := forward(t, r, a.srv.URL, "k", body)
		if got := readAll(t, resp); reaims != 0 || got != huge {
			t.Fatalf("reaims %d, body of %d bytes, want the %d the replica sent", reaims, len(got), len(huge))
		}
	})

	t.Run("64 concurrent misroutes: one fetch in flight, all converge", func(t *testing.T) {
		a, b, r := pair(t)
		a.refuse(wrongPartition(b))
		a.mu.Lock()
		a.mapDoc = func(w http.ResponseWriter, _ *http.Request) { // slow enough for the herd to pile up behind it
			time.Sleep(20 * time.Millisecond)
			json.NewEncoder(w).Encode(a.doc)
		}
		a.mu.Unlock()
		var wg sync.WaitGroup
		var bad atomic.Int32
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, _ := http.NewRequest(http.MethodPost, a.srv.URL+"/v1/jobs/j/close", nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					bad.Add(1)
					return
				}
				owner, ok := r.Reaim(context.Background(), http.DefaultClient, a.srv.URL, resp)
				if !ok || owner.URL != b.srv.URL || owner.Partition != "p1" {
					bad.Add(1)
				}
			}()
		}
		wg.Wait()
		if bad.Load() != 0 {
			t.Fatalf("%d of 64 misroutes did not converge on the owner", bad.Load())
		}
		if a.maxSeen.Load() != 1 {
			t.Fatalf("map fetches in flight at once = %d, want at most 1", a.maxSeen.Load())
		}
		if v := r.Load().Version; v != 2 {
			t.Fatalf("map version after the herd = %d, want 2", v)
		}
	})

	for name, mapDoc := range map[string]http.HandlerFunc{
		"failing": func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusInternalServerError) },
		"garbled": func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, `{"version":2,"partitions":[{"partition":"p0","url":"ftp://x"}]}`)
		},
		"hanging": func(_ http.ResponseWriter, r *http.Request) { <-r.Context().Done() },
	} {
		t.Run("a "+name+" map fetch does not fail the re-aim", func(t *testing.T) {
			defer func(d time.Duration) { refreshTimeout = d }(refreshTimeout)
			refreshTimeout = 50 * time.Millisecond
			a, b, r := pair(t)
			a.refuse(wrongPartition(b))
			a.mu.Lock()
			a.mapDoc = mapDoc
			a.mu.Unlock()
			resp, reaims := forward(t, r, a.srv.URL, "k", body)
			if got := readAll(t, resp); reaims != 1 || resp.StatusCode != 200 || got != "ok" {
				t.Fatalf("reaims %d, status %d, body %q", reaims, resp.StatusCode, got)
			}
			if v := r.Load().Version; v != 1 {
				t.Fatalf("a %s fetch installed map version %d", name, v)
			}
		})
	}
}

// notFeedback are 421 bodies Reaim must leave alone; OWNER stands for a
// live replica's URL. They double as the fuzz seeds.
var notFeedback = map[string]string{
	"another code":       `{"code":"unknown_job","message":"m","partition":"p1","replica_url":"OWNER"}`,
	"no code":            `{"message":"m","partition":"p1","replica_url":"OWNER"}`,
	"no owner":           `{"code":"wrong_partition","message":"m","partition":"p1","map_version":2}`,
	"ftp owner":          `{"code":"wrong_partition","message":"m","replica_url":"ftp://example.com/x"}`,
	"relative owner":     `{"code":"wrong_partition","message":"m","replica_url":"/v1/jobs"}`,
	"schemeless owner":   `{"code":"wrong_partition","message":"m","replica_url":"example.com:8080"}`,
	"hostless owner":     `{"code":"wrong_partition","message":"m","replica_url":"http://"}`,
	"javascript owner":   `{"code":"wrong_partition","message":"m","replica_url":"javascript:alert(1)"}`,
	"owner is not a str": `{"code":"wrong_partition","message":"m","replica_url":17}`,
	"not json":           `<html>421 Misdirected Request</html>`,
	"empty":              ``,
}

// TestRoutesRefresh: a refresh installs only strictly newer maps, and
// reports — rather than installs — a map it cannot route by.
func TestRoutesRefresh(t *testing.T) {
	a, _, r := pair(t)
	ctx := context.Background()
	if err := r.Refresh(ctx, http.DefaultClient, a.srv.URL+"/"); err != nil || r.Load().Version != 2 {
		t.Fatalf("refresh to v2: err %v, version %d", err, r.Load().Version)
	}
	a.mu.Lock()
	a.doc.Version = 1
	a.mu.Unlock()
	if err := r.Refresh(ctx, http.DefaultClient, a.srv.URL); err != nil || r.Load().Version != 2 {
		t.Fatalf("an older map rolled routing back: err %v, version %d", err, r.Load().Version)
	}
	a.mu.Lock()
	a.mapDoc = func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNotFound) }
	a.mu.Unlock()
	if err := r.Refresh(ctx, http.DefaultClient, a.srv.URL); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("refresh against a replica without a map: err %v, want the status", err)
	}
	cold := &Routes{}
	if err := cold.Refresh(ctx, http.DefaultClient, "http://127.0.0.1:1"); err == nil || cold.Load() != nil {
		t.Fatalf("refresh against nothing: err %v, map %v", err, cold.Load())
	}
}

// FuzzDecodeMap: whatever a peer serves as its map, decoding never panics
// and never hands back a map that fails Validate.
func FuzzDecodeMap(f *testing.F) {
	f.Add(`{"version":2,"local":"p0","partitions":[{"partition":"p0","url":"http://h:1"},{"partition":"p1","url":"https://h:2"}]}`)
	f.Add(`{"version":0,"partitions":[{"partition":"p0","url":"http://h:1"}]}`)
	f.Add(`{"version":1,"partitions":[{"partition":"p0","url":"ftp://h:1"}]}`)
	f.Add(`{"version":1,"partitions":[{"partition":"p0","url":"http://h:1"},{"partition":"p0","url":"http://h:2"}]}`)
	f.Add(`{"version":1,"partitions":[]}`)
	f.Add(`{"version":1e99}`)
	f.Add(`[]`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, doc string) {
		m, err := DecodeMap(strings.NewReader(doc))
		if err != nil {
			if m != nil {
				t.Fatalf("error %v with a map", err)
			}
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("DecodeMap accepted a map Validate rejects: %v", verr)
		}
		if _, ok := m.Owner("job"); !ok {
			t.Fatal("a decoded map owns nothing")
		}
	})
}

// FuzzReaim: whatever a replica puts in a 421, Reaim never panics, never
// names an owner that is not absolute http(s), and when it declines leaves
// the body exactly as sent.
func FuzzReaim(f *testing.F) {
	for _, seed := range notFeedback {
		f.Add(seed)
	}
	f.Add(`{"code":"wrong_partition","partition":"p1","replica_url":"http://127.0.0.1:1/","map_version":2}`)
	f.Add(`{"code":"wrong_partition","replica_url":"HTTPS://Example.com"}`)
	f.Add(`{"code":"wrong_partition","replica_url":"http://[::1"}`)
	f.Add(`{"code":"wrong_partition","replica_url":" http://h"}`)
	// The refuser's map fetch goes nowhere: the fuzz is about the envelope.
	hc := &http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
		return nil, fmt.Errorf("no network in the fuzz")
	})}
	f.Fuzz(func(t *testing.T, body string) {
		r := &Routes{}
		resp := &http.Response{StatusCode: http.StatusMisdirectedRequest, Body: io.NopCloser(strings.NewReader(body))}
		owner, ok := r.Reaim(context.Background(), hc, "http://refuser", resp)
		if !ok {
			if got, err := io.ReadAll(resp.Body); err != nil || string(got) != body {
				t.Fatalf("declined, but the body reads %q (%v), sent %q", got, err, body)
			}
			return
		}
		if !absoluteHTTP(owner.URL) || strings.HasSuffix(owner.URL, "/") {
			t.Fatalf("re-aimed at %q", owner.URL)
		}
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
