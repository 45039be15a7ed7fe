package client

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fmore/internal/exchange"
)

// collectRounds drains the watch until n round_closed events arrived (or
// the deadline passes), returning them in delivery order.
func collectRounds(t *testing.T, w *Watch, n int, timeout time.Duration) []Event {
	t.Helper()
	var got []Event
	deadline := time.After(timeout)
	for len(got) < n {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("watch ended early (err=%v) after %d/%d rounds", w.Err(), len(got), n)
			}
			if ev.Type == RoundClosed {
				got = append(got, ev)
			}
		case <-deadline:
			t.Fatalf("timed out with %d/%d rounds", len(got), n)
		}
	}
	return got
}

// TestWatchRoundsLive: a watch delivers every closed round with the outcome
// inline, in order.
func TestWatchRoundsLive(t *testing.T) {
	c, _ := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := c.CreateJob(ctx, additiveSpec("live", 1, 2)); err != nil {
		t.Fatal(err)
	}
	w, err := c.WatchRounds(ctx, "live", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for round := 1; round <= 3; round++ {
			for node := 0; node < 3; node++ {
				_, _ = c.SubmitBid(ctx, "live", Bid{NodeID: node, Qualities: []float64{0.4, 0.6}, Payment: 0.1})
			}
			_, _ = c.CloseRound(ctx, "live")
		}
	}()
	got := collectRounds(t, w, 3, 10*time.Second)
	for i, ev := range got {
		if ev.Round != i+1 || ev.Outcome == nil || ev.Outcome.NumBids != 3 {
			t.Fatalf("event %d = %+v (outcome %+v)", i, ev, ev.Outcome)
		}
	}
	// WatchRounds against a missing job fails fast.
	if _, err := c.WatchRounds(ctx, "ghost", WatchOptions{}); ErrorCode(err) != CodeUnknownJob {
		t.Fatalf("missing-job watch err = %v", err)
	}
}

// TestWatchReconnectResumesLosslessly drops the SSE connection from the
// server side mid-stream and checks the watch resumes via Last-Event-ID
// with no lost and no duplicated rounds.
func TestWatchReconnectResumesLosslessly(t *testing.T) {
	ex := exchange.New(exchange.Options{})
	inner := exchange.NewHandler(ex)
	var (
		eventConns  atomic.Int32
		lastEventID atomic.Value // string: header seen on the reconnect
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			n := eventConns.Add(1)
			if n == 2 {
				lastEventID.Store(r.Header.Get("Last-Event-ID"))
			}
			if n == 1 {
				// First stream: pass one round through, then kill the
				// connection abruptly.
				inner.ServeHTTP(&droppingWriter{ResponseWriter: w, dropAfterRounds: 1}, r)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		ex.Close()
	})
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	c.backoff = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := c.CreateJob(ctx, additiveSpec("drop", 1, 13)); err != nil {
		t.Fatal(err)
	}
	w, err := c.WatchRounds(ctx, "drop", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for round := 1; round <= 4; round++ {
			for node := 0; node < 2; node++ {
				_, _ = c.SubmitBid(ctx, "drop", Bid{NodeID: node, Qualities: []float64{0.3, 0.7}, Payment: 0.1})
			}
			_, _ = c.CloseRound(ctx, "drop")
			time.Sleep(20 * time.Millisecond)
		}
	}()
	got := collectRounds(t, w, 4, 15*time.Second)
	for i, ev := range got {
		if ev.Round != i+1 {
			t.Fatalf("rounds out of order or duplicated: %v", roundsOf(got))
		}
		if ev.Outcome == nil || len(ev.Outcome.Winners) != 1 {
			t.Fatalf("event %d outcome = %+v", i, ev.Outcome)
		}
	}
	if n := eventConns.Load(); n < 2 {
		t.Fatalf("server saw %d event connections, want a reconnect", n)
	}
	if id, _ := lastEventID.Load().(string); id != "1" {
		t.Fatalf("reconnect Last-Event-ID = %q, want 1 (the last delivered round)", id)
	}
}

func roundsOf(evs []Event) []int {
	out := make([]int, len(evs))
	for i, ev := range evs {
		out[i] = ev.Round
	}
	return out
}

// droppingWriter forwards the SSE stream until dropAfterRounds round_closed
// events have been flushed, then panics with ErrAbortHandler — the
// server-side equivalent of a connection cut.
type droppingWriter struct {
	http.ResponseWriter
	dropAfterRounds int
	seen            int
	armed           bool
}

func (d *droppingWriter) Write(p []byte) (int, error) {
	d.seen += strings.Count(string(p), "event: round_closed")
	n, err := d.ResponseWriter.Write(p)
	if d.seen >= d.dropAfterRounds {
		d.armed = true
	}
	return n, err
}

func (d *droppingWriter) Flush() {
	if f, ok := d.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	if d.armed {
		panic(http.ErrAbortHandler)
	}
}

// TestWatchAfterRound: WatchOptions.AfterRound replays only the rounds past
// the resume point.
func TestWatchAfterRound(t *testing.T) {
	c, _ := fixture(t)
	ctx := context.Background()
	if _, err := c.CreateJob(ctx, additiveSpec("replay", 1, 4)); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		for node := 0; node < 2; node++ {
			if _, err := c.SubmitBid(ctx, "replay", Bid{NodeID: node, Qualities: []float64{0.2, 0.8}, Payment: 0.1}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.CloseRound(ctx, "replay"); err != nil {
			t.Fatal(err)
		}
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w, err := c.WatchRounds(wctx, "replay", WatchOptions{AfterRound: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := collectRounds(t, w, 2, 5*time.Second)
	if got[0].Round != 2 || got[1].Round != 3 {
		t.Fatalf("replayed rounds = %v, want [2 3]", roundsOf(got))
	}
}

// TestWatchJobClosedEndsCleanly: removing the job delivers job_closed and
// the channel closes with a nil Err.
func TestWatchJobClosedEndsCleanly(t *testing.T) {
	c, _ := fixture(t)
	ctx := context.Background()
	if _, err := c.CreateJob(ctx, additiveSpec("finite", 1, 6)); err != nil {
		t.Fatal(err)
	}
	w, err := c.WatchRounds(ctx, "finite", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveJob(ctx, "finite"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				if werr := w.Err(); werr != nil {
					t.Fatalf("watch err = %v, want clean close", werr)
				}
				return
			}
			if ev.Type == JobClosed {
				continue // channel close follows
			}
		case <-deadline:
			t.Fatal("watch did not end after job removal")
		}
	}
}

// TestWatchDurableRestart is the crash/recovery contract end to end: a
// durable exchange is killed and reopened, and a client that was watching
// resumes and reads bit-identical outcomes through the v1 API.
func TestWatchDurableRestart(t *testing.T) {
	dir := t.TempDir()
	ex, err := exchange.Open(dir, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(exchange.NewHandler(ex))
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	c.backoff = time.Millisecond
	ctx := context.Background()
	if _, err := c.CreateJob(ctx, additiveSpec("dur", 2, 99)); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		for node := 0; node < 6; node++ {
			if _, err := c.SubmitBid(ctx, "dur", Bid{
				NodeID:    node,
				Qualities: []float64{0.15 * float64(node+1), 0.9 - 0.1*float64(node)},
				Payment:   0.05 * float64(node+1),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.CloseRound(ctx, "dur"); err != nil {
			t.Fatal(err)
		}
	}
	// Raw response bytes are the strongest equality witness across the
	// restart (struct equality could mask field-level drift).
	rawBefore := rawOutcome(t, srv.URL, "dur", 2)
	if err := ex.Sync(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	ex.Close()

	ex2, err := exchange.Open(dir, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(exchange.NewHandler(ex2))
	t.Cleanup(func() {
		srv2.Close()
		ex2.Close()
	})
	c2, err := New(srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	rawAfter := rawOutcome(t, srv2.URL, "dur", 2)
	if rawBefore != rawAfter {
		t.Fatalf("outcome bytes changed across restart:\n%s\n%s", rawBefore, rawAfter)
	}
	// The SDK view agrees, and a watch resuming past round 1 replays round
	// 2 from the recovered history.
	out, err := c2.Outcome(ctx, "dur", 2)
	if err != nil || out.Round != 2 || len(out.Winners) != 2 {
		t.Fatalf("recovered outcome = %+v err %v", out, err)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w, err := c2.WatchRounds(wctx, "dur", WatchOptions{AfterRound: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := collectRounds(t, w, 1, 5*time.Second)
	if got[0].Round != 2 || fmt.Sprint(*got[0].Outcome) != fmt.Sprint(out) {
		t.Fatalf("replayed recovered outcome = %+v, want %+v", *got[0].Outcome, out)
	}
}

// rawOutcome fetches the raw response bytes of one outcome. Raw HTTP is
// deliberate here (the test pins the wire bytes themselves, which the SDK
// would re-serialize).
func rawOutcome(t *testing.T, base, jobID string, round int) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/outcome?round=%d", base, jobID, round))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // read
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw outcome status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
