package exchange

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fmore/internal/auction"
	"fmore/pkg/api"
)

// sseEvent is one parsed test-side SSE frame.
type sseEvent struct {
	id    string
	event string
	data  map[string]any
}

// readEvent reads one SSE frame, skipping heartbeats. Safe to call from
// subscriber goroutines (errors are returned, never Fatal'd).
func readEvent(_ *testing.T, r *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	seen := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			if seen {
				return ev, nil
			}
			continue
		}
		if strings.HasPrefix(line, ":") {
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			ev.id = value
			seen = true
		case "event":
			ev.event = value
			seen = true
		case "data":
			if err := json.Unmarshal([]byte(value), &ev.data); err != nil {
				return ev, fmt.Errorf("bad event data %q: %v", value, err)
			}
			seen = true
		}
	}
}

// openStream opens the SSE endpoint and returns a reader over it.
func openStream(t *testing.T, url, lastEventID string) (*bufio.Reader, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck // error path
		t.Fatalf("events stream status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	return bufio.NewReader(resp.Body), func() { resp.Body.Close() } //nolint:errcheck // teardown
}

// driveRound submits `bids` bids and closes the round.
func driveRound(t *testing.T, base, jobID string, bids int, round int) {
	t.Helper()
	for node := 0; node < bids; node++ {
		resp, body := postJSON(t, base+"/v1/jobs/"+jobID+"/bids", map[string]any{
			"node_id": node, "qualities": []float64{0.3 + 0.1*float64(node), 0.5}, "payment": 0.1,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d bid %d: status %d body %v", round, node, resp.StatusCode, body)
		}
	}
	if resp, body := postJSON(t, base+"/v1/jobs/"+jobID+"/close", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("round %d close: status %d body %v", round, resp.StatusCode, body)
	}
}

// TestSSEFanout32Subscribers is the acceptance check for the event stream:
// 32 concurrent subscribers each receive every round_closed event with the
// outcome inline, in order, under -race.
func TestSSEFanout32Subscribers(t *testing.T) {
	srv, _ := httpFixture(t)
	const subscribers = 32
	const rounds = 3

	if resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id": "fan", "k": 2, "seed": 11,
		"rule": map[string]any{"kind": "additive", "alpha": []float64{0.5, 0.5}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}

	ready := make(chan struct{}, subscribers)
	type result struct {
		got []sseEvent
		err error
	}
	results := make([]result, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// No t.Fatal from subscriber goroutines: report through results.
			resp, err := http.Get(srv.URL + "/v1/jobs/fan/events")
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close() //nolint:errcheck // teardown
			if resp.StatusCode != http.StatusOK {
				results[i].err = fmt.Errorf("stream status %d", resp.StatusCode)
				return
			}
			r := bufio.NewReader(resp.Body)
			// The subscribe-time round_open marks the stream live.
			first, err := readEvent(t, r)
			if err != nil {
				results[i].err = err
				return
			}
			if first.event != api.EventRoundOpen {
				results[i].err = fmt.Errorf("first event %q, want round_open", first.event)
				return
			}
			ready <- struct{}{}
			for len(results[i].got) < rounds {
				ev, err := readEvent(t, r)
				if err != nil {
					results[i].err = err
					return
				}
				if ev.event == api.EventRoundClosed {
					results[i].got = append(results[i].got, ev)
				}
			}
		}(i)
	}
	for i := 0; i < subscribers; i++ {
		<-ready
	}
	for round := 1; round <= rounds; round++ {
		driveRound(t, srv.URL, "fan", 5, round)
	}
	wg.Wait()

	for i, res := range results {
		if res.err != nil {
			t.Fatalf("subscriber %d: %v", i, res.err)
		}
		if len(res.got) != rounds {
			t.Fatalf("subscriber %d saw %d rounds, want %d", i, len(res.got), rounds)
		}
		for n, ev := range res.got {
			if ev.id != fmt.Sprint(n+1) {
				t.Errorf("subscriber %d event %d id = %q, want %d", i, n, ev.id, n+1)
			}
			if got := ev.data["round"].(float64); int(got) != n+1 {
				t.Errorf("subscriber %d event %d round = %v", i, n, got)
			}
			winners, ok := ev.data["winners"].([]any)
			if !ok || len(winners) != 2 {
				t.Errorf("subscriber %d round %d winners = %v, want 2 inline", i, n+1, ev.data["winners"])
			}
			if nb := ev.data["num_bids"].(float64); nb != 5 {
				t.Errorf("subscriber %d round %d num_bids = %v", i, n+1, nb)
			}
		}
	}
}

// TestSSEResumeLastEventID pins lossless resumption: a subscriber
// reconnecting with Last-Event-ID replays every retained round it missed
// before going live.
func TestSSEResumeLastEventID(t *testing.T) {
	srv, _ := httpFixture(t)
	if resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id": "resume", "k": 1, "seed": 3,
		"rule": map[string]any{"kind": "additive", "alpha": []float64{1, 1}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	for round := 1; round <= 3; round++ {
		driveRound(t, srv.URL, "resume", 3, round)
	}

	// Resume after round 1: rounds 2 and 3 replay, then round_open(4).
	r, closeBody := openStream(t, srv.URL+"/v1/jobs/resume/events", "1")
	defer closeBody()
	for want := 2; want <= 3; want++ {
		ev, err := readEvent(t, r)
		if err != nil {
			t.Fatal(err)
		}
		if ev.event != api.EventRoundClosed || ev.id != fmt.Sprint(want) {
			t.Fatalf("replay event = %q id %q, want round_closed %d", ev.event, ev.id, want)
		}
	}
	ev, err := readEvent(t, r)
	if err != nil {
		t.Fatal(err)
	}
	if ev.event != api.EventRoundOpen || int(ev.data["round"].(float64)) != 4 {
		t.Fatalf("post-replay event = %q %v, want round_open 4", ev.event, ev.data)
	}
	// A round closing after resume arrives live.
	driveRound(t, srv.URL, "resume", 3, 4)
	ev, err = readEvent(t, r)
	if err != nil {
		t.Fatal(err)
	}
	if ev.event != api.EventRoundClosed || ev.id != "4" {
		t.Fatalf("live event = %q id %q, want round_closed 4", ev.event, ev.id)
	}
}

// TestSSEJobClosedEndsStream: a MaxRounds job emits job_closed and the
// stream terminates; a late subscriber to a closed job gets the retained
// history and job_closed immediately.
func TestSSEJobClosedEndsStream(t *testing.T) {
	srv, _ := httpFixture(t)
	if resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id": "short", "k": 1, "seed": 5, "max_rounds": 1,
		"rule": map[string]any{"kind": "additive", "alpha": []float64{1, 1}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	r, closeBody := openStream(t, srv.URL+"/v1/jobs/short/events", "")
	defer closeBody()
	if ev, err := readEvent(t, r); err != nil || ev.event != api.EventRoundOpen {
		t.Fatalf("first event %v err %v", ev.event, err)
	}
	driveRound(t, srv.URL, "short", 2, 1)
	ev, err := readEvent(t, r)
	if err != nil || ev.event != api.EventRoundClosed {
		t.Fatalf("event %q err %v, want round_closed", ev.event, err)
	}
	ev, err = readEvent(t, r)
	if err != nil || ev.event != api.EventJobClosed {
		t.Fatalf("event %q err %v, want job_closed", ev.event, err)
	}
	if _, err := readEvent(t, r); err == nil {
		t.Fatal("stream still open after job_closed")
	}

	// Late subscriber: history replays, then job_closed, no hang.
	r2, closeBody2 := openStream(t, srv.URL+"/v1/jobs/short/events", "")
	defer closeBody2()
	ev, err = readEvent(t, r2)
	if err != nil || ev.event != api.EventRoundClosed || ev.id != "1" {
		t.Fatalf("late replay = %q id %q err %v", ev.event, ev.id, err)
	}
	ev, err = readEvent(t, r2)
	if err != nil || ev.event != api.EventJobClosed {
		t.Fatalf("late final = %q err %v, want job_closed", ev.event, err)
	}
}

// TestSSEHeartbeat pins the keep-alive: an idle stream still emits comment
// frames so intermediaries do not reap the connection.
func TestSSEHeartbeat(t *testing.T) {
	old := sseHeartbeat
	sseHeartbeat = 20 * time.Millisecond
	defer func() { sseHeartbeat = old }()

	srv, _ := httpFixture(t)
	if resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id": "idle", "k": 1,
		"rule": map[string]any{"kind": "additive", "alpha": []float64{1}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/idle/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // teardown
	r := bufio.NewReader(resp.Body)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat within 5s")
		}
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		if bytes.HasPrefix(line, []byte(":")) {
			return // heartbeat observed
		}
	}
}

// pipeWriter is a ResponseWriter over an unbuffered pipe: every write blocks
// until the reader takes it, so a reader that stops reading stalls the
// handler at its next write — what a stalled connection comes to once its
// socket buffers are full, without depending on their size.
type pipeWriter struct {
	header http.Header
	w      *io.PipeWriter
}

func (p *pipeWriter) Header() http.Header         { return p.header }
func (p *pipeWriter) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p *pipeWriter) WriteHeader(int)             {}
func (p *pipeWriter) Flush()                      {}

// pipeStream serves GET path on h over a pipe and returns the stream's
// reader; stop ends the request and waits for the handler to return.
func pipeStream(t *testing.T, h http.Handler, path string) (r *bufio.Reader, stop func()) {
	t.Helper()
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(&pipeWriter{header: http.Header{}, w: pw}, req)
		pw.Close() //nolint:errcheck // signals EOF to the reader
	}()
	return bufio.NewReader(pr), func() {
		cancel()
		pr.Close() //nolint:errcheck // unblocks a pending write
		<-done
	}
}

// readFrame reads one SSE frame as its field lines, heartbeats skipped.
func readFrame(r *bufio.Reader) (string, error) {
	var lines []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return strings.Join(lines, "\n"), err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && len(lines) > 0:
			return strings.Join(lines, "\n"), nil
		case line != "" && !strings.HasPrefix(line, ":"):
			lines = append(lines, line)
		}
	}
}

// readFrames reads n frames, failing the test on a short stream.
func readFrames(t *testing.T, r *bufio.Reader, n int) []string {
	t.Helper()
	frames := make([]string, 0, n)
	for len(frames) < n {
		f, err := readFrame(r)
		if err != nil {
			t.Fatalf("stream ended after %d of %d frames: %v", len(frames), n, err)
		}
		frames = append(frames, f)
	}
	return frames
}

// sseFrames renders the frames the stream promises for a job.
type sseFrames struct {
	t   *testing.T
	job *Job
}

func (s sseFrames) frame(id, event string, data any) string {
	b, err := json.Marshal(data)
	if err != nil {
		s.t.Fatal(err)
	}
	if id != "" {
		id = "id: " + id + "\n"
	}
	return fmt.Sprintf("%sevent: %s\ndata: %s", id, event, b)
}

func (s sseFrames) open(round int) string {
	return s.frame("", api.EventRoundOpen, api.RoundOpen{Job: s.job.ID(), Round: round})
}

func (s sseFrames) closed(round int) string {
	ro, err := s.job.Outcome(round)
	if err != nil {
		s.t.Fatal(err)
	}
	return s.frame(fmt.Sprint(round), api.EventRoundClosed, outcomeView(ro))
}

func (s sseFrames) jobClosed() string {
	return s.frame("", api.EventJobClosed, api.JobClosed{Job: s.job.ID()})
}

// streamFixture hosts one manually driven job behind the HTTP handler.
func streamFixture(t *testing.T, spec JobSpec) (*Exchange, http.Handler, *Job, func(round int)) {
	t.Helper()
	ex := New(Options{})
	t.Cleanup(func() { ex.Close() })
	spec.Auction = auction.Config{Rule: testRule(t, 0), K: 2, Payment: auction.SecondPrice}
	spec.Seed = 9
	job, err := ex.CreateJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	closeRound := func(round int) {
		t.Helper()
		for _, b := range testBids(0, round, 4) {
			if _, err := ex.SubmitBid(job.ID(), b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := job.CloseRound(); err != nil {
			t.Fatal(err)
		}
	}
	return ex, NewHandler(ex), job, closeRound
}

// TestSSESlowReaderNotDropped: a reader that stops reading while more
// rounds close than any buffer between the job and the stream would hold is
// not disconnected — once it reads again, the same stream delivers every
// round in order, each round_closed followed by the next round's round_open.
func TestSSESlowReaderNotDropped(t *testing.T) {
	const rounds = 40
	_, h, job, closeRound := streamFixture(t, JobSpec{ID: "slow", KeepOutcomes: 64})
	r, stop := pipeStream(t, h, "/v1/jobs/slow/events")
	defer stop()
	want := sseFrames{t, job}
	if got := readFrames(t, r, 1); got[0] != want.open(1) {
		t.Fatalf("attach frame %q, want %q", got[0], want.open(1))
	}
	for round := 1; round <= rounds; round++ {
		closeRound(round)
	}
	got := readFrames(t, r, 2*rounds)
	for round := 1; round <= rounds; round++ {
		if f := got[2*round-2]; f != want.closed(round) {
			t.Fatalf("frame %d = %q, want round_closed %d", 2*round-2, f, round)
		}
		if f := got[2*round-1]; f != want.open(round+1) {
			t.Fatalf("frame %d = %q, want round_open %d", 2*round-1, f, round+1)
		}
	}
}

// TestSSEFramesIndependentOfReadPace: the frames of a stream do not depend
// on when its reader reads. For each way a job ends, a reader that drains
// after every transition and one that reads only after the last get the
// same frames — except that the late reader may miss the round_open of the
// round that was collecting when the job was closed (documented on the
// handler). A Last-Event-ID past the latest round is clamped to it, so the
// next round still arrives live.
func TestSSEFramesIndependentOfReadPace(t *testing.T) {
	for _, c := range []struct {
		name      string
		maxRounds int
		// end closes the job after two rounds; nil: the second round is the
		// MaxRounds one.
		end func(ex *Exchange, job *Job) error
	}{
		{name: "max_rounds", maxRounds: 2},
		{name: "close", end: func(_ *Exchange, job *Job) error { job.Close(); return nil }},
		{name: "remove", end: func(ex *Exchange, job *Job) error { return ex.RemoveJob(job.ID()) }},
		{name: "shutdown", end: func(ex *Exchange, _ *Job) error { return ex.Close() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ex, h, job, closeRound := streamFixture(t, JobSpec{ID: "pace", MaxRounds: c.maxRounds})
			eager, stopEager := pipeStream(t, h, "/v1/jobs/pace/events")
			defer stopEager()
			late, stopLate := pipeStream(t, h, "/v1/jobs/pace/events")
			defer stopLate()
			want := sseFrames{t, job}

			// Both readers take the attach frame; then only eager reads on.
			for _, r := range []*bufio.Reader{eager, late} {
				if got := readFrames(t, r, 1); got[0] != want.open(1) {
					t.Fatalf("attach frame %q, want %q", got[0], want.open(1))
				}
			}
			all := []string{want.open(1)}
			step := func(frames ...string) {
				t.Helper()
				all = append(all, frames...)
				if got := readFrames(t, eager, len(frames)); !slices.Equal(got, frames) {
					t.Fatalf("eager reader got %q, want %q", got, frames)
				}
			}
			closeRound(1)
			step(want.closed(1), want.open(2))
			closeRound(2)
			if c.end == nil {
				step(want.closed(2), want.jobClosed())
			} else {
				step(want.closed(2), want.open(3))
				if err := c.end(ex, job); err != nil {
					t.Fatal(err)
				}
				step(want.jobClosed())
			}
			if f, err := readFrame(eager); err != io.EOF {
				t.Fatalf("eager stream went on after job_closed: %q, %v", f, err)
			}

			var got []string
			for {
				f, err := readFrame(late)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, f)
			}
			got = append([]string{want.open(1)}, got...)
			// The one difference allowed: no round_open for round 3, which
			// was collecting when the job was closed.
			withoutLateOpen := slices.Delete(slices.Clone(all), len(all)-2, len(all)-1)
			if !slices.Equal(got, all) && (c.end == nil || !slices.Equal(got, withoutLateOpen)) {
				t.Fatalf("late reader got\n%q\nwant\n%q", got, all)
			}
		})
	}

	t.Run("after_clamped", func(t *testing.T) {
		_, h, job, closeRound := streamFixture(t, JobSpec{ID: "clamp"})
		closeRound(1)
		closeRound(2)
		r, stop := pipeStream(t, h, "/v1/jobs/clamp/events?after=1000")
		defer stop()
		want := sseFrames{t, job}
		if got := readFrames(t, r, 1); got[0] != want.open(3) {
			t.Fatalf("attach frame %q, want %q", got[0], want.open(3))
		}
		closeRound(3)
		if got, frames := readFrames(t, r, 2), []string{want.closed(3), want.open(4)}; !slices.Equal(got, frames) {
			t.Fatalf("after ?after=1000 got %q, want %q", got, frames)
		}
	})
}
