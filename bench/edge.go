package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"fmore/internal/auction"
)

// Shape of edge_bids_http (and of every small-slate round in the benchmark).
const (
	roundBids   = 64 // bids per round
	roundK      = 8  // winners per round
	openLoopOps = 2000
	// edgeWarmBids is the set-up's warm-up volume: past the exchange's
	// 4,096-entry idempotency cache, so the measured window runs with the
	// cache at its cap and evicting, as a long-lived server does.
	edgeWarmBids = 4608
)

// edgeInst is one running durable fmore-exchange with its jobs created and
// the generator's requests pre-encoded.
type edgeInst struct {
	e      *env
	srv    *proc
	hc     *http.Client
	jobs   int
	bodies [][][][]byte // [job][slate][bid] JSON
	round  []int        // per job: rounds driven so far
	keySeq []int64      // per job: idempotency keys issued so far
}

// newHTTPClient returns a client holding at most c keep-alive connections
// per host — the load shape allows the generator c connections.
func newHTTPClient(c int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: 4 * c, MaxIdleConnsPerHost: c, MaxConnsPerHost: c},
		Timeout:   30 * time.Second,
	}
}

func edgeJobs(e *env) int {
	if e.small {
		return 4
	}
	return 4 * e.c
}

func setupEdge(e *env) (instance, error) {
	dir, err := e.scratch("edge")
	if err != nil {
		return nil, err
	}
	// The production admission shape: limits far above the offered load, so
	// the controller does its full per-bid work and sheds nothing.
	srv, err := e.spawn("fmore-exchange", "-addr", "127.0.0.1:0", "-data-dir", dir,
		"-rate-global", "1000000", "-max-inflight", "256")
	if err != nil {
		return nil, err
	}
	in := &edgeInst{e: e, srv: srv, hc: newHTTPClient(e.c), jobs: edgeJobs(e)}
	in.bodies = make([][][][]byte, in.jobs)
	in.round = make([]int, in.jobs)
	in.keySeq = make([]int64, in.jobs)
	for j := 0; j < in.jobs; j++ {
		spec := fmt.Sprintf(`{"id":"edge-%d","k":%d,"seed":%d,"rule":{"kind":"additive","alpha":[0.6,0.4]}}`,
			j, roundK, jobSeed(e.seed, j)&0x7fffffff)
		if status, err := in.post("/v1/jobs", []byte(spec), "", nil); err != nil || status != http.StatusCreated {
			in.close() //nolint:errcheck // reporting the set-up failure
			return nil, fmt.Errorf("creating edge-%d: status %d, %v\n%s", j, status, err, srv.tail)
		}
		slates := genSlates(e.seed, j, slatePool, roundBids, 2, population)
		for _, slate := range slates {
			in.bodies[j] = append(in.bodies[j], encodeBids(slate))
		}
	}
	warm := (edgeWarmBids/roundBids + in.jobs - 1) / in.jobs
	if e.small {
		warm = 1
	}
	rec := newRecorder(time.Now(), time.Minute, nil)
	for r := 0; r < warm; r++ {
		for j := 0; j < in.jobs; j++ {
			in.driveRound(rec, j, nil)
		}
	}
	if rec.failed > 0 {
		in.close() //nolint:errcheck // reporting the set-up failure
		return nil, fmt.Errorf("edge warm-up: %d of %d operations failed, first: %v", rec.failed, rec.attempted, rec.firstErr)
	}
	return in, nil
}

// encodeBids renders a slate as POST /v1/jobs/{id}/bids bodies.
func encodeBids(slate []auction.Bid) [][]byte {
	bodies := make([][]byte, len(slate))
	for i, b := range slate {
		bodies[i], _ = json.Marshal(map[string]any{ // plain numbers cannot fail to encode
			"node_id": b.NodeID, "qualities": b.Qualities, "payment": b.Payment})
	}
	return bodies
}

// post sends one POST and, when out is non-nil and the answer is 2xx,
// decodes the JSON body into it. The body is always drained so the
// connection returns to the keep-alive pool.
func (in *edgeInst) post(path string, body []byte, key string, out any) (int, error) {
	req, err := http.NewRequest(http.MethodPost, in.srv.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := in.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close() //nolint:errcheck // read below
	if out != nil && resp.StatusCode/100 == 2 {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
	return resp.StatusCode, err
}

// closeAnswer is the part of the close response the checks read.
type closeAnswer struct {
	NumBids int `json:"num_bids"`
	Winners []struct {
		Payment    float64 `json:"payment"`
		BidPayment float64 `json:"bid_payment"`
	} `json:"winners"`
}

// driveRound issues one round of job j: 64 bid POSTs, each with a fresh
// Idempotency-Key as the SDK would send, then the close. With a pacer every
// operation waits for its due time and is timed from it (open loop);
// without one each is sent when the previous answer arrives (closed loop).
func (in *edgeInst) driveRound(r *recorder, j int, pace *pacer) {
	slate := in.bodies[j][in.round[j]%slatePool]
	in.round[j]++
	bidsPath := "/v1/jobs/edge-" + strconv.Itoa(j) + "/bids"
	roundStart := time.Now()
	rs := r.span("round", 0, roundStart, roundStart, 0, 0)
	begin := func() time.Time {
		if pace == nil {
			return time.Now()
		}
		due, late := pace.wait()
		r.late = append(r.late, float64(late.Nanoseconds())/1e6)
		return due
	}
	for _, body := range slate {
		in.keySeq[j]++
		key := strconv.FormatInt(in.e.seed, 16) + "-" + strconv.Itoa(j) + "-" + strconv.FormatInt(in.keySeq[j], 10)
		t0 := begin()
		r.attempted++
		status, err := in.post(bidsPath, body, key, nil)
		end := time.Now()
		r.ops++
		if err != nil || status != http.StatusAccepted {
			r.fail(fmt.Errorf("bid on edge-%d: status %d, %v", j, status, err))
			continue
		}
		r.observe(opSubmit, t0, end, rs, int64(j)<<32|in.keySeq[j])
		r.countBids(1, end)
	}
	var ans closeAnswer
	t0 := begin()
	r.attempted++
	status, err := in.post("/v1/jobs/edge-"+strconv.Itoa(j)+"/close", nil, "", &ans)
	end := time.Now()
	r.ops++
	if err == nil && status == http.StatusOK {
		err = checkOutcome(ans.NumBids, roundBids, roundK, len(ans.Winners),
			func(i int) float64 { return ans.Winners[i].Payment },
			func(i int) float64 { return ans.Winners[i].BidPayment })
	}
	if err != nil || status != http.StatusOK {
		r.fail(fmt.Errorf("close on edge-%d: status %d, %v", j, status, err))
	} else {
		r.observe(opClose, t0, end, rs, 0)
		r.rounds++
	}
	r.endSpan(rs, end)
}

// loop drives rounds for d from the given number of workers, each on its
// own jobs: closed (every operation sent when the previous answer arrives)
// or open at openLoopOps operations per second, timed from due time.
func (in *edgeInst) loop(workers int, open bool, d time.Duration, tr *tracer, m *measurement) *phase {
	cpu := startCPU(in.pids())
	defer cpu.stop(m)
	return runWorkers(workers, d, tr, func(w int, r *recorder, deadline time.Time) {
		var pace *pacer
		// The open loop stops one round's worth of due times short of the
		// deadline, so the last round's operations are all due inside it.
		roundSpan := time.Duration(0)
		if open {
			pace = newPacer(r.start, time.Duration(workers)*time.Second/openLoopOps)
			roundSpan = time.Duration(roundBids+1) * pace.interval
		}
		own := ownJobs(w, workers, in.jobs)
		for i := 0; time.Now().Add(roundSpan).Before(deadline); i++ {
			in.driveRound(r, own[i%len(own)], pace)
		}
	})
}

// measure spends half of d in a closed loop (the end-to-end metrics) and
// half in an open loop at openLoopOps operations per second (latency from
// due time, per-layer: a stall of the host's leaves a backlog that every
// later operation is timed through, so these read 0.5 ms in one run and
// 15 ms in the next).
func (in *edgeInst) measure(d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{extra: map[string]float64{}}
	m.load = in.loop(in.e.c, false, d/2, tr, m)
	m.open = in.loop(in.e.c, true, d/2, tr, m)
	m.extra["loadgen.late_p99_ms"] = percentile(m.open.late, 0.99)
	m.extra["open_submit_p50_ms"] = m.open.pct(opSubmit, 0.5)
	m.extra["open_close_p50_ms"] = m.open.pct(opClose, 0.5)
	m.extra["submit_p99_ms"] = m.open.pct(opSubmit, 0.99)
	if !in.srv.alive() {
		return m, fmt.Errorf("fmore-exchange died during the run:\n%s", in.srv.tail)
	}
	return m, nil
}

func (in *edgeInst) pids() []int { return []int{in.srv.cmd.Process.Pid} }

func (in *edgeInst) close() error {
	in.srv.stop()
	in.hc.CloseIdleConnections()
	return nil
}

func edgeStream(e *env) uint64 {
	h := newStreamHasher()
	for j := 0; j < edgeJobs(e); j++ {
		for r, slate := range genSlates(e.seed, j, slatePool, roundBids, 2, population) {
			for _, b := range slate {
				h.op(opSubmit, j, b.NodeID, b.Qualities, b.Payment)
			}
			h.op(opClose, j, r, nil, 0)
		}
	}
	return h.h.Sum64()
}
