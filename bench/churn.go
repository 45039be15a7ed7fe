package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"fmore/internal/analytics"
	"fmore/internal/auction"
	"fmore/internal/exchange"
)

const (
	// syncEvery is how many rounds a churn worker closes between timed
	// Sync calls — an aggregator checkpointing its durability.
	syncEvery = 256
	// fixtureRounds is the fixed tail the recovery fixture replays.
	fixtureRounds = 2048
)

// embedded is an exchange living in the generator's address space with the
// analytics aggregator attached to its firehose, as cmd/fmore-exchange
// attaches it.
type embedded struct {
	ex     *exchange.Exchange
	detach func()
}

// openEmbedded opens a durable exchange in dir, or an in-memory one when
// dir is empty, with default options plus opts' admission controller.
func openEmbedded(dir string, opts exchange.Options, tapped bool) (*embedded, error) {
	em := &embedded{detach: func() {}}
	if dir == "" {
		em.ex = exchange.New(opts)
	} else {
		var err error
		if em.ex, err = exchange.Open(dir, opts); err != nil {
			return nil, err
		}
	}
	if tapped {
		em.detach = em.ex.Firehose().Attach(analytics.New(analytics.Options{}))
	}
	return em, nil
}

func (em *embedded) close() error {
	em.detach()
	return em.ex.Close()
}

// smallRule is the 2-dimensional additive rule of every 64-bid round.
func smallRule() auction.ScoringRule {
	r, err := auction.NewAdditive(0.6, 0.4)
	if err != nil {
		panic(err) // constant, valid coefficients
	}
	return r
}

// churnInst is the round_churn_durable set-up: a durable embedded exchange
// with its jobs created and every job's bidder cohort on its first rounds.
type churnInst struct {
	e      *env
	dir    string
	em     *embedded
	ids    []string
	slates [][][]auction.Bid // [job][slate][bid]
	round  []int
}

func churnJobs(e *env) int {
	if e.small {
		return 4
	}
	return 64
}

func setupChurn(e *env) (instance, error) {
	dir, err := e.scratch("churn")
	if err != nil {
		return nil, err
	}
	em, err := openEmbedded(dir, exchange.Options{}, true)
	if err != nil {
		return nil, err
	}
	in := &churnInst{e: e, dir: dir, em: em}
	if err := in.createJobs(churnJobs(e)); err != nil {
		em.close() //nolint:errcheck // reporting the set-up failure
		return nil, err
	}
	warm := 4
	if e.small {
		warm = 1
	}
	rec := newRecorder(time.Now(), time.Minute, nil)
	for r := 0; r < warm; r++ {
		for j := range in.ids {
			in.driveRound(rec, j)
		}
	}
	if rec.failed > 0 {
		em.close() //nolint:errcheck // reporting the set-up failure
		return nil, fmt.Errorf("churn warm-up: %d operations failed, first: %v", rec.failed, rec.firstErr)
	}
	return in, nil
}

func (in *churnInst) createJobs(n int) error {
	in.ids = make([]string, n)
	in.slates = make([][][]auction.Bid, n)
	in.round = make([]int, n)
	for j := 0; j < n; j++ {
		in.ids[j] = "churn-" + strconv.Itoa(j)
		if _, err := in.em.ex.CreateJob(exchange.JobSpec{
			ID:      in.ids[j],
			Auction: auction.Config{Rule: smallRule(), K: roundK},
			Seed:    jobSeed(in.e.seed, j),
		}); err != nil {
			return err
		}
		in.slates[j] = genSlates(in.e.seed, j, slatePool, roundBids, 2, roundBids)
	}
	return nil
}

// driveRound issues one round of job j: 64 SubmitBid calls and the close.
// One submit per round is timed (a different position each round): timing
// all of them would spend more in the clock than in the call.
func (in *churnInst) driveRound(r *recorder, j int) {
	id := in.ids[j]
	slate := in.slates[j][in.round[j]%slatePool]
	timed := in.round[j] % len(slate)
	in.round[j]++
	roundStart := time.Now()
	rs := r.span("round", 0, roundStart, roundStart, 0, 0)
	r.attempted += int64(len(slate)) + 1
	accepted := int64(0)
	for i := range slate {
		var t0 time.Time
		if i == timed {
			t0 = time.Now()
		}
		_, err := in.em.ex.SubmitBid(id, slate[i])
		if i == timed {
			r.observe(opSubmit, t0, time.Now(), rs, int64(j)<<32|int64(in.round[j]))
		}
		if err != nil {
			r.fail(fmt.Errorf("bid on %s: %w", id, err))
			continue
		}
		accepted++
	}
	t0 := time.Now()
	ro, err := in.em.ex.CloseRound(id)
	end := time.Now()
	r.ops += int64(len(slate)) + 1
	if err == nil {
		err = checkAuctionOutcome(ro.NumBids, len(slate), roundK, ro.Outcome)
	}
	if err != nil {
		r.fail(fmt.Errorf("close on %s: %w", id, err))
	} else {
		r.observe(opClose, t0, end, rs, 0)
		r.rounds++
	}
	r.countBids(accepted, end)
	r.endSpan(rs, end)
}

// measure runs the closed loop for d: each worker churns rounds over its
// own jobs and, every syncEvery rounds, waits for the log to be durable.
func (in *churnInst) measure(d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{extra: map[string]float64{}}
	before := in.em.ex.Metrics()
	wchar0, syscw0, err := ioCounters(0)
	if err != nil {
		return nil, err
	}
	every := syncEvery
	if in.e.small {
		every = 16 // a smoke window is too short for 256 rounds per worker
	}
	cpu := startCPU(in.pids())
	m.load = runWorkers(in.e.c, d, tr, func(w int, r *recorder, deadline time.Time) {
		own := ownJobs(w, in.e.c, len(in.ids))
		for i := 0; time.Now().Before(deadline); i++ {
			in.driveRound(r, own[i%len(own)])
			if (i+1)%every == 0 {
				t0 := time.Now()
				r.attempted++
				err := in.em.ex.Sync()
				r.ops++
				if err != nil {
					r.fail(fmt.Errorf("sync: %w", err))
					continue
				}
				r.observe(opSync, t0, time.Now(), 0, 0)
			}
		}
	})
	cpu.stop(m)
	wchar1, syscw1, err := ioCounters(0)
	if err != nil {
		return nil, err
	}
	after := in.em.ex.Metrics()
	rounds := float64(m.load.rounds)
	fsyncs := float64(after.WalFsyncTotal - before.WalFsyncTotal)
	m.extra["rounds_per_s"] = m.load.bidsPerS() / roundBids
	m.extra["sync_p50_ms"] = m.load.pct(opSync, 0.5)
	m.extra["close_p99_ms"] = m.load.pct(opClose, 0.99)
	m.extra["wal_bytes_per_round"] = float64(wchar1-wchar0) / rounds
	m.extra["exchange.wal.syscw_per_round"] = float64(syscw1-syscw0) / rounds
	m.extra["exchange.wal.fsyncs_per_round"] = fsyncs / rounds
	m.extra["exchange.wal.records_per_fsync"] = float64(after.WalFsyncBatchedRecords-before.WalFsyncBatchedRecords) / fsyncs
	m.extra["exchange.wal.snapshots"] = float64(after.WalSnapshots - before.WalSnapshots)
	m.extra["exchange.wal.close_p999_ms"] = m.load.pct(opClose, 0.999)
	if after.WalFailed {
		return m, fmt.Errorf("the outcome log failed during the run")
	}
	return m, nil
}

func (in *churnInst) pids() []int { return []int{0} }

func (in *churnInst) close() error { return in.em.close() }

// fixture measures crash recovery on a fixed amount of log: compact
// (so the tail starts empty), close exactly fixtureRounds more rounds, make
// them durable, copy the data directory — a crash image holding only
// flushed bytes — and time exchange.Open on the copy. Every job's retained
// outcome pages must come back byte-identical to the live exchange's.
func (in *churnInst) fixture() (map[string]float64, error) {
	ex := in.em.ex
	t0 := time.Now()
	if err := ex.Compact(); err != nil {
		return nil, fmt.Errorf("fixture compact: %w", err)
	}
	compact := time.Since(t0)
	rounds := fixtureRounds
	if in.e.small {
		rounds = 64
	}
	rec := newRecorder(time.Now(), time.Minute, nil)
	for i := 0; i < rounds; i++ {
		in.driveRound(rec, i%len(in.ids))
	}
	if rec.failed > 0 {
		return nil, fmt.Errorf("fixture rounds: %d operations failed, first: %v", rec.failed, rec.firstErr)
	}
	if err := ex.Sync(); err != nil {
		return nil, fmt.Errorf("fixture sync: %w", err)
	}
	image, err := in.e.scratch("crash-image")
	if err != nil {
		return nil, err
	}
	// The data directory is flat: segments, snapshot, lock file.
	if err := os.CopyFS(image, os.DirFS(in.dir)); err != nil {
		return nil, fmt.Errorf("copying the data directory: %w", err)
	}
	t0 = time.Now()
	recovered, err := exchange.Open(image, exchange.Options{})
	if err != nil {
		return nil, fmt.Errorf("recovering the crash image: %w", err)
	}
	recoverS := time.Since(t0).Seconds()
	defer recovered.Close() //nolint:errcheck // read-only use of a scratch copy
	live, back := exchange.NewHandler(ex), exchange.NewHandler(recovered)
	for _, id := range in.ids {
		path := "/v1/jobs/" + id + "/outcomes?limit=1000"
		want, got := servePage(live, path), servePage(back, path)
		if len(want) == 0 || !bytes.Equal(want, got) {
			return nil, fmt.Errorf("recovered outcome pages of %s differ from the live exchange (%d vs %d bytes)", id, len(got), len(want))
		}
	}
	return map[string]float64{
		"recover_s":                         recoverS,
		"exchange.wal.compact_ms":           float64(compact.Nanoseconds()) / 1e6,
		"exchange.wal.replay_records_per_s": float64(rounds) / recoverS,
	}, nil
}

// servePage answers one GET from a handler, in process.
func servePage(h http.Handler, path string) []byte {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.Code != http.StatusOK {
		return nil
	}
	return w.Body.Bytes()
}

func churnStream(e *env) uint64 {
	h := newStreamHasher()
	for j := 0; j < churnJobs(e); j++ {
		for r, slate := range genSlates(e.seed, j, slatePool, roundBids, 2, roundBids) {
			for _, b := range slate {
				h.op(opSubmit, j, b.NodeID, b.Qualities, b.Payment)
			}
			h.op(opClose, j, r, nil, 0)
		}
	}
	return h.h.Sum64()
}
