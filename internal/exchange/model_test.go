package exchange

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"fmore/internal/auction"
	"fmore/internal/fault"
	"fmore/internal/wal"
)

// TestExchangeModel is the exchange's executable specification. One seeded
// op stream drives a durable exchange and a small reference in lockstep;
// after every op the two agree on the op's verdict (the same sentinel or
// typed error), every read accessor and counter, and the bytes of every
// retained round. The reference is plain maps: jobs with their collecting
// round, pending bids, closed flag and KeepOutcomes window, one private
// auction.Auctioneer per job fed each round's bids in NodeID order, and
// the registry with each node's meta, ban and counters.
//
// The stream creates (K 1–4, first and second price, ψ 1 and 0.6, MinBids
// 1–3, KeepOutcomes 1–4, MaxRounds 0 or 2–4, three rules, K 0 at times),
// removes and re-creates jobs, registers and bans nodes, submits valid,
// duplicate, unregistered, banned, closed-job, unknown-job, wrong-dimension,
// NaN and out-of-range bids from dense, negative, high-bit and sparse IDs,
// grows the dedup tables in bursts, closes rounds below and above quorum
// and against racing submitters, reads rounds at random, compacts, syncs,
// and restarts cleanly or from a crash image (cloneDataDir). A restart must
// equal the reference at a state no older than the last successful Sync,
// as a restart sees it: pending bids gone, node counters at their closed
// rounds, counters reset, jobs_created at the jobs the log replays, every
// retained round byte-identical (latency included) to what was served.
// Each run arms one wal/* failpoint: a failed compaction is refused and
// counted in wal_snapshot_errors; once Degraded reports, durable mutations
// refuse with *DegradedError and reads keep answering.
//
// It widens the seeded intake model that was TestIntakeDedupModel: those
// ops (dense, negative, high-bit and sparse IDs, growth bursts, idle
// ticks, racing closes, reopens) are ops here. The example tests below
// stay as the readable instances of its properties:
//   - TestHistoryWindow: Outcome's evicted, retained, pending and
//     out-of-range answers, Latest, and OutcomesAfter pages and their
//     more flag at random cursors and limits; the window that
//     restarts past evicted rounds is every restart of such a job.
//     (TestHistoryRingModel holds the ring itself to a plain slice.) A job
//     restored with an empty window has closed no round — with
//     KeepOutcomes >= 1 every closed round leaves one retained — so the
//     snapshot's base_round, once read there, is written for earlier
//     readers only; the one-line mutant that ignored it was equivalent.
//   - TestSubmitCloseMatchesPrivateAuctioneer: each close vs. the auctioneer.
//   - TestCrashRecoveryIdenticalHistoryAndContinuation,
//     TestCompactionSnapshotReplayIdentical: every restart, compacted or
//     not, matches a reference state (jobs, specs, closed flags, round
//     numbering, retained bytes, registry, bans), a compaction leaves the
//     snapshot and no first segment, and the rounds closed after a restart
//     match the reference auctioneer, which replays each job's slates.
//   - TestCompactionPendingBidCounters: node counters after a restart are
//     the bids of closed rounds, whatever was pending at the cut.
//   - TestJobsActiveDerivedAcrossReopen: jobs_active after every op.
//   - TestIntakeDedupUnderConcurrency: racing closes where two goroutines
//     submit each node: one accepted bid per node per round, and a
//     duplicate only beside an accepted or pending one.
//
// Retired, each after a one-line mutant of its property failed the model:
//   - TestDuplicateBidRejected, TestRegistrationPolicyAndBlacklist: the
//     submit verdicts ErrDuplicateBid, ErrNotRegistered and ErrBlacklisted,
//     RegisterNode and BlacklistNode results (refused once degraded), and
//     bids_rejected.
//   - TestOpenFreshDirIsEmptyExchange: the first open, of a nested dir.
//   - TestMaxRoundsClosesJob: State, and ErrJobClosed from submit, Outcome
//     and WaitOutcome past the last round once MaxRounds closes the job.
//   - TestOutcomeEviction: the KeepOutcomes window, Outcome's evicted and
//     retained answers, and Latest.
//   - TestCloseRoundBelowQuorum: ErrBelowQuorum, idle_ticks, Round and
//     PendingBids after a refused close.
//   - TestRecoveryRespectsKeepOutcomes: replay rebuilds the KeepOutcomes
//     window, not the whole log. Mutant: restoreRound pushes with
//     KeepOutcomes+1.
//   - TestRecoveryRestoresClosedAndRemovedJobs: a MaxRounds-finished job
//     replays closed and a removed one stays gone. Mutants: finishReplay
//     closes only past MaxRounds+1; recJobRemoved replays as a no-op.
//   - TestRecoveryAfterRemoveAndRecreateSameID: created → removed →
//     created replays to the successor alone. Mutant: RemoveJob logs
//     recJobClosed instead of recJobRemoved (replay then meets the ID
//     created twice).
func TestExchangeModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			ops := make([]byte, 250)
			rand.New(rand.NewSource(seed)).Read(ops)
			runExchangeModel(t, seed, ops)
		})
	}
}

// FuzzExchangeModel runs the model on an op stream the fuzzer picks: each
// byte of ops chooses one op, seed draws the arguments and the failpoint.
// The corpus holds the shrunk streams of the defects the model has found.
func FuzzExchangeModel(f *testing.F) {
	f.Add(int64(7), []byte("\x00\x01\x24\x4a\x54\x02\x5b\x4b\x5d\x33\x30\x3d"))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		runExchangeModel(t, seed, ops[:min(len(ops), 300)])
	})
}

var (
	errInvalid  = errors.New("invalid") // the model's "refused, no sentinel"
	errDegraded = &DegradedError{}
	sentinels   = []error{ErrUnknownJob, ErrJobClosed, ErrDuplicateBid, ErrBelowQuorum, ErrRoundPending,
		ErrOutcomeEvicted, ErrNotRegistered, ErrBlacklisted, auction.ErrDimensionMismatch, context.Canceled}
	modelIDs = []string{"a", "b", "c", "d"}
	// modelOps weighs the ops: an op byte picks modelOps[byte%len(modelOps)].
	modelOps = slices.Concat(
		slices.Repeat([]string{"bid"}, 36), slices.Repeat([]string{"close"}, 12),
		slices.Repeat([]string{"growth"}, 3), slices.Repeat([]string{"racing close"}, 4),
		slices.Repeat([]string{"create"}, 6), slices.Repeat([]string{"remove"}, 4),
		[]string{"job close"}, slices.Repeat([]string{"register"}, 5),
		slices.Repeat([]string{"ban"}, 3), slices.Repeat([]string{"read"}, 10),
		slices.Repeat([]string{"compact"}, 3), slices.Repeat([]string{"sync"}, 4),
		slices.Repeat([]string{"crash"}, 2), slices.Repeat([]string{"restart"}, 2),
	)
)

// verdict names err's class: ok, degraded, a sentinel, or invalid.
func verdict(err error) string {
	if d := errDegraded; errors.As(err, &d) {
		return "degraded"
	}
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	if err == nil {
		return "ok"
	}
	return "invalid"
}

type modelNode struct {
	meta     string
	banned   bool
	accepted int64 // the live counter
	closed   int64 // bids in closed rounds: what a restart restores
}

type modelRound struct {
	round  int
	served []byte // the round as the exchange rendered it at close
}

type modelJob struct {
	spec     JobSpec
	closed   bool
	rounds   int // closed rounds; rounds+1 is collecting
	pending  map[int]auction.Bid
	retained []modelRound
	slates   [][]auction.Bid // every closed round's bids in NodeID order
	auct     *auction.Auctioneer
}

// model is the reference. Its counters count since the exchange opened;
// replayCreated is what jobs_created reads after a restart: the jobs in
// the last snapshot plus the creates logged since.
type model struct {
	requireReg, degraded bool
	jobs                 map[string]*modelJob
	nodes                map[int]*modelNode

	created, replayCreated, rounds, idle, accepted, rejected, snapshots, snapErrs int64
}

func (m *model) clone() *model {
	c := *m
	c.jobs = make(map[string]*modelJob, len(m.jobs))
	for id, j := range m.jobs {
		cj := *j
		cj.pending, cj.retained, cj.slates = maps.Clone(j.pending), slices.Clone(j.retained), slices.Clip(j.slates)
		cj.auct = nil // rebuilt from the slates at the next close
		c.jobs[id] = &cj
	}
	c.nodes = make(map[int]*modelNode, len(m.nodes))
	for id, n := range m.nodes {
		cn := *n
		c.nodes[id] = &cn
	}
	return &c
}

// restarted is m as a restart from its durable state sees it.
func (m *model) restarted() *model {
	c := m.clone()
	for _, j := range c.jobs {
		clear(j.pending)
	}
	for _, n := range c.nodes {
		n.accepted = n.closed
	}
	c.degraded = false
	c.created, c.rounds, c.idle, c.accepted, c.rejected, c.snapshots, c.snapErrs = c.replayCreated, 0, 0, 0, 0, 0, 0
	return c
}

// nodeWrite is the verdict of a registration or a ban.
func (m *model) nodeWrite() error {
	if m.degraded {
		return errDegraded
	}
	return nil
}

func (m *model) create(spec JobSpec) error {
	switch {
	case m.degraded:
		return errDegraded
	case m.jobs[spec.ID] != nil || spec.Auction.K < 1:
		return errInvalid
	}
	m.jobs[spec.ID] = &modelJob{spec: spec, pending: map[int]auction.Bid{}}
	m.created++
	m.replayCreated++
	return nil
}

func (m *model) submit(id string, b auction.Bid) (round int, err error) {
	j, n, dup := m.jobs[id], m.nodes[b.NodeID], false
	if j != nil {
		_, dup = j.pending[b.NodeID]
	}
	notFinite := func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }
	switch {
	case j == nil:
		err = ErrUnknownJob
	case m.degraded:
		err = errDegraded
	case n == nil && m.requireReg:
		err = ErrNotRegistered
	case n != nil && n.banned:
		err = ErrBlacklisted
	case len(b.Qualities) != j.spec.Auction.Rule.Dims():
		err = auction.ErrDimensionMismatch
	case slices.ContainsFunc(b.Qualities, notFinite) || notFinite(b.Payment),
		!(math.Abs(j.spec.Auction.Rule.Value(b.Qualities)-b.Payment) <= math.MaxFloat64/float64(2*j.spec.Auction.K)):
		err = errInvalid
	case j.closed:
		err = ErrJobClosed
	case dup:
		err = ErrDuplicateBid
	default:
		m.accept(b.NodeID)
		j.pending[b.NodeID] = b
		return j.rounds + 1, nil
	}
	m.rejected++
	return 0, err
}

// accept counts an accepted bid, registering its node on first contact.
func (m *model) accept(node int) {
	if m.nodes[node] == nil {
		m.nodes[node] = &modelNode{}
	}
	m.nodes[node].accepted++
	m.accepted++
}

func (m *model) close(id string) (RoundOutcome, error) {
	j := m.jobs[id]
	switch {
	case j == nil:
		return RoundOutcome{}, ErrUnknownJob
	case j.closed:
		return RoundOutcome{}, ErrJobClosed
	case m.degraded:
		return RoundOutcome{}, errDegraded
	case len(j.pending) < j.spec.MinBids:
		m.idle++
		return RoundOutcome{}, ErrBelowQuorum
	}
	bids := slices.SortedFunc(maps.Values(j.pending), func(a, b auction.Bid) int { return cmp.Compare(a.NodeID, b.NodeID) })
	clear(j.pending)
	if j.auct == nil {
		j.auct, _ = auction.NewAuctioneer(j.spec.Auction, rand.New(rand.NewSource(j.spec.Seed)))
		for _, s := range j.slates {
			j.auct.Run(s) //nolint:errcheck // replays the rng
		}
	}
	j.slates = append(j.slates, bids)
	j.rounds++
	m.rounds++
	ro := RoundOutcome{JobID: id, Round: j.rounds, NumBids: len(bids)}
	ro.Outcome, _ = j.auct.Run(bids) // submit admits no slate that fails
	for _, b := range bids {
		m.nodes[b.NodeID].closed++
	}
	if j.retained = append(j.retained, modelRound{round: j.rounds}); len(j.retained) > j.spec.KeepOutcomes {
		j.retained = j.retained[1:]
	}
	j.closed = j.spec.MaxRounds > 0 && j.rounds >= j.spec.MaxRounds
	return ro, nil
}

// outcome is Job.Outcome's answer: the retained round, or why not.
func (j *modelJob) outcome(n int) (*modelRound, error) {
	switch base := j.rounds - len(j.retained); {
	case n < 1:
		return nil, errInvalid
	case n <= base:
		return nil, ErrOutcomeEvicted
	case n <= j.rounds:
		return &j.retained[n-base-1], nil
	case j.closed:
		return nil, ErrJobClosed
	}
	return nil, ErrRoundPending
}

func render(ro RoundOutcome) []byte {
	b, err := appendOutcome(nil, &ro)
	if err != nil {
		return fmt.Append(b, " (encode error: ", err, ")")
	}
	return b
}

// modelRun drives one exchange and its reference through an op stream.
type modelRun struct {
	t    *testing.T
	rng  *rand.Rand
	dir  string
	opts Options
	ex   *Exchange
	m    *model
	// since holds the reference's states from the last successful Sync
	// on, oldest first: the states a crash image may hold.
	since []*model
	// fp is the armed failpoint ("" when none), fpCfg its trigger and
	// compactions the Compact calls since it was armed.
	fp          string
	fpCfg       fault.Config
	compactions int64
	known       []int // nodes registered at some point
	step        int
	op          string
}

func runExchangeModel(t *testing.T, seed int64, ops []byte) {
	rng := rand.New(rand.NewSource(seed))
	r := &modelRun{t: t, rng: rng, dir: filepath.Join(t.TempDir(), "nested", "data"),
		opts: Options{RequireRegistration: seed%2 == 0, SnapshotBytes: -1}}
	r.m = &model{requireReg: r.opts.RequireRegistration, jobs: map[string]*modelJob{}, nodes: map[int]*modelNode{}}
	t.Cleanup(fault.DisableAll)
	r.reopen()
	t.Cleanup(func() { r.ex.Close() }) //nolint:errcheck // the last reopen's exchange
	if _, err := os.Stat(filepath.Join(r.dir, wal.SegmentName)); err != nil {
		t.Fatal(err)
	}
	armAt := rng.Intn(len(ops)/2 + 1)
	fpNames := []string{"wal/write", "wal/fsync", "wal/rotate", "wal/prealloc", "wal/snapshot"}
	fp, fpCfg := fpNames[uint64(seed)%5], fault.Config{Err: fault.ErrIO, Nth: 1 + rng.Int63n(3), Sticky: rng.Intn(2) == 0}
	for r.step = -2; r.step < len(ops); r.step++ {
		if r.step == armAt { // on an idle log: the Sync leaves no write behind
			if err := r.ex.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := fault.Enable(fp, fpCfg); err != nil {
				t.Fatal(err)
			}
			r.fp, r.fpCfg, r.compactions = fp, fpCfg, 0
		}
		op := "create" // the first two steps
		if r.step >= 0 {
			op = modelOps[int(ops[r.step])%len(modelOps)]
		}
		durable := r.apply(op)
		// A failpoint that can degrade the log fires in its writer: a Sync
		// after each op lands the flip between ops, never inside one.
		if r.degradable() {
			if err := r.ex.Sync(); err == nil {
				durable = true
			} else if r.m.degraded = true; !r.ex.Degraded() {
				r.fatalf("Sync = %v, but the exchange does not report degraded", err)
			}
		}
		if msg := r.compare(r.m); msg != "" {
			r.fatalf("%s", msg)
		}
		if durable {
			r.since = r.since[:0]
		}
		r.since = append(r.since, r.m.clone())
	}
}

func (r *modelRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("op %d (%s): %s", r.step, r.op, fmt.Sprintf(format, args...))
}

// degradable reports whether an armed failpoint can still degrade the log.
func (r *modelRun) degradable() bool {
	return !r.m.degraded && (r.fp == "wal/write" || r.fp == "wal/fsync" || r.fp == "wal/rotate")
}

func (r *modelRun) expect(got, want error) {
	r.t.Helper()
	if verdict(got) != verdict(want) {
		r.fatalf("verdict %v, want %s", got, verdict(want))
	}
}

// apply runs op and reports whether it made all state so far durable.
func (r *modelRun) apply(op string) (durable bool) {
	rng, m := r.rng, r.m
	if r.op = op; r.degradable() && (op == "growth" || op == "racing close") {
		r.op = "bid" // one exchange call per op until the failpoint fires
	}
	switch r.op {
	case "bid":
		id := r.pickJob()
		r.submit(id, r.bid(id, r.pickNode()))
	case "close":
		id := r.pickJob()
		ro, err := r.ex.CloseRound(id)
		want, werr := m.close(id)
		if r.expect(err, werr); werr == nil {
			r.closed(id, ro, want)
		}
	case "growth":
		id, n := r.pickJob(), 32+rng.Intn(128)
		off := rng.Intn(512 - n)
		for i := off; i < off+n; i++ {
			r.submit(id, r.bid(id, 1<<40+i<<20+i%3))
		}
		return r.ex.Sync() == nil // a crash image holds whole ops
	case "racing close":
		r.racingClose(r.pickJob())
		return r.ex.Sync() == nil
	case "create":
		spec := r.spec(modelIDs[rng.Intn(len(modelIDs))])
		_, err := r.ex.CreateJob(spec)
		r.expect(err, m.create(spec))
	case "remove":
		id := r.pickJob()
		var want error
		if m.jobs[id] == nil {
			want = ErrUnknownJob
		} else if m.degraded {
			want = errDegraded
		}
		if r.expect(r.ex.RemoveJob(id), want); want == nil {
			for node := range m.jobs[id].pending {
				m.nodes[node].accepted--
			}
			delete(m.jobs, id)
		}
	case "job close":
		if job, ok := r.ex.Job(r.pickJob()); ok {
			err := job.Close()
			if r.expect(err, m.nodeWrite()); err == nil {
				m.jobs[job.ID()].closed = true
			}
		}
	case "register":
		r.register(r.pickNode(), []string{"", "", "edge-0", "edge-1"}[rng.Intn(4)])
	case "ban":
		id := r.pickNode()
		n := m.nodes[id]
		got, err := r.ex.BlacklistNode(id)
		if r.expect(err, m.nodeWrite()); err == nil && got != (n != nil) {
			r.fatalf("BlacklistNode(%d) = %v", id, got)
		} else if got {
			n.banned = true
		}
	case "read":
		r.read(r.pickJob())
	case "compact":
		r.compactions++
		fires := r.compactions == r.fpCfg.Nth || r.fpCfg.Sticky && r.compactions > r.fpCfg.Nth
		if fires && (r.fp == "wal/prealloc" || r.fp == "wal/snapshot") {
			r.expect(r.ex.Compact(), errInvalid)
			m.snapErrs++
			return false
		}
		r.expect(r.ex.Compact(), nil)
		_, segErr := os.Stat(filepath.Join(r.dir, wal.SegmentName))
		if _, err := os.Stat(filepath.Join(r.dir, wal.SnapshotName)); err != nil || !errors.Is(segErr, os.ErrNotExist) {
			r.fatalf("after a compaction: snapshot %v, first segment %v", err, segErr)
		}
		m.snapshots++
		m.replayCreated = int64(len(m.jobs))
		return true
	case "sync":
		if err := r.ex.Sync(); (err != nil) != m.degraded {
			r.fatalf("Sync = %v with degraded %v", err, m.degraded)
		}
		return !m.degraded
	case "crash":
		crash := cloneDataDir(r.t, r.dir)
		r.ex.Close() //nolint:errcheck // the crashed process
		r.dir = crash
		r.reopen()
		return true
	case "restart":
		if err := r.ex.Close(); (err != nil) != m.degraded {
			r.fatalf("Close = %v with degraded %v", err, m.degraded)
		} else if err == nil {
			r.since = append(r.since[:0], m.clone())
		}
		r.reopen()
		return true
	}
	return false
}

// reopen opens the exchange on r.dir and requires it to equal, as a
// restart sees it, one of the states since the last Sync.
func (r *modelRun) reopen() {
	if r.m.degraded { // the failpoint has fired: the disk is healthy again
		fault.DisableAll()
		r.fp, r.fpCfg = "", fault.Config{}
	}
	ex, err := Open(r.dir, r.opts)
	if err != nil {
		r.fatalf("Open: %v", err)
	}
	r.ex = ex
	if r.since == nil { // the first open: an empty exchange
		r.since = []*model{r.m.clone()}
	}
	for i := len(r.since) - 1; i >= 0; i-- {
		if c := r.since[i].restarted(); r.compare(c) == "" {
			r.m = c
			return
		}
	}
	r.fatalf("the reopened exchange matches no state since the last Sync (%d states); against that Sync's: %s",
		len(r.since), r.compare(r.since[0].restarted()))
}

func (r *modelRun) pickJob() string {
	if ids := r.ex.JobIDs(); len(ids) > 0 && r.rng.Intn(5) > 0 {
		return ids[r.rng.Intn(len(ids))]
	}
	return modelIDs[r.rng.Intn(len(modelIDs))]
}

// pickNode mixes known nodes, dense IDs (duplicates are frequent),
// negative ones, IDs that share their low bits and sparse ones, so the
// dedup tables and the registry meet IDs that differ only in high bits.
func (r *modelRun) pickNode() int {
	switch rng := r.rng; rng.Intn(6) {
	case 4, 5:
		if len(r.known) > 0 {
			return r.known[rng.Intn(len(r.known))]
		}
		fallthrough
	case 0:
		return rng.Intn(48)
	case 1:
		return -1 - rng.Intn(48)
	case 2:
		return rng.Intn(8)<<32 | rng.Intn(4)
	default:
		return int(rng.Int63n(1 << 50))
	}
}

func (r *modelRun) spec(id string) JobSpec {
	rng := r.rng
	leontief, _ := auction.NewLeontief(0.5, 2)
	cobbDouglas, _ := auction.NewCobbDouglas(2, 0.5, 0.3, 0.2)
	rules := []auction.ScoringRule{testRule(r.t, rng.Intn(8)), leontief, cobbDouglas}
	spec := JobSpec{
		ID: id,
		Auction: auction.Config{Rule: rules[rng.Intn(len(rules))], K: 1 + rng.Intn(4),
			Payment: auction.FirstPrice + auction.PaymentRule(rng.Intn(2)), Psi: []float64{1, 0.6}[rng.Intn(2)]},
		Seed:         rng.Int63n(1000),
		MinBids:      1 + rng.Intn(3),
		KeepOutcomes: 1 + rng.Intn(4),
		MaxRounds:    []int{0, 0, 0, 2 + rng.Intn(3)}[rng.Intn(4)],
	}
	if rng.Intn(16) == 0 {
		spec.Auction.K = 0
	}
	return spec
}

// bid draws a bid for job id: mostly valid, sometimes of the wrong
// dimension, not finite, or scoring near the ±MaxFloat64/(2K) bound.
func (r *modelRun) bid(id string, node int) auction.Bid {
	rng, dims, k := r.rng, 2, 1
	if j := r.m.jobs[id]; j != nil {
		dims, k = j.spec.Auction.Rule.Dims(), j.spec.Auction.K
	}
	b := auction.Bid{NodeID: node, Qualities: make([]float64, dims), Payment: 0.05 + rng.Float64()}
	for i := range b.Qualities {
		b.Qualities[i] = rng.Float64()
	}
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(24) {
	case 0:
		b.Qualities = b.Qualities[:dims-1]
	case 1:
		b.Qualities = append(b.Qualities, 0.5)
	case 2:
		b.Qualities[0] = math.NaN()
	case 3:
		b.Payment = math.Inf(int(sign))
	case 4:
		b.Payment = sign * math.MaxFloat64 / float64(2*k) * []float64{0.5, 0.999999, 1.000001, 4}[rng.Intn(4)]
	case 5:
		b.Qualities[rng.Intn(dims)] = sign * math.MaxFloat64 / float64(1+rng.Intn(8))
	}
	return b
}

func (r *modelRun) submit(id string, b auction.Bid) {
	r.t.Helper()
	got, err := r.ex.SubmitBid(id, b)
	want, werr := r.m.submit(id, b)
	if r.expect(err, werr); got != want {
		r.fatalf("node %d entered round %d, want %d", b.NodeID, got, want)
	} else if err == nil {
		r.known = append(r.known, b.NodeID)
	}
}

func (r *modelRun) register(id int, meta string) {
	info, err := r.ex.RegisterNode(id, meta)
	if r.expect(err, r.m.nodeWrite()); err != nil {
		return
	}
	n := r.m.nodes[id]
	if n == nil {
		n = &modelNode{}
		r.m.nodes[id] = n
	}
	if meta != "" {
		n.meta = meta
	}
	r.known = append(r.known, id)
	if info.ID != id || info.Meta() != n.meta {
		r.fatalf("RegisterNode(%d, %q) = node %d, meta %q", id, meta, info.ID, info.Meta())
	}
}

// closed holds the round the exchange closed to the reference's, latency
// aside, and keeps the bytes it served.
func (r *modelRun) closed(id string, ro, want RoundOutcome) {
	served := render(ro)
	if ro.Latency = 0; !bytes.Equal(render(ro), render(want)) {
		r.fatalf("job %s closed\n %s\nwant %s", id, render(ro), render(want))
	}
	j := r.m.jobs[id]
	j.retained[len(j.retained)-1].served = served
}

// racingClose closes the job's round while four goroutines submit: each
// submits a quarter of 64 registered nodes (a quarter of them already in
// the round) and its neighbour's quarter, so two submits race on every
// node and each verdict depends only on which side of the drain it lands.
func (r *modelRun) racingClose(id string) {
	j := r.m.jobs[id]
	if j == nil || j.closed || r.m.degraded {
		r.apply("close")
		return
	}
	type race struct {
		b     auction.Bid
		round int
		err   error
	}
	races := make([][]race, 4)
	for i := range 64 {
		node := 1<<45 + i<<8
		if r.m.nodes[node] == nil {
			r.register(node, "")
		}
		b := auction.Bid{NodeID: node, Qualities: slices.Repeat([]float64{0.5}, j.spec.Auction.Rule.Dims()), Payment: 0.2 + 0.001*float64(i)}
		if _, in := j.pending[node]; i%4 == 0 && !in && !r.m.nodes[node].banned {
			r.submit(id, b)
		}
		races[i%4], races[(i+1)%4] = append(races[i%4], race{b: b}), append(races[(i+1)%4], race{b: b})
	}
	if len(j.pending) < j.spec.MinBids { // its pre-submitted nodes are banned
		r.apply("close")
		return
	}
	var wg sync.WaitGroup
	for _, rs := range races {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range rs {
				rs[k].round, rs[k].err = r.ex.SubmitBid(id, rs[k].b)
			}
		}()
	}
	ro, err := r.ex.CloseRound(id)
	wg.Wait()
	if err != nil {
		r.fatalf("racing close: %v", err)
	}
	// The closing round holds the bids that landed before their stripe's
	// drain, the next round those after it; a duplicate needs a bid of its
	// node in one of them, and the job refuses all when this round was its
	// last.
	round, closing, next := j.rounds+1, maps.Clone(j.pending), map[int]auction.Bid{}
	var dups []int
	for _, rs := range races {
		for _, res := range rs {
			node, want := res.b.NodeID, r.m.nodes[res.b.NodeID]
			_, inClosing := closing[node]
			_, inNext := next[node]
			switch {
			case want.banned:
				r.expect(res.err, ErrBlacklisted)
			case res.err == nil && res.round == round && !inClosing:
				closing[node] = res.b
			case res.err == nil && res.round == round+1 && !inNext:
				next[node] = res.b
			case errors.Is(res.err, ErrDuplicateBid):
				dups = append(dups, node)
			case !errors.Is(res.err, ErrJobClosed) || round != j.spec.MaxRounds:
				r.fatalf("node %d: (round %d, %v) racing the close of round %d", node, res.round, res.err, round)
			}
			if res.err != nil {
				r.m.rejected++
			} else {
				r.m.accept(node)
			}
		}
	}
	for _, node := range dups {
		_, inClosing := closing[node]
		if _, inNext := next[node]; !inClosing && !inNext {
			r.fatalf("node %d refused as a duplicate with no bid in round %d or %d", node, round, round+1)
		}
	}
	j.pending = closing
	want, _ := r.m.close(id)
	j.pending = next
	r.closed(id, ro, want)
}

// read probes Outcome, WaitOutcome and OutcomesAfter at a random round and
// cursor.
func (r *modelRun) read(id string) {
	job, ok := r.ex.Job(id)
	j := r.m.jobs[id]
	if ok != (j != nil) {
		r.fatalf("Job(%s) = %v", id, ok)
	} else if !ok {
		return
	}
	n := r.rng.Intn(j.rounds+3) - 1
	want, werr := j.outcome(n)
	ro, err := job.Outcome(n)
	if r.expect(err, werr); want != nil && !bytes.Equal(render(ro), want.served) {
		r.fatalf("Outcome(%d) = %s, want %s", n, render(ro), want.served)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a pending round answers context.Canceled instead of blocking
	if errors.Is(werr, ErrRoundPending) {
		werr = context.Canceled
	}
	ro, err = job.WaitOutcome(ctx, n)
	if r.expect(err, werr); want != nil && !bytes.Equal(render(ro), want.served) {
		r.fatalf("WaitOutcome(%d) = %s, want %s", n, render(ro), want.served)
	}
	after, limit := r.rng.Intn(j.rounds+3)-2, r.rng.Intn(4)
	page, more := job.OutcomesAfter(after, limit)
	rest := slices.DeleteFunc(slices.Clone(j.retained), func(e modelRound) bool { return e.round <= after })
	wantMore := limit > 0 && len(rest) > limit
	if wantMore {
		rest = rest[:limit]
	}
	if more != wantMore || len(page) != len(rest) {
		r.fatalf("OutcomesAfter(%d, %d) = %d rounds (more %v), want %d (more %v)", after, limit, len(page), more, len(rest), wantMore)
	}
	for i := range page {
		if !bytes.Equal(render(page[i]), rest[i].served) {
			r.fatalf("OutcomesAfter(%d, %d)[%d] = %s, want %s", after, limit, i, render(page[i]), rest[i].served)
		}
	}
}

// compare holds the exchange's every read accessor and counter to m and
// describes the first difference ("" when there is none).
func (r *modelRun) compare(m *model) string {
	ex, ids, active := r.ex, slices.Sorted(maps.Keys(m.jobs)), 0
	if got := ex.JobIDs(); !slices.Equal(got, ids) {
		return fmt.Sprintf("JobIDs %v, want %v", got, ids)
	}
	for _, id := range ids {
		job, _ := ex.Job(id)
		j := m.jobs[id]
		state, latest := "closed", 0
		if !j.closed {
			state = "collecting"
			active++
		}
		if len(j.retained) > 0 {
			latest = j.rounds
		}
		gotSpec, _ := walJobFromSpec(job.Spec())
		wantSpec, _ := walJobFromSpec(j.spec)
		page, more := job.OutcomesAfter(0, 0)
		ro, _ := job.Latest()
		got := fmt.Sprint(job.Round(), job.State(), job.PendingBids(), ro.Round, len(page), more, gotSpec)
		if want := fmt.Sprint(j.rounds+1, state, len(j.pending), latest, len(j.retained), false, wantSpec); got != want {
			return fmt.Sprintf("job %s (round, state, pending, latest, retained, more, spec) %s, want %s", id, got, want)
		}
		for i := range page {
			if got := render(page[i]); !bytes.Equal(got, j.retained[i].served) {
				return fmt.Sprintf("job %s retains\n %s\nwant %s", id, got, j.retained[i].served)
			}
		}
	}
	for id, n := range m.nodes {
		if info, ok := ex.Registry().Lookup(id); !ok {
			return fmt.Sprintf("node %d is not registered", id)
		} else if info.Meta() != n.meta || info.Bids() != n.accepted || info.Blacklisted() != n.banned {
			return fmt.Sprintf("node %d: meta %q, %d bids, banned %v; want %q, %d, %v",
				id, info.Meta(), info.Bids(), info.Blacklisted(), n.meta, n.accepted, n.banned)
		}
	}
	s := ex.Metrics()
	got := fmt.Sprint(s.JobsCreated, s.JobsActive, s.NodesKnown, s.RoundsTotal, s.RoundsFailed, s.IdleTicks,
		s.BidsAccepted, s.BidsRejected, s.WalSnapshots, s.WalSnapshotErrors, s.WalFailed, ex.Degraded())
	if want := fmt.Sprint(m.created, active, len(m.nodes), m.rounds, 0, m.idle,
		m.accepted, m.rejected, m.snapshots, m.snapErrs, m.degraded, m.degraded); got != want {
		return fmt.Sprintf("metrics (jobs created, active; nodes; rounds, failed, idle; bids accepted, rejected; snapshots, errors; wal failed, degraded) %s, want %s", got, want)
	}
	return ""
}
