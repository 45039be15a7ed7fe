package exchange

import (
	"bufio"
	"cmp"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"fmore/internal/auction"
	"fmore/internal/wal"
)

// Record kinds of the write-ahead log.
const (
	recJobCreated = "job"     // a job was created (full spec)
	recRound      = "round"   // a round completed (outcome verbatim)
	recJobClosed  = "closed"  // a job was closed by Job.Close; MaxRounds closes are derived on replay
	recJobRemoved = "removed" // a job was evicted with RemoveJob
	recNode       = "node"    // a node registered (or its meta changed)
	recNodeBan    = "ban"     // a node was blacklisted
)

// walRecord is the union payload of one log record; Kind selects which
// field is populated.
type walRecord struct {
	Kind  string    `json:"k"`
	Job   *walJob   `json:"job,omitempty"`
	Round *walRound `json:"round,omitempty"`
	Node  *walNode  `json:"node,omitempty"`
	// ID names the job of a closed/removed record.
	ID string `json:"id,omitempty"`
}

// walJob is a serialized JobSpec. The scoring rule travels as the wire-form
// auction.RuleSpec, the same encoding the HTTP front end accepts.
type walJob struct {
	ID           string           `json:"id"`
	Rule         auction.RuleSpec `json:"rule"`
	K            int              `json:"k"`
	Payment      int              `json:"payment"`
	Psi          float64          `json:"psi"`
	Seed         int64            `json:"seed"`
	BidWindowNS  int64            `json:"bid_window_ns,omitempty"`
	MaxRounds    int              `json:"max_rounds,omitempty"`
	MinBids      int              `json:"min_bids"`
	KeepOutcomes int              `json:"keep_outcomes"`
	// Equilibrium is the optional bidder-side game description; it is
	// already a JSON wire form, so it persists verbatim. Absent on records
	// written before the strategy endpoint existed.
	Equilibrium *auction.EquilibriumSpec `json:"eq,omitempty"`
}

// walWinner is one selected bid of a persisted outcome.
type walWinner struct {
	NodeID     int       `json:"n"`
	Qualities  walFloats `json:"q"`
	BidPayment walFloat  `json:"bp"`
	Score      walFloat  `json:"s"`
	Payment    walFloat  `json:"p"`
}

// walFloat and walFloats are the floats of a round record, read in either
// spelling (see roundenc.go): the JSON string of the base64 of their
// little-endian bytes, which is what this package writes, or the JSON
// numbers that logs and snapshots written before the bit spelling hold.
type (
	walFloat  float64
	walFloats []float64
)

// UnmarshalJSON decodes a walFloat.
func (f *walFloat) UnmarshalJSON(b []byte) error {
	if b[0] != '"' {
		return json.Unmarshal(b, (*float64)(f))
	}
	var one [1]float64
	fs, err := appendBitFloats(one[:0], b)
	if err == nil && len(fs) != 1 {
		err = fmt.Errorf("exchange: %s spells %d floats, want one", b, len(fs))
	}
	if err != nil {
		return err
	}
	*f = walFloat(fs[0])
	return nil
}

// UnmarshalJSON decodes a walFloats.
func (fs *walFloats) UnmarshalJSON(b []byte) error {
	if b[0] != '"' {
		return json.Unmarshal(b, (*[]float64)(fs))
	}
	out, err := appendBitFloats(make([]float64, 0, len(b)*3/32), b)
	*fs = out
	return err
}

// appendBitFloats appends the floats whose little-endian bytes the JSON
// string b spells in base64. Bits that are no finite float64 are refused,
// as the encoder refuses to write them.
func appendBitFloats(dst []float64, b []byte) ([]float64, error) {
	var buf [64 * 8]byte // a round_churn_durable round's scores
	raw, err := base64.StdEncoding.AppendDecode(buf[:0], b[1:len(b)-1])
	if err != nil || len(raw)%8 != 0 {
		return dst, fmt.Errorf("exchange: %s spells no float64 bits", b)
	}
	for i := 0; i < len(raw); i += 8 {
		v := math.Float64frombits(word(raw[i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dst, fmt.Errorf("exchange: %s spells a NaN or an infinity", b)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// walRound is one completed round, stored verbatim so a replayed exchange
// serves byte-identical outcome responses. Draws is the job's cumulative
// rng-source step count after this round: replay fast-forwards the seeded
// source by exactly that many steps, so post-recovery rounds draw the same
// tiebreaks (and ψ-admissions) the uncrashed process would have drawn.
type walRound struct {
	Job     string `json:"job"`
	Round   int    `json:"r"`
	NumBids int    `json:"nb"`
	// Bidders lists the round's node IDs (canonical ascending order); replay
	// uses it to restore per-node accepted-bid counters.
	Bidders   []int       `json:"bidders,omitempty"`
	Draws     int64       `json:"draws"`
	LatencyNS int64       `json:"lat"`
	Err       string      `json:"err,omitempty"`
	Winners   []walWinner `json:"w"`
	Scores    walFloats   `json:"sc"`
	Profit    walFloat    `json:"profit"`
}

// walNode is a registry entry.
type walNode struct {
	ID   int    `json:"id"`
	Meta string `json:"meta,omitempty"`
}

// walSnapshot is the exchange's full durable state as of a rotation cut.
// Replaying it and then the segments with seq >= CutSeq reproduces exactly
// the state a record-by-record replay of the deleted segments plus the tail
// would have produced: job specs, the KeepOutcomes-bounded outcome history
// (so retained outcome responses stay byte-identical), round numbering,
// cumulative rng draw counts (so post-recovery rounds continue bit-for-bit)
// and the registry with per-node bid counters, meta and bans.
//
// These structs are the document's schema and its reader; the writer
// (snapCapture.encode) streams the same document without building them.
type walSnapshot struct {
	// CutSeq is the first segment the snapshot does NOT cover: the log's
	// member (wal.Log.Cut hands it out, wal.Open reads it back), emitted first.
	CutSeq int64         `json:"cut_seq"`
	Jobs   []walSnapJob  `json:"jobs,omitempty"`
	Nodes  []walSnapNode `json:"nodes,omitempty"`
}

// walSnapJob is one job's snapshotted state. History holds the retained
// rounds in their history form (see appendWalRound): the walRound object
// with Bidders and Draws zero — counters and the cumulative draw count are
// snapshotted once, not per retained round.
type walSnapJob struct {
	Spec    walJob     `json:"spec"`
	Closed  bool       `json:"closed,omitempty"`
	Round   int        `json:"round"`
	Draws   int64      `json:"draws"`
	History []walRound `json:"history,omitempty"`
}

// walSnapNode is one registry entry with its counters.
type walSnapNode struct {
	ID     int    `json:"id"`
	Meta   string `json:"meta,omitempty"`
	Bids   int64  `json:"bids,omitempty"`
	Banned bool   `json:"banned,omitempty"`
}

// snapCapture is what Compact collects under the stop-the-world locks:
// scalars and copies of the retained outcomes, whose memory is never
// written again — nothing is encoded there. jobs[i] owns
// rounds[jobs[i-1].roundsEnd:jobs[i].roundsEnd], its retained rounds,
// oldest first.
type snapCapture struct {
	cutSeq int64
	jobs   []snapJob
	rounds []RoundOutcome
	nodes  []walSnapNode
}

// snapJob is one job's captured state (the walSnapJob fields).
type snapJob struct {
	job       *Job
	closed    bool
	round     int
	baseRound int
	draws     int64
	roundsEnd int
}

// finish does, outside the stop-the-world locks, what the capture left
// undone: it orders the nodes and fills in the serialized spec of every
// captured job that has none cached yet (specs are immutable, so each job
// pays this once). The caller holds compactMu.
func (c *snapCapture) finish() error {
	slices.SortFunc(c.nodes, func(a, b walSnapNode) int { return cmp.Compare(a.ID, b.ID) })
	for i := range c.jobs {
		j := c.jobs[i].job
		if j.snapSpec != nil {
			continue
		}
		wj, err := walJobFromSpec(j.spec)
		if err == nil {
			j.snapSpec, err = json.Marshal(wj)
		}
		if err != nil {
			return fmt.Errorf("exchange: snapshotting job %q: %w", j.id, err)
		}
	}
	return nil
}

// encode streams the walSnapshot document — the bytes json.Marshal would
// produce for it, history entries in the log's spelling — encoding each
// retained round into one reused buffer. Write errors stick to w and
// surface at its Flush.
func (c *snapCapture) encode(w *bufio.Writer) {
	str := func(s string) { w.WriteString(s) }                                      //nolint:errcheck // sticky
	num := func(n int64) { w.Write(strconv.AppendInt(w.AvailableBuffer(), n, 10)) } //nolint:errcheck // sticky
	// element starts the i-th element of an omitempty array member.
	element := func(i int, open string) {
		if i == 0 {
			str(open)
		} else {
			str(",")
		}
	}
	str(`{"cut_seq":`)
	num(c.cutSeq)
	var entry []byte
	lo := 0
	for i := range c.jobs {
		sj := &c.jobs[i]
		element(i, `,"jobs":[`)
		str(`{"spec":`)
		w.Write(sj.job.snapSpec) //nolint:errcheck // sticky
		if sj.closed {
			str(`,"closed":true`)
		}
		str(`,"round":`)
		num(int64(sj.round))
		str(`,"base_round":`) // kept for readers of earlier versions
		num(int64(sj.baseRound))
		str(`,"draws":`)
		num(sj.draws)
		str(`,"auct_round":`) // kept for readers of earlier versions
		num(int64(sj.round - 1))
		for k := range c.rounds[lo:sj.roundsEnd] {
			element(k, `,"history":[`)
			// Every captured round encodes: captureSnapshot refuses a job
			// with one that did not (Job.unlogged).
			entry, _ = appendWalRound(entry[:0], &c.rounds[lo+k], nil, 0)
			w.Write(entry) //nolint:errcheck // sticky
		}
		if sj.roundsEnd > lo {
			str("]")
		}
		lo = sj.roundsEnd
		str("}")
	}
	if len(c.jobs) > 0 {
		str("]")
	}
	for i, n := range c.nodes {
		element(i, `,"nodes":[`)
		str(`{"id":`)
		num(int64(n.ID))
		if n.Meta != "" {
			str(`,"meta":`)
			w.Write(appendJSONString(w.AvailableBuffer(), n.Meta)) //nolint:errcheck // sticky
		}
		if n.Bids != 0 {
			str(`,"bids":`)
			num(n.Bids)
		}
		if n.Banned {
			str(`,"banned":true`)
		}
		str("}")
	}
	if len(c.nodes) > 0 {
		str("]")
	}
	str("}")
}

// Test hooks of the compaction crash matrix: persist_test simulates a
// kill -9 at each point by copying the data dir while the exchange runs.
var (
	testHookAfterRotate   func() // rotation durable, snapshot not yet written
	testHookAfterSnapshot func() // snapshot durable, old segments not yet deleted
	testHookBeforeApply   func() // a mutation's record queued, its change not yet made
)

// Compact writes a snapshot of the exchange's durable state, rotates the
// log onto a fresh segment, and deletes the segments the snapshot covers.
// The whole mutation history up to the cut collapses into one state
// capture, so replay cost and disk usage stay bounded by live state
// (KeepOutcomes history, registry size) instead of growing with every round
// ever closed. Durable exchanges trigger it automatically (size threshold —
// see Options.SnapshotBytes); calling it manually is also safe at
// any time. On an in-memory exchange it is a no-op. The steps, and the
// crash-safety argument for their order, are the log's (internal/wal).
func (ex *Exchange) Compact() (err error) {
	if ex.wal == nil {
		return nil
	}
	ex.compactMu.Lock()
	defer ex.compactMu.Unlock()
	start := time.Now()
	// Any failure, at any step, is counted and handed to the log to clean
	// up after — which also re-arms the size trigger, so the next
	// over-threshold commit retries.
	defer func() {
		if err != nil {
			ex.metrics.snapshotErrs.Add(1)
			ex.wal.Abort()
		}
	}()
	if err := ex.wal.Rotate(); err != nil {
		return err
	}
	stwStart := time.Now()
	snap, err := ex.captureSnapshot()
	stw := time.Since(stwStart)
	if err == nil {
		err = snap.finish()
	}
	if err != nil {
		return err
	}
	ex.wal.Wait() // old segments durable, writer switched
	if hook := testHookAfterRotate; hook != nil {
		hook()
	}
	if err := ex.wal.WriteSnapshot(snap.encode); err != nil {
		return err
	}
	if hook := testHookAfterSnapshot; hook != nil {
		hook()
	}
	ex.wal.Prune()
	ex.metrics.snapshots.Add(1)
	ex.metrics.snapshotNs.Store(int64(time.Since(start)))
	ex.metrics.snapshotStwNs.Store(int64(stw))
	return nil
}

// captureSnapshot is a compaction's stop-the-world section: ex.mu freezes
// the job set and each job's closeMu parks its round closes (and therefore
// all round/job record appends). Under those locks, and ex.nodeMu, which
// waits out a node record between its append and its apply, the cut goes
// into the log's queue — every record enqueued before it lands in the
// segments the snapshot covers, everything after in the tail it does not —
// and the state as of the cut is collected: per-job scalars and a copy of
// each retained RoundOutcome. Nothing is encoded — the copies share the
// outcomes' memory, which no close, eviction or reader ever writes, so the
// snapshot encodes them after the locks drop while rounds close on.
func (ex *Exchange) captureSnapshot() (*snapCapture, error) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.closed {
		return nil, ErrExchangeClosed
	}
	// The published table's ID list is already sorted — the deterministic
	// closeMu lock order the capture relies on.
	t := ex.table.Load()
	jobs := make([]*Job, 0, len(t.jobs))
	for _, id := range t.ids {
		j := t.jobs[id]
		j.closeMu.Lock()
		defer j.closeMu.Unlock()
		jobs = append(jobs, j)
	}
	ex.nodeMu.Lock()
	cut, ok := ex.wal.Cut()
	ex.nodeMu.Unlock() // before lockAll: submit takes a shard lock, then nodeMu
	if !ok {
		return nil, ErrExchangeClosed
	}
	retained := 0
	for _, j := range jobs {
		if j.unlogged {
			// A round's encode failed at close (the log's sticky error): it
			// has no record, and the snapshot must not invent one.
			return nil, fmt.Errorf("exchange: snapshotting job %q: a retained round has no log record", j.id)
		}
		retained += j.hist.count() // the history changes only under closeMu
	}
	snap := &snapCapture{cutSeq: cut, jobs: make([]snapJob, 0, len(jobs)), rounds: make([]RoundOutcome, 0, retained)}
	for _, j := range jobs {
		j.mu.Lock()
		for i := range j.hist.count() {
			snap.rounds = append(snap.rounds, *j.hist.entry(i))
		}
		snap.jobs = append(snap.jobs, snapJob{
			job:       j,
			closed:    j.closed.Load(),
			round:     j.round,
			baseRound: j.hist.evictedThrough(),
			draws:     j.src.n,
			roundsEnd: len(snap.rounds),
		})
		j.mu.Unlock()
	}
	// Pending (buffered, unclosed) bids already incremented their node's
	// live counter, but their round record will land in the tail — which
	// replay re-counts. Capture counters net of pending so snapshot + tail
	// reproduces exactly what a record-by-record replay would. The whole
	// intake is frozen across both the pending scan AND the counter reads,
	// and every acceptance (registered counter and open-posture first-bid
	// registration alike) runs inside a shard critical section, so no bid
	// can slip between the two reads. The clamp below is pure defense.
	pending := make(map[int]int64)
	for _, j := range jobs {
		j.intake.lockAll()
	}
	for _, j := range jobs {
		j.intake.pendingByNodeLocked(pending)
	}
	ex.reg.Range(func(info *NodeInfo) bool {
		bids := info.Bids() - pending[info.ID]
		if bids < 0 {
			bids = 0
		}
		snap.nodes = append(snap.nodes, walSnapNode{
			ID:     info.ID,
			Meta:   info.Meta(),
			Bids:   bids,
			Banned: info.Blacklisted(),
		})
		return true
	})
	for _, j := range jobs {
		j.intake.unlockAll()
	}
	return snap, nil
}

// applySnapshot replays a snapshot into the (still private) exchange,
// exactly as if the deleted segments' records had been applied one by one.
// Replay runs before any reader exists, so the whole job set is built in
// one publish instead of a copy-per-job.
func (ex *Exchange) applySnapshot(snap *walSnapshot) error {
	for _, n := range snap.Nodes {
		ex.reg.restore(n.ID, n.Meta, n.Bids, n.Banned)
	}
	var ferr error
	ex.publishJobs(func(jobs map[string]*Job) {
		for i := range snap.Jobs {
			sj := &snap.Jobs[i]
			spec, err := sj.Spec.spec()
			if err != nil {
				ferr = fmt.Errorf("snapshot job %q: %w", sj.Spec.ID, err)
				return
			}
			if _, dup := jobs[spec.ID]; dup {
				ferr = fmt.Errorf("snapshot job %q duplicated", spec.ID)
				return
			}
			j, err := newJob(ex, spec.ID, spec)
			if err != nil {
				ferr = fmt.Errorf("snapshot job %q: %w", spec.ID, err)
				return
			}
			for k := range sj.History {
				j.restoreRound(sj.History[k].outcome(j.id))
			}
			if len(sj.History) == 0 {
				j.round = sj.Round
			}
			j.src.fastForwardTo(sj.Draws)
			if sj.Closed {
				j.closed.Store(true)
			}
			jobs[spec.ID] = j
			ex.metrics.jobsCreated.Add(1)
		}
	})
	return ferr
}

// Open starts an exchange backed by a write-ahead outcome log in dir
// (created if absent): the log recovers the files (internal/wal) and the
// exchange replays what survived — see "Durability" in the package comment
// for what comes back and why a record that does not replay fails the Open.
// Timer-mode jobs resume their bid windows once replay completes.
func Open(dir string, opts Options) (*Exchange, error) {
	// A partitioned replica namespaces its WAL under the data dir so N
	// replicas can share one parent (one machine in tests, one volume in
	// small deployments) without their logs or dir locks colliding.
	if p := opts.Partition; p != nil && p.Local != "" {
		dir = filepath.Join(dir, "replica-"+p.Local)
	}
	log, rec, err := wal.Open(dir, wal.Options{
		SegmentBytes: opts.SnapshotBytes,
		OnFail:       walFailure(opts.OnWALFailure),
	})
	if err != nil {
		return nil, fmt.Errorf("exchange: %w", err)
	}
	// Replay runs with ex.wal still nil: nothing it applies is logged again.
	ex := New(opts)
	if err := ex.replay(rec); err != nil {
		ex.Close()
		log.Close() //nolint:errcheck // already failing
		return nil, err
	}
	ex.wal = log
	ex.compactDone = make(chan struct{})
	go ex.compactLoop()
	// Start the bid windows only now: a loop closing rounds mid-replay would
	// interleave fresh draws with the reconstruction of old ones.
	ex.mu.Lock()
	for _, j := range ex.table.Load().jobs {
		if j.spec.BidWindow > 0 && !j.closed.Load() {
			j.loopDone = make(chan struct{})
			go j.loop()
		}
	}
	ex.mu.Unlock()
	return ex, nil
}

// replay applies what the log recovered to the (still private) exchange.
func (ex *Exchange) replay(rec *wal.Recovery) error {
	if rec.Snapshot != nil {
		snap := new(walSnapshot)
		err := json.Unmarshal(rec.Snapshot, snap)
		if err == nil {
			err = ex.applySnapshot(snap)
		}
		if err != nil {
			return fmt.Errorf("exchange: replaying snapshot: %w", err)
		}
	}
	for _, seg := range rec.Segments {
		for i, payload := range seg.Records {
			var r walRecord
			err := json.Unmarshal(payload, &r)
			if err == nil {
				err = ex.applyRecord(r)
			}
			if err != nil {
				return fmt.Errorf("exchange: replaying wal segment %d record %d: %w", seg.Seq, i, err)
			}
		}
	}
	ex.finishReplay()
	return nil
}

// compactLoop runs background compaction for a durable exchange on the
// writer's size trigger. Failures are counted in the metrics snapshot and
// retried on the next trigger; they never poison the log itself.
func (ex *Exchange) compactLoop() {
	defer close(ex.compactDone)
	for {
		select {
		case <-ex.ctx.Done():
			return
		case <-ex.wal.Full():
		}
		ex.Compact() //nolint:errcheck // counted in metrics; next trigger retries
	}
}

// applyRecord replays one log record into the (still private) exchange.
// Replay is single-threaded, before any client can reach the exchange, so
// it touches job state without locks.
func (ex *Exchange) applyRecord(rec walRecord) error {
	switch rec.Kind {
	case recJobCreated:
		if rec.Job == nil {
			return errors.New("job record without payload")
		}
		spec, err := rec.Job.spec()
		if err != nil {
			return err
		}
		j, err := newJob(ex, spec.ID, spec)
		if err != nil {
			return err
		}
		if _, dup := ex.table.Load().jobs[spec.ID]; dup {
			return fmt.Errorf("job %q created twice", spec.ID)
		}
		ex.publishJobs(func(jobs map[string]*Job) { jobs[spec.ID] = j })
		ex.metrics.jobsCreated.Add(1)
	case recRound:
		if rec.Round == nil {
			return errors.New("round record without payload")
		}
		j, ok := ex.table.Load().jobs[rec.Round.Job]
		if !ok {
			return fmt.Errorf("round for unknown job %q", rec.Round.Job)
		}
		j.restoreRound(rec.Round.outcome(j.id))
		j.src.fastForwardTo(rec.Round.Draws)
		for _, id := range rec.Round.Bidders {
			ex.reg.register(id, "").bids.Add(1)
		}
	case recJobClosed:
		j, ok := ex.table.Load().jobs[rec.ID]
		if !ok {
			return fmt.Errorf("close for unknown job %q", rec.ID)
		}
		j.closed.Store(true)
	case recJobRemoved:
		if _, ok := ex.table.Load().jobs[rec.ID]; !ok {
			return fmt.Errorf("removal of unknown job %q", rec.ID)
		}
		ex.publishJobs(func(jobs map[string]*Job) { delete(jobs, rec.ID) })
	case recNode, recNodeBan:
		if rec.Node == nil {
			return fmt.Errorf("%s record without payload", rec.Kind)
		}
		info := ex.reg.register(rec.Node.ID, rec.Node.Meta)
		if rec.Kind == recNodeBan {
			info.blacklisted.Store(true)
		}
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// finishReplay settles derived state the log does not spell out: a job
// whose last persisted round hit MaxRounds is closed here, since that close
// writes no record of its own; and every job's intake shards are aligned to
// its replayed collecting round.
func (ex *Exchange) finishReplay() {
	for _, j := range ex.table.Load().jobs {
		if !j.closed.Load() && j.spec.MaxRounds > 0 && j.round > j.spec.MaxRounds {
			j.closed.Store(true)
		}
		j.intake.setRound(j.round)
	}
}

// spec reconstructs the JobSpec (rule included) of a job record.
func (w *walJob) spec() (JobSpec, error) {
	rule, err := w.Rule.Build()
	if err != nil {
		return JobSpec{}, err
	}
	spec := JobSpec{
		ID: w.ID,
		Auction: auction.Config{
			Rule:    rule,
			K:       w.K,
			Payment: auction.PaymentRule(w.Payment),
			Psi:     w.Psi,
		},
		Seed:         w.Seed,
		BidWindow:    time.Duration(w.BidWindowNS),
		MaxRounds:    w.MaxRounds,
		MinBids:      w.MinBids,
		KeepOutcomes: w.KeepOutcomes,
		Equilibrium:  w.Equilibrium,
	}
	spec.setDefaults()
	return spec, nil
}

// walJobFromSpec serializes a JobSpec for a job record or a snapshot. An
// unserializable rule is refused (CreateJob rejects such jobs up front on a
// durable exchange, so this never fires for hosted jobs).
func walJobFromSpec(spec JobSpec) (walJob, error) {
	ruleSpec, err := auction.SpecForRule(spec.Auction.Rule)
	if err != nil {
		return walJob{}, err
	}
	return walJob{
		ID:           spec.ID,
		Rule:         ruleSpec,
		K:            spec.Auction.K,
		Payment:      int(spec.Auction.Payment),
		Psi:          spec.Auction.Psi,
		Seed:         spec.Seed,
		BidWindowNS:  int64(spec.BidWindow),
		MaxRounds:    spec.MaxRounds,
		MinBids:      spec.MinBids,
		KeepOutcomes: spec.KeepOutcomes,
		Equilibrium:  spec.Equilibrium,
	}, nil
}

// outcome reconstructs the RoundOutcome of a round record. Failed rounds
// keep a zero Outcome, exactly as CloseRound published them.
func (w *walRound) outcome(jobID string) RoundOutcome {
	ro := RoundOutcome{
		JobID:   jobID,
		Round:   w.Round,
		NumBids: w.NumBids,
		Latency: time.Duration(w.LatencyNS),
	}
	if w.Err != "" {
		ro.Err = errors.New(w.Err)
		return ro
	}
	winners := make([]auction.Winner, len(w.Winners))
	for i, win := range w.Winners {
		winners[i] = auction.Winner{
			Bid: auction.Bid{
				NodeID:    win.NodeID,
				Qualities: win.Qualities,
				Payment:   float64(win.BidPayment),
			},
			Score:   float64(win.Score),
			Payment: float64(win.Payment),
		}
	}
	if w.Winners == nil {
		winners = nil // ψ-FMore's zero-eligible outcome has nil Winners
	}
	ro.Outcome = auction.Outcome{
		Winners:          winners,
		Scores:           w.Scores,
		AggregatorProfit: float64(w.Profit),
	}
	return ro
}

// mutate is the one path of every durable mutation but the round close
// (Job.logRound). It runs, in this order: the degraded gate, so a refusal
// comes before every other verdict; check, the caller's verdicts, where ok
// false is an accepted no-op that writes nothing; on a durable exchange the
// record's encode and append, which never waits on disk; and apply, so a
// change the log refused is never made. A caller holds, from check to
// apply, a lock captureSnapshot holds at or after its cut and before it
// reads what apply changes (ex.mu, j.mu or ex.nodeMu), so a record before
// the cut is in the state captured. An in-memory exchange builds no record.
func (ex *Exchange) mutate(check func() (ok bool, err error), record func() (walRecord, error), apply func()) error {
	if err := ex.degradedErr(); err != nil {
		return err
	}
	if ok, err := check(); !ok || err != nil {
		return err
	}
	if ex.wal != nil {
		rec, err := record()
		if err != nil {
			return err
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("exchange: encoding wal record: %w", err)
		}
		b := ex.wal.Buf()
		b.Write(payload) // Write to a Buffer cannot fail
		ex.wal.Append(b)
	}
	if hook := testHookBeforeApply; hook != nil {
		hook()
	}
	apply()
	return nil
}

// logRound encodes one completed round, once, in record form, straight
// into the log's frame buffer and appends it. Nothing is kept: a snapshot
// encodes the retained outcome again. An in-memory exchange encodes
// nothing; an encode failure sticks to the log like any other and marks
// the job unlogged. Callers hold closeMu.
func (j *Job) logRound(ro *RoundOutcome, bidders []int) {
	log := j.ex.wal
	if log == nil {
		return
	}
	b := log.Buf()
	rec, err := appendWalRound(append(b.AvailableBuffer(), walRoundPrefix...), ro, bidders, j.src.n)
	if err != nil {
		j.unlogged = true
		log.Fail(fmt.Errorf("exchange: encoding wal record: %w", err))
		return
	}
	b.Write(append(rec, walRoundSuffix...)) // in place unless it outgrew b
	log.Append(b)
}
