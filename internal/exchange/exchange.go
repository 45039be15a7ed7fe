package exchange

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fmore/internal/admission"
	"fmore/internal/auction"
	"fmore/internal/partition"
	"fmore/internal/wal"
)

// ErrExchangeClosed reports an operation on a shut-down exchange.
var ErrExchangeClosed = errors.New("exchange: closed")

// Options configures an Exchange.
type Options struct {
	// RequireRegistration rejects bids from nodes that have not been
	// registered (a closed deployment, where nodes register through
	// POST /v1/nodes before bidding). When false, first contact
	// auto-registers — the open posture of the HTTP front end.
	RequireRegistration bool
	// SnapshotBytes is the floor of the WAL's size trigger (default 8 MiB;
	// negative disables the size trigger): compaction (snapshot + segment
	// rotation) runs once the active segment reaches this many bytes or
	// twice the last snapshot, whichever is larger, so a compaction writes
	// at most half a snapshot byte per log byte it retires while the
	// snapshot holds its size. The log on disk, and what a restart
	// replays, is then at most the snapshot plus that trigger plus a
	// segment being retired — see "Snapshot + rotation" in the package
	// comment. Only meaningful with Open.
	SnapshotBytes int64
	// Partition scopes the exchange to one partition of a multi-replica
	// cluster: Local names the partition this replica owns and Map is the
	// live cluster map (swappable through its atomic handle without a
	// restart). A partitioned replica refuses to create jobs whose IDs
	// rendezvous-hash to another partition and answers job-scoped requests
	// for jobs it does not host with wrong_partition + the owner's URL;
	// with Open, its WAL/snapshot directory is additionally namespaced
	// per replica (<dir>/replica-<partition>) so several replicas can
	// share one data-dir parent. Nil (the default) is the unpartitioned
	// single-process posture with zero added cost on any path.
	Partition *partition.Assignment
	// OnWALFailure selects the storage failure policy of a durable
	// exchange: WALDegrade (the default) keeps serving reads while
	// refusing durable writes with *DegradedError after the outcome log's
	// first sticky error; WALFailstop terminates the process instead. Only
	// meaningful with Open. See the "Failure model & degraded mode"
	// section of the package documentation.
	OnWALFailure WALFailurePolicy
	// Admission enables overload protection: hierarchical token-bucket
	// rate limits on bid intake (global/per-node/per-job), an in-flight
	// request gate, and SSE subscriber caps, all with shed accounting
	// surfaced via Metrics and GET /v1/healthz. Shed bids fail with
	// *OverloadError (429 + retry_after_ms over HTTP); round closes, WAL
	// commits and SSE heartbeats are never shed. Nil (the default)
	// disables admission with zero added cost on the hot path.
	Admission *admission.Controller
}

// jobTable is the exchange's epoch-published job set: an immutable map
// plus its sorted ID list, swapped whole behind Exchange.table. Readers
// (submit, outcome reads, SSE attach, stats, scrapes) resolve a job with
// one atomic load and zero locks; the map behind a published table is
// never mutated again. Writers copy, mutate the copy, and publish a new
// table with the next epoch under ex.mu — the atomic store is the release
// barrier that makes a new job's fields visible to lock-free readers.
//
// The epoch is a plain monotone generation counter (one bump per publish
// under ex.mu). Round closes never republish — a *Job resolved from any
// table stays valid after eviction, and RemoveJob's closeMu barrier
// orders an in-flight close's WAL record before the removal record — so
// the epoch's job is observability: tests and debuggers can pin a table
// and assert publication order without locking the world.
type jobTable struct {
	epoch int64
	jobs  map[string]*Job
	ids   []string // lexically sorted; shared — callers copy before returning
}

// publishJobs copies the current table, applies mutate to the copy, and
// publishes the result under the next epoch. Callers hold ex.mu (or are
// the single-threaded replay in Open, which runs before any reader can
// exist). Job churn is rare, so the O(jobs) copy is off every hot path.
func (ex *Exchange) publishJobs(mutate func(jobs map[string]*Job)) {
	cur := ex.table.Load()
	next := make(map[string]*Job, len(cur.jobs)+1)
	for id, j := range cur.jobs {
		next[id] = j
	}
	mutate(next)
	ids := make([]string, 0, len(next))
	for id := range next {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	ex.table.Store(&jobTable{epoch: cur.epoch + 1, jobs: next, ids: ids})
}

// Exchange hosts many concurrent FL auction jobs over one shared node
// registry and metrics sink. All methods are safe for concurrent use.
type Exchange struct {
	opts    Options
	reg     *Registry
	metrics *Metrics
	fh      *Firehose
	part    *partition.Assignment
	adm     *admission.Controller

	ctx    context.Context
	cancel context.CancelFunc

	// mu serializes job-set mutation (create/remove/close) and the
	// republish of table; it is never taken to read. table is the
	// epoch-published job set every read path loads lock-free.
	mu     sync.Mutex
	table  atomic.Pointer[jobTable]
	closed bool
	seq    atomic.Int64

	// wal is the write-ahead outcome log; nil on an in-memory exchange
	// (New). Open attaches it after replay. Its sticky error is the
	// replica's degraded state (degraded.go), its Stats the wal_* gauges.
	// compactMu serializes Compact (the log's compaction steps run one at a
	// time); compactDone closes when compactLoop has exited. See persist.go.
	wal         *wal.Log
	compactMu   sync.Mutex
	compactDone chan struct{}
	// nodeMu holds a node record's check, append and apply together
	// (RegisterNode, BlacklistNode), and captureSnapshot's cut outside them.
	nodeMu sync.Mutex
}

// New returns an in-memory exchange; it starts no goroutine.
func New(opts Options) *Exchange {
	ctx, cancel := context.WithCancel(context.Background())
	ex := &Exchange{
		opts:    opts,
		reg:     newRegistry(),
		metrics: newMetrics(),
		fh:      new(Firehose),
		part:    opts.Partition,
		adm:     opts.Admission,
		ctx:     ctx,
		cancel:  cancel,
	}
	ex.table.Store(&jobTable{jobs: make(map[string]*Job)})
	return ex
}

// CreateJob validates spec, hosts the job, and (in timer mode) starts its
// bid-window goroutine. Job creation is rare, so the whole path runs under
// the jobs mutex: ID resolution, validation and publication are atomic
// (auto-assigned IDs skip past names callers have taken, and a failed
// validation leaks nothing).
func (ex *Exchange) CreateJob(spec JobSpec) (*Job, error) {
	spec.setDefaults()
	if err := ex.checkCreateOwnership(spec.ID); err != nil {
		return nil, err
	}

	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.closed {
		return nil, ErrExchangeClosed
	}
	var j *Job
	err := ex.mutate(func() (bool, error) {
		hosted := ex.table.Load().jobs
		id := spec.ID
		if id == "" {
			// A partitioned replica keeps drawing sequence IDs until one
			// rendezvous-hashes to its own partition, so a create without an
			// explicit ID always lands locally (expected ~P draws for P
			// partitions).
			for {
				id = fmt.Sprintf("job-%d", ex.seq.Add(1))
				if _, taken := hosted[id]; !taken && ex.part.Owns(id) {
					break
				}
			}
		} else if _, dup := hosted[id]; dup {
			return false, fmt.Errorf("exchange: job %q already exists", id)
		}
		spec.ID = id
		var err error
		j, err = newJob(ex, id, spec)
		return err == nil, err
	}, func() (walRecord, error) {
		wj, err := walJobFromSpec(j.spec)
		if err != nil {
			// An unserializable rule cannot be recovered; refuse the job up
			// front rather than silently dropping it from the log.
			return walRecord{}, fmt.Errorf("exchange: job %q is not persistable: %w", j.id, err)
		}
		return walRecord{Kind: recJobCreated, Job: &wj}, nil
	}, func() {
		// loopDone must be in place before the job is published: the table
		// store is the release barrier lock-free readers (and Close's table
		// snapshot) synchronize on, so every job field write must precede it.
		if spec.BidWindow > 0 {
			j.loopDone = make(chan struct{})
		}
		ex.publishJobs(func(jobs map[string]*Job) { jobs[j.id] = j })
		ex.metrics.jobsCreated.Add(1)
	})
	if err != nil {
		return nil, err
	}
	if j.loopDone != nil {
		go j.loop()
	}
	return j, nil
}

// RemoveJob closes the job and evicts it from the exchange, releasing its
// auctioneer, buffers and retained outcome history. Without eviction a
// long-lived service would grow without bound as FL tasks finish. Outcome
// reads for the job fail afterwards.
func (ex *Exchange) RemoveJob(id string) error {
	j, ok := ex.table.Load().jobs[id]
	if !ok {
		return ex.missingJob(id)
	}
	// Removal is a durable mutation (the removal record is what keeps the
	// job gone after recovery), so a degraded replica refuses it before
	// touching the job.
	if err := ex.degradedErr(); err != nil {
		return err
	}
	j.close()
	if j.loopDone != nil {
		<-j.loopDone
	}
	// Same barrier Exchange.Close uses: wait out any in-flight CloseRound
	// before eviction. Ordering matters twice over: (1) a round mid-close
	// when removal starts must append its round record before the removal
	// record, or replay meets a round for a deleted job; (2) the job stays
	// visible to Close's jobs snapshot until fully drained, so a shutdown
	// racing the unfinished round cannot close the log under it.
	j.closeMu.Lock()
	j.closeMu.Unlock() //nolint:staticcheck // empty critical section is the barrier

	// Log and evict under the jobs mutex: CreateJob may only reuse the ID
	// once the published table is without the slot, and it logs its created
	// record under the same mutex, so the log can never read created →
	// created or removed after the successor's records. The removal record
	// alone keeps the job gone after recovery; no job-closed record is
	// needed alongside. The bids of its collecting round leave their nodes'
	// counters under the mutex too: no replay counts them, so no snapshot
	// capture (which holds the mutex) may.
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.mutate(func() (bool, error) {
		if cur, present := ex.table.Load().jobs[id]; !present || cur != j {
			// A concurrent RemoveJob won the eviction (and the slot may already
			// host a successor job, which must not be torn down here).
			return false, fmt.Errorf("%w: %q", ErrUnknownJob, id)
		}
		return true, nil
	}, func() (walRecord, error) { return walRecord{Kind: recJobRemoved, ID: id}, nil }, func() {
		ex.publishJobs(func(jobs map[string]*Job) { delete(jobs, id) })
		for _, b := range j.intake.drain(nil) {
			info, _ := ex.reg.Lookup(b.NodeID)
			info.bids.Add(-1)
		}
	})
}

// Job resolves a hosted job by ID: one atomic table load, no locks. This
// is the resolve on every submit, outcome read, SSE attach and stats
// lookup, so it must never contend with job churn or round closes.
func (ex *Exchange) Job(id string) (*Job, bool) {
	j, ok := ex.table.Load().jobs[id]
	return j, ok
}

// JobIDs lists hosted jobs in lexical order (the table keeps its ID list
// pre-sorted; only the caller-owned copy is paid here).
func (ex *Exchange) JobIDs() []string {
	t := ex.table.Load()
	ids := make([]string, len(t.ids))
	copy(ids, t.ids)
	return ids
}

// RegisterNode adds a node to the shared registry (idempotent). A no-op
// re-registration (node known, meta empty or unchanged) writes nothing to
// the outcome log, so heartbeat-style re-registration does not grow it. A
// degraded exchange refuses with *DegradedError and changes nothing: the
// node's log record could no longer reach disk. Registrations are
// serialized: racing first ones write one record.
func (ex *Exchange) RegisterNode(id int, meta string) (info *NodeInfo, err error) {
	ex.nodeMu.Lock()
	defer ex.nodeMu.Unlock()
	err = ex.mutate(func() (bool, error) {
		known, ok := ex.reg.Lookup(id)
		if ok && (meta == "" || known.Meta() == meta) {
			info = known
			return false, nil
		}
		return true, nil
	}, func() (walRecord, error) {
		return walRecord{Kind: recNode, Node: &walNode{ID: id, Meta: meta}}, nil
	}, func() { info = ex.reg.register(id, meta) })
	return info, err
}

// BlacklistNode bans the node from all future rounds and records the ban in
// the outcome log, so a restarted exchange still refuses its bids. It
// reports whether the node was registered. A degraded exchange refuses with
// *DegradedError and bans nothing: a ban the log drops would be lifted by
// the next restart.
func (ex *Exchange) BlacklistNode(id int) (banned bool, err error) {
	ex.nodeMu.Lock()
	defer ex.nodeMu.Unlock()
	var info *NodeInfo
	err = ex.mutate(func() (bool, error) {
		info, banned = ex.reg.Lookup(id)
		return banned && !info.Blacklisted(), nil
	}, func() (walRecord, error) {
		return walRecord{Kind: recNodeBan, Node: &walNode{ID: id}}, nil
	}, func() { info.blacklisted.Store(true) })
	return banned, err
}

// Registry exposes the node directory, read-only: registrations and bans
// go through RegisterNode and BlacklistNode, which log them.
func (ex *Exchange) Registry() *Registry { return ex.reg }

// SubmitBid admits one sealed bid into the job's current round, enforcing
// the registry policy (registration requirement, blacklist). It returns the
// round the bid was entered into. The exchange takes ownership of the bid.
func (ex *Exchange) SubmitBid(jobID string, bid auction.Bid) (round int, err error) {
	j, ok := ex.Job(jobID)
	if !ok {
		ex.metrics.bidsRejected.Add(1)
		return 0, ex.missingJob(jobID)
	}
	// Degraded gate, ahead of all intake work: an accepted bid is a
	// durability promise (its round's record must survive a restart),
	// which a failed WAL can no longer keep. One atomic load while
	// healthy.
	if err := ex.degradedErr(); err != nil {
		ex.metrics.bidsRejected.Add(1)
		return 0, err
	}
	info, registered := ex.reg.Lookup(bid.NodeID)
	if !registered && ex.opts.RequireRegistration {
		ex.metrics.bidsRejected.Add(1)
		return 0, fmt.Errorf("%w: node %d", ErrNotRegistered, bid.NodeID)
	}
	if registered && info.Blacklisted() {
		ex.metrics.bidsRejected.Add(1)
		return 0, fmt.Errorf("%w: node %d", ErrBlacklisted, bid.NodeID)
	}
	// Admission runs after the cheap policy checks and before any intake
	// work: a shed bid touches no stripe, no buffer and no log. Registered
	// nodes carry their private bucket on the registry entry (one lazy CAS
	// per node lifetime, then a lock-free pointer load); unregistered nodes
	// share one bucket so a registration spray cannot dodge the node level.
	if ex.adm != nil {
		var nodeBucket *admission.Bucket
		if registered {
			nodeBucket = info.admitBucket(ex.adm)
		} else {
			nodeBucket = ex.adm.UnregisteredBucket()
		}
		if ok, scope, retry := ex.adm.AdmitBid(nodeBucket, j.admit); !ok {
			ex.metrics.bidsRejected.Add(1)
			return 0, &OverloadError{Scope: scope, RetryAfter: retry}
		}
	}
	// Acceptance side effects run inside the intake shard's critical
	// section, atomically with the buffer insert — the invariant the WAL
	// snapshot's pending-bid accounting relies on. Registered nodes pass
	// their counter directly (no allocation on the hot path); an unknown
	// node's first bid registers it — one durable mutation per node
	// lifetime, not per bid, so the hot path stays append-free. A
	// registration the log refuses refuses the bid.
	var accepted *atomic.Int64
	var register func(id int, meta string) (*NodeInfo, error)
	if registered {
		accepted = &info.bids
	} else {
		register = ex.RegisterNode
	}
	round, err = j.submit(bid, accepted, register)
	if err != nil {
		ex.metrics.bidsRejected.Add(1)
		return 0, err
	}
	ex.metrics.acceptBid(bid.NodeID)
	return round, nil
}

// Firehose exposes the exchange's event tap of closed rounds. Attaching a
// sink starts recording; until then the tap costs a close a single atomic
// load.
func (ex *Exchange) Firehose() *Firehose { return ex.fh }

// CloseRound closes the job's current round synchronously and returns its
// outcome. This is the manual drive of BidWindow-0 jobs; on timer-mode
// jobs it simply closes the window early. The returned outcome is the value
// the job's history retains and every reader shares: hold it as long as
// needed, do not mutate it (Outcome.Clone for a private copy).
func (ex *Exchange) CloseRound(jobID string) (RoundOutcome, error) {
	j, ok := ex.Job(jobID)
	if !ok {
		return RoundOutcome{}, ex.missingJob(jobID)
	}
	return j.CloseRound()
}

// Metrics returns a point-in-time health snapshot. jobs_active is derived
// from the published job table at scrape time — not a created-minus-closed
// counter delta, which would go stale across a restart (replay recounts
// creations but closed-and-removed jobs leave no counted trace). The scan
// walks one immutable table, so a scrape never blocks (or is blocked by)
// job churn; a half-created job is unreachable by construction because
// publication is a single pointer store.
func (ex *Exchange) Metrics() Snapshot {
	active := 0
	for _, j := range ex.table.Load().jobs {
		if !j.closed.Load() {
			active++
		}
	}
	s := ex.metrics.snapshot(ex.reg.Len(), active)
	if ex.wal != nil {
		st := ex.wal.Stats()
		s.WalSegmentCount = st.Segments
		s.WalBytes = st.Bytes
		s.WalFsyncTotal = st.Fsyncs
		s.WalFsyncBatchedRecords = st.FsyncRecords
		s.WalSnapshotBytes = st.SnapshotBytes
		s.WalFailed = ex.wal.Err() != nil
		s.WalLastErrorUnix = ex.wal.FailedUnix()
	}
	published, dropped := ex.fh.Stats()
	s.FirehoseEvents, s.FirehoseDropped = int64(published), int64(dropped)
	if ex.adm != nil {
		st := ex.adm.Stats()
		s.AdmissionEnabled = true
		s.AdmissionOverloaded = st.Overloaded
		s.AdmissionInflight = st.Inflight
		s.AdmissionShedTotal = st.ShedTotal()
		s.AdmissionShedGlobal = st.ShedGlobal
		s.AdmissionShedNode = st.ShedNode
		s.AdmissionShedJob = st.ShedJob
		s.AdmissionShedInflight = st.ShedInflight
		s.AdmissionSSEActive = st.SSEActive
		s.AdmissionSSEEvicted = st.SSEEvicted
	}
	return s
}

// Sync blocks until every record appended to the outcome log so far is
// durable on disk and returns the log's first sticky error (encode, write
// or fsync). On an in-memory exchange it is a no-op.
func (ex *Exchange) Sync() error {
	if ex.wal == nil {
		return nil
	}
	return ex.wal.Sync()
}

// Close shuts the exchange down: every job is closed, in-flight round
// closes are drained, background compaction stops, and the outcome log (if
// any) is flushed and closed. Shutdown
// does not write job-closed records — a restart via Open resumes every
// unfinished job. Idempotent; the error is the outcome log's first sticky
// error (a failed final write, fsync or file close — records that never
// became durable), nil on an in-memory exchange or a clean shutdown.
func (ex *Exchange) Close() error {
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		if ex.wal != nil {
			return ex.wal.Close() // idempotent: waits out the first close, reports its error
		}
		return nil
	}
	ex.closed = true
	t := ex.table.Load()
	jobs := make([]*Job, 0, len(t.jobs))
	for _, j := range t.jobs {
		jobs = append(jobs, j)
	}
	ex.mu.Unlock()

	ex.cancel()
	// Wait out the compaction goroutine (an in-flight Compact finishes or
	// aborts on the closed flag; the writer it may be waiting on is still
	// running here).
	if ex.compactDone != nil {
		<-ex.compactDone
	}
	for _, j := range jobs {
		j.close()
		if j.loopDone != nil {
			<-j.loopDone
		}
	}
	// Barrier: a manual CloseRound that passed the closed-check may still be
	// scoring; taking each job's closeMu waits it out, so its record is
	// appended before the log's final flush.
	for _, j := range jobs {
		j.closeMu.Lock()
		j.closeMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	}
	// Signal-only: a sink wedged inside ConsumeRound must not wedge shutdown
	// (callers that want delivery guarantees Drain the firehose first).
	ex.fh.detach(nil)
	// After the barrier no append can be in flight, so the final flush sees
	// every record.
	if ex.wal != nil {
		return ex.wal.Close()
	}
	return nil
}
