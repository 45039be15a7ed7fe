// Package exchange is the multi-job auction exchange: a long-running
// service that hosts many concurrent FMore FL tasks, each running its own
// sequence of procurement-auction rounds against a shared population of
// registered edge nodes.
//
// The single-job auctioneer of internal/auction (Algorithm 1) scores one
// round synchronously; the exchange scales that engine to service shape.
// TestExchangeModel is the package's executable specification: one seeded
// op stream holds a durable exchange, through failpoints, crash images and
// restarts, to a reference of plain maps and one auctioneer per job.
//
// # Concurrency: the epoch-published job table, striped intake, round close
//
// The first step of every request is resolving a job ID, and it takes no
// lock at all. The exchange's job set lives in an immutable table (jobs
// map plus sorted ID list) published behind an atomic pointer:
//
//   - Readers — every submit, outcome read, SSE attach, stats lookup,
//     metrics scrape and the partition miss-check — load the pointer once
//     and index the map. The map behind a published table is never mutated
//     again, so a reader can hold it across arbitrary work; a *Job
//     resolved from any table stays valid even after a concurrent removal
//     evicts it (removal closes the job, it does not free it).
//   - Writers — CreateJob, RemoveJob, Close and WAL replay — are rare.
//     They serialize on ex.mu, copy the current map, mutate the copy and
//     publish a new table tagged with the next epoch (a monotone publish
//     generation; one bump per publish, useful to tests and debuggers).
//     ex.mu guards exactly this mutate-and-republish plus the closed flag
//     — it is never taken to read, and round closes never touch it.
//   - The atomic store is the release barrier: CreateJob finishes every
//     job field (spec, auctioneer, loop bookkeeping) and appends the WAL
//     created-record before the store, so a job visible to a lock-free
//     reader is always fully constructed and durable-ordered. RemoveJob
//     drains the job first (close, loop exit, the closeMu barrier below),
//     so an in-flight round close lands its record before the removal
//     record and replay never meets an outcome for a deleted job.
//
// Past the resolve, the hot path is bid ingestion, and it never touches a
// job-wide lock either:
//
//   - Each Job fronts its bid collection with P intake shards (four per
//     GOMAXPROCS thread, rounded up to a power of two, at most 32). A node
//     hashes to one shard — its private mutex, append-only buffer, dedup
//     table and pending count — so concurrent POST /v1/jobs/{id}/bids
//     serialize only on stripe collisions, never against each other
//     globally and never against a round close in progress. The
//     one-bid-per-node-per-round rule holds exactly because a node always
//     lands on the same shard.
//   - Each shard carries the round number its buffered bids belong to; the
//     close drains shards one by one, advancing each shard's round at its
//     drain. A submit racing the close is therefore labeled with the round
//     it actually joined: the closing round if it entered the buffer before
//     the drain, the next round otherwise. The dedup table is open-addressed
//     (node, round) slots, and a slot stamped with an earlier round is free,
//     so advancing the round is the whole reset: a drain clears nothing.
//     Each shard's pending count is written under its lock; the quorum
//     check and PendingBids sum the counts without taking any lock. The
//     bids_accepted counter is striped the same way (eight padded stripes,
//     picked by node, summed at scrape), so no counter is written by every
//     submit.
//   - CloseRound (serialized per job by closeMu) makes two passes of its
//     own over the slate and hands it to the auctioneer. Drain: the shards
//     empty into a reused gather buffer. Canonical order: packed int64
//     (NodeID, position) keys, compare-sorted below radixMinSlate (1,024)
//     bids and, from there up, sorted by a stable 11-bit LSD radix over
//     only as many ID bits as the round's largest node ID has (one reused
//     spare key buffer) — the same order either way, and the only thing
//     slate size selects here. Then Run: the job's auction.Auctioneer,
//     whose pooled Selector reuses its scratch round after round, scores
//     the slate (inline, or cut across the CPUs from 4,096 bids up — its
//     business, see internal/auction), draws one tiebreak per bid, keeps
//     the top K on a heap that looks at a bid's score before it builds the
//     bid's record, and returns the round's one owning outcome (see
//     Ownership). The exchange has no scoring machinery of its own, so
//     outcomes — failed rounds included — are bit-for-bit what the
//     standalone auctioneer would produce, independent of arrival order
//     and of which sort ran.
//   - Who validates what, and when: a bid is validated in full
//     (dimensions, finite qualities, finite payment) once on submit, before
//     it may enter a shard, and once more at close, where Run trusts none
//     of that: its scorer re-checks every quality vector as auction.Score
//     does, fused with the evaluation, and its tiebreak loop each payment.
//     A slate poisoned in between (only an embedded caller mutating a bid
//     it handed over can do that) fails the round with Run's error, which
//     names the node, after one draw per bid before it; the failed round
//     is retained and logged.
//   - Registry is a node directory that readers never write: one
//     open-addressed table, published through an atomic pointer and probed
//     without a lock, one mutex for the once-per-node insert, and atomic
//     per-node counters; the metrics are lock-free atomics and the event
//     firehose is a bounded queue a close offers to without waiting, so a
//     slow scrape or a wedged event consumer can never stall a bid or a
//     round close (see Observability below).
//
// # Ownership
//
// A closed round has one owner. Winner determination returns one owning
// copy of its result (three allocations whatever K is), the job's history
// keeps it, and everyone else shares it as is: both CloseRound methods, the
// read accessors and the event stream's cursor, which renders its
// round_closed events from the retained rounds themselves. That
// memory is written once and never reused — eviction only drops the
// history's reference — so it may be read outside every lock, at any pace,
// and a round replayed from the log is the same kind of entry as one closed
// live. Holders must not mutate it; Outcome.Clone gives a private copy.
// The history is a ring of KeepOutcomes slots: a close that pushes a round
// out of the window overwrites the oldest slot and advances the ring's
// head, so eviction is O(1) whatever KeepOutcomes is and no retained entry
// moves.
//
// Still recycled, for a measured beneficiary: the close's scratch (see
// Job.closeMu), none of which outlives its close. A history entry is the
// outcome alone: on a durable exchange the round's log record is encoded
// into the log's own frame buffer and not kept (see "Durability"). A
// steady-state close allocates the outcome's three blocks and nothing else
// (exchange.close_allocs = 3 in bench/'s traced run); a submit allocates 0.
//
// # Durability
//
// Open(dir, opts) backs the exchange with a write-ahead outcome log, so a
// long-lived auctioneer's allocation history — the thing the incentive
// mechanism's credibility rests on — survives a crash. The log itself is
// internal/wal: framing, group commit, preallocation, rotation, recovery of
// the files and the crash-safety argument for each live there, and it sees
// every payload as opaque bytes. This package owns what the bytes say.
//
// Every durable mutation appends one JSON record: job created (full spec,
// rule serialized as its wire form), round completed (outcome verbatim,
// cumulative rng draw count included), job closed (Job.Close; a MaxRounds
// close is derived from its round record on replay) or removed, node
// registered, node blacklisted. CloseRound hands the record to the log and
// never waits on disk (the payload is encoded before the hand-off, so the
// close path's scratch is reusable immediately); Sync flushes on demand,
// Close on shutdown.
//
// A round record is mostly floats (every bidder's score, each winner's
// qualities and payments), and no reader of the log needs them as
// decimals: replay only wants the bits back. So a round record spells
// every float64 as the standard base64 of its little-endian bytes, and a
// float list as one such string of its floats' bytes back to back — what
// encoding/json writes for a []byte, exact and at most twelve characters
// a float (`"profit":"AAAAAAAA8D8="` is 1.0). Keys, integers, strings, nulls and
// the framing are encoding/json's. The close encodes the record once, with
// a reflection-free encoder, straight into the log's frame buffer; its
// output is byte-identical to json.Marshal of the record with those
// []byte fields, and it refuses a NaN or ±Inf with json.Marshal's error in
// a float64, so the log fails where it always did (roundenc.go states the
// contract and what pins it). Job, node and close records go through
// encoding/json unchanged.
//
// The data dir is forward-only across the bit spelling. Replay reads both
// spellings — decimal floats, in every log and snapshot written before,
// and bits — and the writer has one, so a dir written before opens here
// and a compaction respells its retained rounds as bits. A binary from
// before the bit spelling refuses a new round record or snapshot at Open
// with a JSON type error (a string where it wants a number) rather than
// misreading it: a data dir written by this version needs this version or
// a later one.
//
// The /v1 body of a round, the close answer, the outcome reads, the
// outcome pages and the round_closed events, keeps decimal floats: its
// encoder (appendOutcome) writes what encoding/json writes for
// api.Outcome, built whole and sent with its Content-Length, and prints
// its numbers itself. shortest.go is a Dragonbox shortest-decimal kernel
// that writes, in both of encoding/json's notations and in place in the
// buffer's spare capacity, the bytes strconv.AppendFloat writes, and an
// integer writer, which the log encoder uses too, that writes what
// strconv.AppendInt writes; strconv stays in the tree as the kernel's test
// oracle only. No round's floats go through reflection anywhere.
//
// Replay (Open) applies the snapshot, then every surviving record in order,
// and is bit-for-bit: retained outcome responses are byte-identical, round
// numbering is contiguous, and each job's rng is fast-forwarded to its
// recorded draw count, so post-recovery rounds draw the same tiebreak and
// ψ-admission sequence the uncrashed process would have. A record that
// verified on disk but does not decode or apply fails the Open with its
// segment and index — the log's validity rule is length and checksum only,
// and no crash produces such a frame, so it is version skew or a bug and
// must be loud; the file is left as it was. Bids of a round that had not
// closed at the crash are lost (their round re-collects after restart),
// and process-local throughput counters restart from zero — only outcomes,
// specs and the registry are durable.
//
// # Snapshot + rotation (log compaction)
//
// Compaction (Exchange.Compact, triggered automatically once the active
// segment reaches Options.SnapshotBytes — default 8 MiB — or twice the last
// snapshot, whichever is larger) collapses everything before a cut into
// one snapshot document: job specs, closed flags, round numbering,
// cumulative rng draw counts, the KeepOutcomes-bounded outcome history
// verbatim, and the registry with per-node bid counters, meta and bans.
// The steps and their order are the log's (internal/wal, "Compaction");
// the exchange's part is to stop the world around the cut, so that every
// record before it is applied in the state captured there (captureSnapshot;
// a node record holds ex.nodeMu from its check to its apply, and so does
// the cut), and to stream the document once the locks are gone.
//
// The stop-the-world section of a compaction collects per-job scalars and
// a copy of each retained RoundOutcome, whose memory no close, eviction or
// reader ever writes, and encodes nothing. The snapshot is then streamed
// outside every lock while rounds keep closing: a few hundred bytes of
// header state per job, each retained round encoded in the round record's
// spelling into one reused buffer, the node table. The document is
// byte-identical to what marshalling the walSnapshot schema with bit-spelled
// floats produces. Replay decodes a snapshot's history entries, and a
// segment's round records, into outcomes and keeps no bytes of them. An
// in-memory exchange encodes and retains nothing.
//
// Why twice the snapshot: a compaction rewrites the whole retained state to
// retire one segment, and that state does not shrink as rounds churn
// through full KeepOutcomes windows. Triggered at SnapshotBytes alone, an
// exchange whose snapshot outgrew it would write the snapshot again for
// every SnapshotBytes of log (64 churning jobs: a ~19 MB snapshot per
// 8 MiB segment). Scaled with the snapshot, retiring log costs at most half
// a snapshot byte per log byte while the snapshot holds its size, as it
// does once the KeepOutcomes windows are full: write amplification, log
// and snapshot bytes over log bytes, stays at or below 1.5 however large
// the state is. The price is a longer log. On disk, the log is at most the
// snapshot plus max(SnapshotBytes, 2 × snapshot), plus the segment a
// compaction in flight is retiring; a restart replays up to that much log
// behind the snapshot, and the recovery scan reads each segment whole into
// memory, so a restarting replica's peak memory grows with the segment
// too. SnapshotBytes stays the floor: an exchange whose snapshot is under
// half of it compacts exactly as before.
//
// What a compaction costs is observable: wal_snapshot_bytes is the size of
// the last committed snapshot, which the next compaction writes about once
// more to retire at least twice as much log (or SnapshotBytes, when
// larger); wal_snapshot_seconds is its wall time and
// wal_snapshot_stw_seconds the share during which no round could close. A
// compaction that fails at any step counts in wal_snapshot_errors and is
// retried by the next trigger; the replica never leaves healthy service
// for it.
//
// # Failure model & degraded mode
//
// A torn tail (power loss or kill -9 mid-write) is routine: a group-commit
// window's worth of fire-and-forget acks is the documented loss cap. A
// sticky error on the live log — a failed frame write, fdatasync, or
// segment seal (EIO, ENOSPC), or a round that would not encode — is
// different: the log freezes at the first failure (internal/wal,
// "Failure") and the error is permanent for the process. The replica's
// degraded state is that sticky error, read where it lives. Finite
// qualities and payments can still overflow a round record: one bid's
// score s(q) − p (1.7e308 twice under additive [1,1]), or the aggregator
// profit summed over K winners. So submit refuses, with 400
// invalid_request counted in bids_rejected, a bid whose score lies outside
// ±MaxFloat64/(2K); within it every score and the profit stay finite, and
// no bid keeps its round's record from encoding. (The total payment, which
// only the /v1 body carries, can still overflow; that body is then refused
// whole with 500 internal_error.) Options.OnWALFailure picks the policy:
//
//   - WALDegrade (default). The replica stays up but stops lying about
//     durability: every durable mutation (bid submit, round close, job
//     create, Job.Close and RemoveJob, node registration and ban) refuses
//     with a DegradedError — HTTP 503, code durability_lost,
//     retry_after_ms set — and changes nothing, while reads, outcome
//     pages, SSE streams and metrics keep serving what was already won.
//     Every mutation but the round close takes one path, Exchange.mutate:
//     the gate, the caller's own verdicts, the record's append, and only
//     then the change, so no write the log refused is made in memory. The
//     registry Exchange.Registry hands out is read-only; nodes are
//     registered and banned through RegisterNode and BlacklistNode.
//     /v1/healthz flips to 503 {"status":"degraded","wal_failed_unix":…},
//     which the fmore-router's prober observes and steers sheddable bid
//     traffic away; the pkg/client SDK treats durability_lost as routing
//     feedback (refresh the map, re-aim once with the same
//     Idempotency-Key). wal_failed and wal_last_error_unix expose the
//     state in the JSON and Prometheus catalogs, Sync and Close return
//     the sticky error, and an operator resolves it with a restart on a
//     healthy disk — recovery replays to the last durable frame exactly
//     as after a crash.
//   - WALFailstop. The process exits (status 1) on the first sticky
//     error instead, for fleets that prefer a dead replica to a
//     read-only one.
//
// cmd/fmore-exchange exposes the choice as -on-wal-failure degrade|failstop.
// The failpoint framework (internal/fault, FMORE_FAILPOINTS) exists to
// prove all of the above deterministically: the crash-matrix tests (file
// level in internal/wal, outcome level here) and the chaos e2e test
// (TestE2EChaos in cmd/fmore-exchange) inject torn writes, EIO
// and ENOSPC at every stage and assert the contract, including
// byte-identical recovery of every acknowledged outcome outside the
// group-commit window.
//
// # Observability: metrics and the event firehose
//
// The exchange observes itself on three levels, all following the same
// never-block rule as the SSE broker — producers pay a bounded amount of
// work and nothing a consumer does can push back:
//
//   - Counters and gauges (Metrics/Snapshot). Counters are plain atomics
//     bumped inline; gauges are derived at scrape time from authoritative
//     state — jobs_active walks the epoch-published job table behind one
//     atomic load (so it cannot go stale across restarts or removals the
//     way counter arithmetic can, and cannot block or be blocked by churn),
//     wal_segment_count/wal_bytes mirror the segment scan and the log
//     writer's running size. Round-close latency is one internal/hist
//     histogram, one lock-free Record per successful close: rounds_total
//     is its count, the p50/p99 gauges its quantiles and the Prometheus
//     histogram its le counts.
//   - The firehose (Exchange.Firehose) taps closed rounds only — bids are
//     sealed until their round is scored, and SubmitBid never touches it.
//     CloseRound copies the canonical slate's (node, price) pairs into a
//     recycled TapRound beside the round's outcome, as the history keeps
//     it, and queues it for the pump of the exchange's one Sink, which
//     hands it over whole in one ConsumeRound call. The queue is bounded in
//     events, one per bid, per winner and per close: a round that does not
//     fit is dropped whole and counted (firehose_dropped), so a slow sink
//     never stalls a close and a sink sees whole rounds, each job's in
//     order. An idle pump sleeps; without a sink a close pays one atomic
//     load.
//   - Rollups (internal/analytics) ride the firehose as the Sink and serve
//     windowed + lifetime per-job and per-node aggregates over
//     GET /v1/jobs/{id}/stats and /v1/nodes/{id}/stats; its NewHandler
//     wraps this package's handler. A rollup counts a bid when its round
//     closes: it holds whole rounds, last_bid_ms is when the aggregator saw
//     the bid's round, and nothing of an open round's bids shows there.
//     Its memory follows activity: one bucket per window slice an entity
//     was seen in, not a whole window from first contact.
//
// GET /v1/metrics serves the JSON snapshot; GET /v1/metrics/prometheus
// serves the same state in Prometheus text exposition format (0.0.4,
// hand-rolled — no client library). The catalog, all prefixed
// fmore_exchange_ and unlabeled except the histogram's le:
//
//	uptime_seconds              gauge      seconds since New/Open
//	jobs_active                 gauge      hosted jobs still accepting rounds (live map scan)
//	jobs_created_total          counter    jobs ever created (replay included)
//	nodes_known                 gauge      registry size
//	rounds_total                counter    successful round closes (a failed one counts only in rounds_failed_total)
//	rounds_failed_total         counter    closes whose scoring/selection errored
//	idle_ticks_total            counter    timer windows skipped for an empty bid set
//	bids_accepted_total         counter    bids admitted into a round
//	bids_rejected_total         counter    bids refused (duplicate, policy, closed, …)
//	wal_snapshots_total         counter    completed WAL compactions
//	wal_snapshot_errors_total   counter    failed compaction attempts
//	wal_snapshot_bytes          gauge      size of the last committed snapshot file; twice it (or SnapshotBytes, if larger) is the next size trigger
//	wal_snapshot_seconds        gauge      wall time of the last completed compaction
//	wal_snapshot_stw_seconds    gauge      part of it spent under the stop-the-world locks
//	wal_segment_count           gauge      live log segments on disk (0 in-memory)
//	wal_bytes                   gauge      logical bytes across live segments (reservation excluded)
//	wal_fsync_total             counter    group commits (fsyncs) of the outcome log
//	wal_fsync_batched_records   counter    records those commits settled (ratio = batch size)
//	wal_failed                  gauge      1 after the log's first sticky error (degraded), else 0
//	wal_last_error_unix         gauge      Unix time of that first sticky error, 0 while healthy
//	firehose_events_total       counter    events of the rounds closed while a sink was attached
//	firehose_dropped_total      counter    of those, events of whole rounds the tap's full queue refused
//	round_latency_p50_seconds   gauge      nearest-rank p50 close latency since start, within 0.4%
//	round_latency_p99_seconds   gauge      nearest-rank p99 close latency since start, within 0.4%
//	round_latency_seconds       histogram  cumulative close latency, le= 250µs..2.5s buckets
//
// With Options.Admission installed the admission family joins the catalog
// (absent otherwise, so an unprotected exchange exposes zero admission
// surface):
//
//	admission_shed_total        counter    requests shed, labeled reason= global|node|job|inflight
//	admission_sse_evicted_total counter    SSE streams evicted (oldest first) at the cap
//	admission_inflight          gauge      bid submits currently inside the in-flight gate
//	admission_sse_active        gauge      SSE streams currently registered
//	admission_overloaded        gauge      1 while /v1/healthz answers 503, else 0
//
// A partitioned replica adds its topology (absent otherwise):
//
//	partition_id                gauge      constant 1; the served partition is the partition= label
//	partition_map_version       gauge      version of the cluster map the replica routes by
//	wrong_partition_total       counter    job-scoped requests refused because the map places the job elsewhere
//
// The page is one table, metricCatalog in prometheus.go: a row per sample
// line with its name, HELP, type, value and — for the partition and
// admission families — the condition under which it appears. Adding a
// metric is a field of api.Metrics, a row there and a row here;
// TestMetricCatalogAgrees holds the three together (every field of the
// JSON snapshot is rendered by some row or listed as JSON-only, every
// family of the table has its row here) and TestPrometheusGoldenPages pins
// the page's bytes.
//
// The three close-latency families and rounds_total read one histogram
// (internal/hist: 128 linear sub-buckets per power of two, every value
// within 0.4%), so _count equals rounds_total. Two consequences:
//
//   - p50 and p99 are over every close since start, not a recent window;
//     a windowed view is rate() over the Prometheus histogram.
//   - An le count is exact up to the histogram's resolution: a close
//     within 0.4% of a bound may count on the other side of it.
//
// # Admission & overload
//
// Options.Admission mounts an internal/admission.Controller in front of
// the bid-submit path (nil = no admission, zero overhead, no healthz
// overload state). The protection is layered, cheapest refusal first:
//
//   - In-flight gate. The HTTP handler claims a slot before reading the
//     request body or touching the Idempotency-Key, so a saturated
//     exchange sheds excess submits at the cost of a header parse.
//   - Hierarchical GCRA rate limits, global → per-node → per-job. Each
//     level is one lock-free CAS on a single int64 (the theoretical
//     arrival time); a rejected check is side-effect-free, so shed
//     traffic cannot push honest traffic's tokens out. The admit path
//     runs on a cached clock refreshed only when a level rejects —
//     steady-state headroom costs no clock reads — and allocates
//     nothing. Per-node buckets live on the registry entry (minted once
//     by CAS); unregistered nodes share one bucket, which also throttles
//     registration-spray abuse. Per-job buckets are minted at job
//     creation.
//   - SSE subscriber cap. At Config.MaxStreams the OLDEST stream is
//     evicted (its request context canceled) to admit the newcomer, so a
//     reconnect storm converges on the newest subscribers instead of
//     locking out fresh clients.
//
// Shed policy: only bid submits are ever shed. Round closes, WAL commits
// and SSE heartbeats are never admission-checked — load shedding exists
// to protect exactly those; a 429 on a close would be the failure mode,
// not the defense. A shed bid answers 429 {"code":"overloaded",
// "retry_after_ms":N}; because the shed happens before the idempotency
// claim (HTTP gate) or aborts it (rate gate), the request's
// Idempotency-Key is never burned — the pkg/client SDK sleeps the hint
// and retries with the same key.
//
// GET /v1/healthz is the overload signal for probers (the fmore-router
// polls it and fails fast on a replica's behalf): 200 {"status":"ok"}
// normally, 503 {"status":"overloaded","retry_after_ms":N} while the
// in-flight gate is saturated or within the fixed 1 s overload window of
// the most recent shed, so the bit is stable rather than flapping
// per-request.
//
// # The /v1 API
//
// NewHandler exposes the service over a versioned HTTP/JSON surface, the
// rows of api.Routes. Every body on it — requests, responses, event
// payloads, the error envelope and its codes — and every route is declared
// once, in pkg/api: this package encodes those types, pkg/client aliases
// them and cmd/fmore-router answers in them (TestWireDeclaredOnce keeps it
// that way). The v1 contract, which the pkg/client SDK (the supported Go
// consumer) wraps:
//
//   - Uniform errors. Every failure is api.Error, {code, message,
//     retry_after_ms?}, as application/json; code is stable API surface
//     (unknown_job, duplicate_bid, job_closed, below_quorum, timeout, …)
//     mapped from the package's sentinel errors by classify. A body over
//     api.MaxBody is refused with 413 invalid_request before anything is
//     decoded or claimed — it is never truncated and parsed.
//   - Idempotency. POST /v1/jobs and POST /v1/jobs/{id}/bids honor an
//     Idempotency-Key header: a repeated key replays the recorded response
//     (Idempotent-Replay: true) instead of failing on the duplicate side
//     effect, making client retries safe. Keys are process-local: a
//     restart forgets them, and no state is kept to remember them. A keyed
//     job POST retried after a crash finds its durable job and answers 400
//     invalid_request ("already exists"), not the recorded 201. A keyed
//     bid retried after a crash whose round had not closed was lost with
//     that round, so the retry is its one effect; one whose round closed
//     durably keeps that effect, and the retry joins the next round
//     (TestKeyedRetryAfterRestart).
//   - Pagination. GET /v1/jobs and GET /v1/jobs/{id}/outcomes page with
//     ?cursor= / ?limit= and return next_cursor while more remain.
//   - Server-push rounds. GET /v1/jobs/{id}/events is a Server-Sent Events
//     stream (round_open, round_closed with the outcome inline, job_closed,
//     heartbeat comments) served as a cursor over the job's retained
//     rounds: each stream remembers the last round it wrote and, woken by
//     the same broadcast the blocking outcome reads wait on, reads the
//     rounds after it from the history. Nothing is pushed per reader, so
//     the round pipeline never waits for one and a slow reader is never
//     dropped — it reads on at its own pace, and only rounds that leave the
//     KeepOutcomes window before it reaches them are skipped. Resumption
//     (Last-Event-ID or ?after=, clamped to the latest completed round) is
//     the same read from an earlier cursor, so within the window no round
//     is lost or duplicated. This replaces outcome long-polling for edge
//     clients (GET .../outcome?wait=1 remains for one-shot waits).
//
// # Deprecation policy
//
// The pre-v1 unversioned paths (POST /jobs, GET /jobs/{id}/outcome, …)
// served as deprecated aliases for one release and have been removed: they
// now 404 with the standard JSON envelope, like any unknown route. The only
// HTTP surface is /v1 (or pkg/client, which only speaks /v1).
//
// # Topology: partitioned clusters
//
// A single exchange owns every job. Options.Partition scopes the process to
// one partition of a cluster instead: the internal/partition.Assignment
// names the partition this replica serves and carries a shared handle to
// the cluster map (partition → replica base URL, monotonically versioned).
// Jobs map to partitions by rendezvous (highest-random-weight) hashing of
// the job ID, so ownership depends only on the set of partition IDs — not
// on replica count or order — and a map change moves only the jobs whose
// owner actually changed.
//
// Ownership is enforced at the edges, never on the hot path:
//
//   - Creation is strict. CreateJob refuses a spec whose explicit ID
//     hashes to another partition with a WrongPartitionError; auto-drawn
//     IDs are redrawn until locally owned (≈P draws for P partitions).
//   - Every other operation is host-based. A job this replica hosts is
//     always served — even if a newer map assigns it elsewhere, so a map
//     version bump never strands live rounds. Only a miss consults the
//     map: unknown jobs owned elsewhere answer WrongPartitionError (HTTP
//     421 Misdirected Request, code wrong_partition) naming the owning
//     replica's URL, partition and map version in the error envelope;
//     unknown jobs owned here answer unknown_job as before. Correctly
//     routed requests therefore pay zero partition overhead — the check
//     rides the existing job-lookup miss.
//
// GET /v1/cluster/partitions serves the replica's current map (404 on an
// unpartitioned exchange). Consumers converge in at most one retry, by one
// rule (partition.Routes.Reaim): the pkg/client SDK re-aims a refused
// request — event streams included — at the URL in the envelope (carrying
// the same Idempotency-Key, so redirected POSTs stay exactly-once) and
// refreshes its map from the refuser; cmd/fmore-router does the same as a
// reverse proxy for clients that want a single endpoint. A partitioned
// replica opened with Open(dir, opts) keeps its WAL and snapshots under
// dir/replica-<partition>, so replicas may share a data-dir parent without
// interleaving logs. The partition surface shows up in the Prometheus
// catalog as fmore_exchange_partition_id{partition=...} (info gauge),
// fmore_exchange_partition_map_version and
// fmore_exchange_wrong_partition_total.
//
// cmd/fmore-exchange is the runnable front end (see its -data-dir,
// -snapshot-bytes, -on-wal-failure and -pprof-addr flags; the log's
// group-commit hold is a fixed 2 ms),
// and pkg/client's Example drives one round through the SDK. The paper
// reproduction (internal/fl, internal/sim, Figs. 4-13 including the
// deployment of Figs. 12-13) does not go through the exchange: its FMore
// selector runs a private auction.Auctioneer, the two share only
// internal/auction, and a seeded job's SubmitBid + CloseRound is pinned
// equal to that Auctioneer's Run.
package exchange
