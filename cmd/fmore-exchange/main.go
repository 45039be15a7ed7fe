// fmore-exchange runs the auction exchange as a standalone HTTP service:
// a long-lived aggregator front end hosting many concurrent FL jobs behind
// the versioned /v1 API (the pre-v1 unversioned aliases have been removed;
// they answer 404).
//
//	go run ./cmd/fmore-exchange -addr :8780 -data-dir ./exchange-data
//
// # Partitioned clusters
//
// A single process owns every job. To shard jobs across replicas, start one
// process per partition with -partition naming the slice this replica owns
// and -partition-map the full cluster map (the same spec on every replica):
//
//	go run ./cmd/fmore-exchange -addr :8780 -data-dir ./d \
//	  -partition p0 -partition-map "p0=http://h1:8780,p1=http://h2:8780"
//	go run ./cmd/fmore-exchange -addr :8781 -data-dir ./d \
//	  -partition p1 -partition-map "p0=http://h1:8780,p1=http://h2:8780"
//
// Jobs map to partitions by rendezvous hashing of the job ID. Each replica
// serves the map at GET /v1/cluster/partitions and refuses jobs it does not
// own with a wrong_partition error (HTTP 421) naming the owning replica, so
// clients converge in one retry; the pkg/client SDK and the fmore-router
// reverse proxy both do this transparently. Replicas sharing a -data-dir
// parent keep disjoint WALs under <dir>/replica-<partition>. See the
// topology section of internal/exchange's package docs.
//
// With -data-dir set, every job spec, round outcome, registration and
// blacklisting is appended to a write-ahead log (<dir>/exchange.wal) and
// replayed on the next start: a crashed or restarted exchange serves the
// identical retained outcome history and continues its jobs with
// consistent round numbering and the same deterministic draw sequence.
// The log compacts itself: once the active segment reaches -snapshot-bytes
// (default 8 MiB) or twice the last snapshot, whichever is larger, the
// exchange snapshots its durable state, rotates onto a fresh segment and
// deletes the covered ones, so replay time and disk usage stay bounded by
// live state instead of total rounds served. Without -data-dir the
// exchange is in-memory only.
// The files, their format and the crash-safety of every step are
// internal/wal's (its package comment is the reference); what the records
// say and how they replay is internal/exchange's. A record that verifies
// on disk but no longer decodes — version skew, never a crash — fails the
// start loudly and leaves the file untouched.
//
// The log writer holds each commit for a fixed 2 ms, coalescing records
// before an fsync while nothing is waiting on durability — the crash-loss
// window is at most that hold plus one fsync. Once a durability waiter is
// pending the writer commits the moment its queue drains, so a waiter
// never idles out the hold while records racing in behind it still share
// its fsync. The achieved batching is observable as wal_fsync_total vs
// wal_fsync_batched_records in the metric catalog.
//
// # Storage failure policy
//
// -on-wal-failure picks what happens when the log takes its first sticky
// error (EIO, ENOSPC, a failed fsync or rotation — the error never
// clears; see "Failure" in internal/wal's docs and "Failure model &
// degraded mode" in internal/exchange's). "degrade" (default) keeps the replica up in
// read-only-for-writes mode: bid submits, round closes and job mutations
// answer 503 {"code":"durability_lost","retry_after_ms":N}, outcome
// reads/pages/SSE keep serving what memory holds, GET /v1/healthz flips
// to 503 {"status":"degraded"} so the fmore-router steers new bid traffic
// to healthy replicas, and wal_failed / wal_last_error_unix appear in
// both metric surfaces. "failstop" exits the process instead, for
// deployments that prefer crash-and-failover to a degraded survivor.
// Recovery is a restart against repaired storage: replay serves
// everything that reached the log before the error.
//
// For chaos drills, the FMORE_FAILPOINTS environment variable arms
// deterministic fault-injection sites inside the WAL (see internal/fault
// for the spec grammar); unset, the sites cost one dormant atomic load.
//
// # Admission control
//
// Overload protection is off unless at least one limit flag is set:
//
//	-rate-global N      exchange-wide bid-submit ceiling, bids/sec
//	-rate-node N        per-node bid-submit ceiling, bids/sec
//	-rate-job N         per-job bid-submit ceiling, bids/sec
//	-max-inflight N     concurrent bid submits inside the handler; beyond
//	                    it requests shed before the body is read
//	-max-subscribers N  SSE stream cap; the oldest stream is evicted to
//	                    admit a new one
//
// Each rate limit absorbs a fixed 250 ms burst (burst = rate x 250 ms,
// min 1). Shed bid submits answer 429
// {"code":"overloaded","retry_after_ms":N}; the pkg/client SDK sleeps the
// hint and retries with the same Idempotency-Key (a shed never burns the
// key). Round closes, WAL commits and SSE heartbeats are never shed.
// GET /v1/healthz reports the overload state: 200 {"status":"ok"}
// normally, 503 {"status":"overloaded","retry_after_ms":N} while shedding
// — the fmore-router probes it and fails fast on the replica's behalf.
// The admission_* metric family (sheds by scope, in-flight gauge, SSE
// occupancy/evictions, overload bit) appears in both /v1/metrics and
// /v1/metrics/prometheus.
//
// -pprof-addr (off by default) serves net/http/pprof on a separate
// listener for live profiling; while it is up, mutex contention is
// sampled (1 in 100) so /debug/pprof/mutex has data for lock hunts.
//
// The supported Go surface is the pkg/client SDK; the raw API quickstart
// below shows the wire shapes. Create a job, bid, read the outcome:
//
//	curl -s -X POST localhost:8780/v1/jobs -d '{
//	  "id": "demo", "k": 2, "seed": 7, "bid_window_ms": 1000,
//	  "keep_outcomes": 64,
//	  "rule": {"kind": "additive", "alpha": [0.5, 0.5]}
//	}'
//	curl -s -X POST localhost:8780/v1/jobs/demo/bids -d '{
//	  "node_id": 1, "qualities": [0.8, 0.6], "payment": 0.2
//	}'
//	curl -s 'localhost:8780/v1/jobs/demo/outcome?wait=1'
//	curl -s localhost:8780/v1/metrics
//
// Observability: GET /v1/metrics/prometheus serves the full metric
// catalog in Prometheus text exposition format (see the catalog in
// internal/exchange's package docs), and the analytics endpoints serve
// windowed + lifetime rollups fed by the exchange's event firehose:
//
//	curl -s localhost:8780/v1/metrics/prometheus
//	curl -s localhost:8780/v1/jobs/demo/stats
//	curl -s localhost:8780/v1/nodes/1/stats
//
// Bids are sealed until their round closes: the firehose taps closed rounds
// only, so the rollups count a bid (and move a node's last_bid_ms) when its
// round closes, and the bids of a round still open show nowhere in them.
// -analytics-window sets the rollup horizon (default 10m).
//
// Instead of polling, subscribe to the server-push round stream (SSE;
// round_open, round_closed with the outcome inline, job_closed). A slow
// reader is never dropped; it reads on from the job's retained rounds, and
// a reconnect with Last-Event-ID replays the rounds it missed:
//
//	curl -sN localhost:8780/v1/jobs/demo/events
//
// Errors are uniform {code, message, retry_after_ms?} JSON. POST /v1/jobs
// and bid submission honor an Idempotency-Key header (retries replay the
// original response); listings paginate with ?cursor= and ?limit=.
//
// A job created with an "equilibrium" block (bidder cost family, θ
// distribution, population size, quality box) additionally serves the
// solved Theorem 1 bid curve, so edge clients can interpolate their
// equilibrium (quality, payment) bid instead of running the solver:
//
//	curl -s -X POST localhost:8780/v1/jobs -d '{
//	  "id": "eq-demo", "k": 5, "seed": 7,
//	  "rule": {"kind": "cobb-douglas", "alpha": [1, 1], "scale": 25},
//	  "equilibrium": {
//	    "cost": {"kind": "linear", "beta": [0.5, 0.5]},
//	    "theta": {"kind": "uniform", "lo": 1, "hi": 2},
//	    "n": 40, "q_lo": [0, 0], "q_hi": [1, 1]
//	  }
//	}'
//	curl -s 'localhost:8780/v1/jobs/eq-demo/strategy?samples=9'
//
// Kill the process and start it again with the same -data-dir:
// GET /v1/jobs/demo/outcome?round=1 returns the same bytes as before.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on the DefaultServeMux served at -pprof-addr
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"fmore/internal/admission"
	"fmore/internal/analytics"
	"fmore/internal/exchange"
	"fmore/internal/fault"
	"fmore/internal/partition"
)

// admissionBurst is the burst window each admission rate limit absorbs at
// once: burst = rate x window, min 1.
const admissionBurst = 250 * time.Millisecond

func main() {
	addr := flag.String("addr", ":8780", "HTTP listen address (:0 picks a free port, logged on start)")
	dataDir := flag.String("data-dir", "",
		"directory for the write-ahead outcome log; replayed on start (empty = in-memory only)")
	requireReg := flag.Bool("require-registration", false,
		"reject bids from nodes that have not registered via POST /v1/nodes")
	snapshotBytes := flag.Int64("snapshot-bytes", 0,
		"floor of the WAL segment size that triggers snapshot + log rotation; the trigger is this or twice the last snapshot, whichever is larger (0 = default 8 MiB, negative disables)")
	onWALFailure := flag.String("on-wal-failure", "degrade",
		`storage failure policy after the WAL's first sticky error: "degrade" (default; keep serving reads, answer durable writes with 503 durability_lost, report degraded on /v1/healthz) or "failstop" (exit immediately)`)
	pprofAddr := flag.String("pprof-addr", "",
		"serve net/http/pprof on this address (empty = disabled); keep it loopback-only in production")
	analyticsWindow := flag.Duration("analytics-window", 0,
		"sliding window for the /stats rollup endpoints (0 = default 10m)")
	partitionID := flag.String("partition", "",
		"partition this replica owns (requires -partition-map; empty = unpartitioned)")
	partitionMap := flag.String("partition-map", "",
		`cluster partition map, "p0=http://host:port,p1=..." (same spec on every replica)`)
	rateGlobal := flag.Float64("rate-global", 0,
		"admission: exchange-wide bid-submit ceiling in bids/sec (0 = unlimited)")
	rateNode := flag.Float64("rate-node", 0,
		"admission: per-node bid-submit ceiling in bids/sec (0 = unlimited)")
	rateJob := flag.Float64("rate-job", 0,
		"admission: per-job bid-submit ceiling in bids/sec (0 = unlimited)")
	maxInflight := flag.Int64("max-inflight", 0,
		"admission: bid submits allowed inside the handler at once; beyond it requests shed with 429 before the body is read (0 = unlimited)")
	maxSubscribers := flag.Int("max-subscribers", 0,
		"admission: SSE event-stream cap; at the cap the oldest stream is evicted to admit a new subscriber (0 = unlimited)")
	flag.Parse()

	opts := exchange.Options{
		RequireRegistration: *requireReg,
		SnapshotBytes:       *snapshotBytes,
	}
	switch *onWALFailure {
	case "degrade":
		opts.OnWALFailure = exchange.WALDegrade
	case "failstop":
		opts.OnWALFailure = exchange.WALFailstop
	default:
		log.Fatalf(`-on-wal-failure must be "degrade" or "failstop", got %q`, *onWALFailure)
	}
	// Failpoint activation (FMORE_FAILPOINTS, see internal/fault): dormant
	// and free unless the environment arms a site — the chaos harness's
	// lever for injecting disk faults into a real binary.
	if err := fault.EnableFromEnv(); err != nil {
		log.Fatalf("%s: %v", fault.EnvVar, err)
	}
	if *rateGlobal > 0 || *rateNode > 0 || *rateJob > 0 || *maxInflight > 0 || *maxSubscribers > 0 {
		burst := func(rate float64) int {
			b := int(rate * admissionBurst.Seconds())
			if b < 1 {
				b = 1
			}
			return b
		}
		opts.Admission = admission.NewController(admission.Config{
			GlobalRate:  *rateGlobal,
			GlobalBurst: burst(*rateGlobal),
			NodeRate:    *rateNode,
			NodeBurst:   burst(*rateNode),
			JobRate:     *rateJob,
			JobBurst:    burst(*rateJob),
			MaxInflight: *maxInflight,
			MaxStreams:  *maxSubscribers,
		})
	}
	if (*partitionID == "") != (*partitionMap == "") {
		log.Fatal("-partition and -partition-map must be set together")
	}
	if *partitionID != "" {
		m, err := partition.Parse(*partitionMap)
		if err != nil {
			log.Fatalf("parsing -partition-map: %v", err)
		}
		opts.Partition = &partition.Assignment{Local: *partitionID, Map: partition.NewHandle(m)}
		if err := opts.Partition.Validate(); err != nil {
			log.Fatalf("-partition: %v", err)
		}
	}
	if *pprofAddr != "" {
		// The profiling surface stays off the service mux (and off by
		// default): exposing goroutine dumps and heap profiles next to the
		// public API would be an operational footgun.
		//
		// Mutex profiling is sampled only while the pprof listener is up:
		// /debug/pprof/mutex is where the next lock hunt starts, and the
		// 1-in-100 sampling costs a contended path a counter update at
		// worst — nothing when contention is rare, which is the hypothesis
		// the profile exists to check.
		runtime.SetMutexProfileFraction(100)
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	var (
		ex  *exchange.Exchange
		err error
	)
	if *dataDir != "" {
		ex, err = exchange.Open(*dataDir, opts)
		if err != nil {
			log.Fatalf("opening data dir: %v", err)
		}
		log.Printf("recovered %d jobs, %d nodes from %s",
			len(ex.JobIDs()), ex.Registry().Len(), *dataDir)
	} else {
		ex = exchange.New(opts)
	}
	// Listen explicitly (rather than ListenAndServe) so -addr :0 works and
	// the resolved address is in the log for scripts to scrape.
	listener, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	// Event streams are long-lived requests; deriving them from a
	// cancelable base context lets shutdown end them instead of waiting out
	// the drain timeout.
	srvCtx, srvCancel := context.WithCancel(context.Background())
	defer srvCancel()
	// The analytics aggregator rides the firehose (drop-on-slow, so it can
	// never hold up round closes) and adds the /stats endpoints in front of
	// the exchange handler.
	agg := analytics.New(analytics.Options{Window: *analyticsWindow})
	detach := ex.Firehose().Attach(agg)
	defer detach()
	server := &http.Server{
		Handler:           analytics.NewHandler(ex, agg, exchange.NewHandler(ex)),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return srvCtx },
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- server.Serve(listener) }()
	log.Printf("fmore-exchange listening on %s (require-registration=%v, data-dir=%q, partition=%q)",
		listener.Addr(), *requireReg, *dataDir, *partitionID)

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Print("shutting down")
	srvCancel() // release open event streams so the drain below is quick
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	// Surface any sticky log-writer error before Close flushes and closes
	// the file; a failing WAL device must not go unnoticed at shutdown.
	if err := ex.Sync(); err != nil {
		log.Printf("outcome log: %v", err)
	}
	if err := ex.Close(); err != nil {
		log.Printf("outcome log close: %v", err)
	}
	snap := ex.Metrics()
	log.Printf("served %d rounds, %d bids (%.1f bids/sec, p99 round latency %.2fms)",
		snap.RoundsTotal, snap.BidsAccepted, snap.BidsPerSec, snap.RoundLatencyP99Ms)
}
