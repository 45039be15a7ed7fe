package exchange

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"fmore/internal/auction"
	"fmore/internal/fault"
	"fmore/internal/wal"
)

// ackedOutcomes marshals every retained round outcome per job — the
// acknowledged state a crash must never lose. Keyed "job/round".
func ackedOutcomes(t *testing.T, ex *Exchange, ids []string, rounds int) map[string][]byte {
	t.Helper()
	acked := make(map[string][]byte)
	for _, id := range ids {
		job, ok := ex.Job(id)
		if !ok {
			t.Fatalf("job %s missing", id)
		}
		for r := 1; r <= rounds; r++ {
			ro, err := job.Outcome(r)
			if err != nil {
				t.Fatalf("job %s round %d: %v", id, r, err)
			}
			raw, err := json.Marshal(ro)
			if err != nil {
				t.Fatal(err)
			}
			acked[id+"/"+fmt.Sprint(r)] = raw
		}
	}
	return acked
}

// assertAcked re-marshals each recorded outcome from ex and compares
// byte-for-byte.
func assertAcked(t *testing.T, ex *Exchange, acked map[string][]byte) {
	t.Helper()
	for key, want := range acked {
		id, rs, _ := strings.Cut(key, "/")
		var r int
		fmt.Sscanf(rs, "%d", &r) //nolint:errcheck // test key format is fixed
		job, ok := ex.Job(id)
		if !ok {
			t.Errorf("job %s lost in recovery", id)
			continue
		}
		ro, err := job.Outcome(r)
		if err != nil {
			t.Errorf("job %s round %d lost in recovery: %v", id, r, err)
			continue
		}
		got, err := json.Marshal(ro)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("job %s round %d diverged across crash", id, r)
		}
	}
}

// degradeViaFsync arms a sticky fsync EIO, drives one more round so a dirty
// batch hits the failing fsync, and waits for the exchange to flip into
// degraded mode. The round's CloseRound may itself succeed (appends are
// fire-and-forget); Sync is the durability check that surfaces the error.
func degradeViaFsync(t *testing.T, ex *Exchange, jobID string, bidders int) {
	t.Helper()
	if err := fault.Enable("wal/fsync", fault.Config{Err: fault.ErrIO, Nth: 1, Sticky: true}); err != nil {
		t.Fatal(err)
	}
	job, ok := ex.Job(jobID)
	if !ok {
		t.Fatalf("job %s missing", jobID)
	}
	for _, b := range testBids(0, job.Round(), bidders) {
		if _, err := ex.SubmitBid(jobID, b); err != nil {
			t.Fatal(err)
		}
	}
	ex.CloseRound(jobID) //nolint:errcheck // may fail if degradation already landed
	if err := ex.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync after injected fsync EIO = %v, want EIO", err)
	}
	if !ex.Degraded() {
		t.Fatal("exchange not degraded after sticky fsync failure")
	}
}

// TestOpenAfterOversizedRecord is prefix durability across a record the log
// cannot hold. The recovery scan reads a length above the log's 64 MiB
// record bound as the end of the log, so a larger record, once written,
// hides every record behind it — rounds that were acknowledged and synced
// included. The log refuses it instead: Sync says so, the replica degrades
// and acknowledges nothing more, and a reopen serves everything that was
// acknowledged.
func TestOpenAfterOversizedRecord(t *testing.T) {
	const bidders = 6
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ids := compactWorkload(t, ex, 1, bidders, 1, true)
	if err := ex.Sync(); err != nil {
		t.Fatal(err)
	}
	rounds := 1

	ex.RegisterNode(7, strings.Repeat("x", 65<<20)) // one node record of 65 MiB
	if err := ex.Sync(); !errors.Is(err, wal.ErrRecordTooLarge) {
		t.Errorf("Sync after a 65 MiB record = %v, want ErrRecordTooLarge", err)
	}
	if !ex.Degraded() {
		t.Error("exchange not degraded after refusing a record")
	}
	// Whatever is acknowledged and synced behind that record must survive;
	// the degraded replica gets there by acknowledging nothing.
	var bidErr error
	for _, b := range testBids(0, 2, bidders) {
		if _, err := ex.SubmitBid(ids[0], b); err != nil {
			bidErr = err
		}
	}
	_, closeErr := ex.CloseRound(ids[0])
	var degraded *DegradedError
	if !errors.As(bidErr, &degraded) || !errors.As(closeErr, &degraded) {
		t.Errorf("behind the refused record: bid = %v, close = %v; want *DegradedError", bidErr, closeErr)
	}
	if closeErr == nil && ex.Sync() == nil {
		rounds = 2
	}
	acked := ackedOutcomes(t, ex, ids, rounds)
	ex.Close() //nolint:errcheck // reports the sticky error checked above

	ex2, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ex2.Close()
	if ex2.Degraded() {
		t.Error("reopened exchange is degraded")
	}
	assertAcked(t, ex2, acked)
}

// TestDegradedModeAfterFsyncFailure is the end-to-end contract of the
// degrade policy: after the WAL's first sticky error every durable write is
// refused with *DegradedError (503 durability_lost over HTTP), reads and
// metrics keep serving, healthz flips to degraded, the Prometheus
// exposition reports wal_failed 1, and Close surfaces the root cause.
func TestDegradedModeAfterFsyncFailure(t *testing.T) {
	t.Cleanup(fault.DisableAll)
	const jobs, bidders, rounds = 2, 6, 2
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ids := compactWorkload(t, ex, jobs, bidders, rounds, true)
	if err := ex.Sync(); err != nil {
		t.Fatal(err)
	}
	acked := ackedOutcomes(t, ex, ids, rounds)

	degradeViaFsync(t, ex, ids[0], bidders)
	if ex.DegradedSince() == 0 {
		t.Error("DegradedSince = 0 after failure")
	}

	// Every durable write path refuses with *DegradedError unwrapping to
	// the injected EIO.
	var dg *DegradedError
	if _, err := ex.SubmitBid(ids[0], testBids(0, 99, 1)[0]); !errors.As(err, &dg) || !errors.Is(err, syscall.EIO) {
		t.Errorf("degraded SubmitBid = %v, want *DegradedError wrapping EIO", err)
	}
	if _, err := ex.CloseRound(ids[0]); !errors.As(err, &dg) {
		t.Errorf("degraded CloseRound = %v, want *DegradedError", err)
	}
	if _, err := ex.CreateJob(JobSpec{
		ID:      "degraded-create",
		Auction: auction.Config{Rule: testRule(t, 0), K: 2},
	}); !errors.As(err, &dg) {
		t.Errorf("degraded CreateJob = %v, want *DegradedError", err)
	}
	if err := ex.RemoveJob(ids[1]); !errors.As(err, &dg) {
		t.Errorf("degraded RemoveJob = %v, want *DegradedError", err)
	}

	// Reads keep serving what memory holds: acked outcomes are intact.
	assertAcked(t, ex, acked)

	s := ex.Metrics()
	if !s.WalFailed || s.WalLastErrorUnix == 0 {
		t.Errorf("metrics: wal_failed=%v wal_last_error_unix=%d, want true/nonzero", s.WalFailed, s.WalLastErrorUnix)
	}

	srv := httptest.NewServer(NewHandler(ex))
	defer srv.Close()
	// healthz flips to degraded with a retry hint so the router steers.
	resp, body := getJSON(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Errorf("degraded healthz: status %d body %v, want 503 degraded", resp.StatusCode, body)
	}
	if v, _ := body["wal_failed_unix"].(float64); v == 0 {
		t.Errorf("degraded healthz wal_failed_unix = %v, want nonzero", body["wal_failed_unix"])
	}
	if v, _ := body["retry_after_ms"].(float64); v <= 0 {
		t.Errorf("degraded healthz retry_after_ms = %v, want positive", body["retry_after_ms"])
	}
	// Durable writes over HTTP: 503 durability_lost with a retry hint.
	resp, body = postJSON(t, srv.URL+"/v1/jobs/"+ids[0]+"/bids", map[string]any{
		"node_id": 3, "qualities": []float64{0.5, 0.5}, "payment": 0.1,
	})
	if resp.StatusCode != http.StatusServiceUnavailable || body["code"] != "durability_lost" {
		t.Errorf("degraded bid POST: status %d body %v, want 503 durability_lost", resp.StatusCode, body)
	}
	if v, _ := body["retry_after_ms"].(float64); v <= 0 {
		t.Errorf("durability_lost retry_after_ms = %v, want positive", body["retry_after_ms"])
	}
	// Reads over HTTP still 200.
	if resp, _ := getJSON(t, srv.URL+"/v1/jobs/"+ids[0]+"/outcomes"); resp.StatusCode != http.StatusOK {
		t.Errorf("degraded outcomes read: status %d, want 200", resp.StatusCode)
	}
	promResp, err := http.Get(srv.URL + "/v1/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom := readAll(t, promResp)
	if !strings.Contains(prom, "fmore_exchange_wal_failed 1") {
		t.Error("prometheus exposition missing fmore_exchange_wal_failed 1")
	}

	// Close surfaces the sticky WAL error instead of swallowing it.
	if err := ex.Close(); !errors.Is(err, syscall.EIO) {
		t.Errorf("Close after WAL failure = %v, want the sticky EIO", err)
	}
}

// TestDegradedNodeWritesRefused: a degraded replica refuses registrations,
// bans and Job.Close like every other durable write — 503 durability_lost
// over HTTP, *DegradedError embedded — and its state stays as it was: a
// ban or a close whose log record is dropped would be undone by the next
// restart.
func TestDegradedNodeWritesRefused(t *testing.T) {
	t.Cleanup(fault.DisableAll)
	const bidders = 6
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close() //nolint:errcheck // degraded on purpose
	ids := compactWorkload(t, ex, 1, bidders, 1, true)
	degradeViaFsync(t, ex, ids[0], bidders)

	srv := httptest.NewServer(NewHandler(ex))
	defer srv.Close()
	resp, body := postJSON(t, srv.URL+"/v1/nodes/1/blacklist", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || body["code"] != "durability_lost" {
		t.Errorf("degraded ban: status %d body %v, want 503 durability_lost", resp.StatusCode, body)
	}
	resp, body = postJSON(t, srv.URL+"/v1/nodes", map[string]any{"node_id": 77, "meta": "edge-77"})
	if resp.StatusCode != http.StatusServiceUnavailable || body["code"] != "durability_lost" {
		t.Errorf("degraded registration: status %d body %v, want 503 durability_lost", resp.StatusCode, body)
	}
	var dg *DegradedError
	if banned, err := ex.BlacklistNode(2); banned || !errors.As(err, &dg) {
		t.Errorf("degraded BlacklistNode = %v, %v; want false, *DegradedError", banned, err)
	}
	if info, err := ex.RegisterNode(78, ""); info != nil || !errors.As(err, &dg) {
		t.Errorf("degraded RegisterNode = %v, %v; want nil, *DegradedError", info, err)
	}
	for _, id := range []int{1, 2} {
		if info, ok := ex.Registry().Lookup(id); !ok || info.Blacklisted() {
			t.Errorf("node %d after the refused ban: registered %v, banned %v", id, ok, ok && info.Blacklisted())
		}
	}
	for _, id := range []int{77, 78} {
		if _, ok := ex.Registry().Lookup(id); ok {
			t.Errorf("node %d registered by a refused write", id)
		}
	}

	job, _ := ex.Job(ids[0])
	if err := job.Close(); !errors.As(err, &dg) || job.State() != "collecting" {
		t.Errorf("degraded Job.Close = %v, state %q; want *DegradedError, collecting", err, job.State())
	}
	ex.Close() //nolint:errcheck // the sticky error
	fault.DisableAll()
	re, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if job, ok := re.Job(ids[0]); !ok {
		t.Error("the refused close's job is gone after a restart")
	} else if got := job.State(); got != "collecting" {
		t.Errorf("after a restart the refused close's job reads %q, want collecting", got)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close() //nolint:errcheck // test teardown
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestCrashMatrixFsyncErrorThenKill: the device starts failing fsyncs, the
// replica degrades, then the process is killed. Recovery must serve every
// outcome that was durable before the failure byte-identically and keep
// working. (Frames written but never fsynced may also survive the
// page-cache clone — complete valid frames replaying is allowed; losing
// acknowledged ones is not.)
func TestCrashMatrixFsyncErrorThenKill(t *testing.T) {
	t.Cleanup(fault.DisableAll)
	const jobs, bidders, rounds = 2, 6, 2
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ids := compactWorkload(t, ex, jobs, bidders, rounds, true)
	if err := ex.Sync(); err != nil {
		t.Fatal(err)
	}
	acked := ackedOutcomes(t, ex, ids, rounds)

	degradeViaFsync(t, ex, ids[0], bidders)

	crashDir := cloneDataDir(t, dir) // kill -9
	fault.DisableAll()               // the restarted process has a healthy disk

	ex2, err := Open(crashDir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("reopen after fsync-error crash: %v", err)
	}
	defer ex2.Close()
	if ex2.Degraded() {
		t.Error("recovered replica still degraded")
	}
	assertAcked(t, ex2, acked)
	compactWorkload(t, ex2, jobs, bidders, 1, false) // keeps serving durably
}

// TestCrashMatrixTornWriteInPreallocatedTail: a frame write tears after a
// few bytes inside the preallocated (zero-filled) region, the error sticks,
// the process dies. Recovery must truncate the torn prefix — distinguishing
// it from clean preallocated zero-fill — and serve the durable prefix
// byte-identically at the HTTP surface.
func TestCrashMatrixTornWriteInPreallocatedTail(t *testing.T) {
	t.Cleanup(fault.DisableAll)
	const jobs, bidders, rounds = 2, 6, 2
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ids := compactWorkload(t, ex, jobs, bidders, rounds, true)
	if err := ex.Sync(); err != nil {
		t.Fatal(err)
	}
	// The tear must land inside a preallocated tail, not at EOF.
	logical := ex.Metrics().WalBytes
	if fi, err := os.Stat(filepath.Join(dir, wal.SegmentName)); err != nil || fi.Size() <= logical {
		t.Fatalf("tail not preallocated (err=%v)", err)
	}
	pages := make(map[string][]byte, jobs)
	for _, id := range ids {
		pages[id] = outcomesPageBytes(t, ex, id)
	}

	if err := fault.Enable("wal/write", fault.Config{Err: fault.ErrIO, Nth: 1, Torn: 7}); err != nil {
		t.Fatal(err)
	}
	job, _ := ex.Job(ids[0])
	for _, b := range testBids(0, job.Round(), bidders) {
		if _, err := ex.SubmitBid(ids[0], b); err != nil {
			t.Fatal(err)
		}
	}
	ex.CloseRound(ids[0]) //nolint:errcheck // its record is the one torn below
	if err := ex.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync after torn write = %v, want EIO", err)
	}
	if !ex.Degraded() {
		t.Fatal("exchange not degraded after torn write")
	}

	crashDir := cloneDataDir(t, dir) // kill -9: torn prefix + zero-fill and all
	fault.DisableAll()

	ex2, err := Open(crashDir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("reopen over torn preallocated tail: %v", err)
	}
	defer ex2.Close()
	// The torn round was never durable; the durable prefix must be exact.
	for _, id := range ids {
		if got := outcomesPageBytes(t, ex2, id); string(got) != string(pages[id]) {
			t.Errorf("job %s: outcomes diverged after torn-write crash", id)
		}
	}
	compactWorkload(t, ex2, jobs, bidders, 1, false)
}

// TestCrashMatrixENOSPCMidCompaction drives disk-full through both
// compaction failpoints: a preallocation ENOSPC aborts the compaction
// cleanly (trigger re-armed, replica healthy, no orphan segment), while an
// error sealing the retiring segment during rotation is a real WAL failure
// — the replica degrades, and a crash there recovers byte-identically.
func TestCrashMatrixENOSPCMidCompaction(t *testing.T) {
	const jobs, bidders, rounds = 2, 6, 2

	t.Run("prealloc enospc aborts cleanly", func(t *testing.T) {
		t.Cleanup(fault.DisableAll)
		dir := t.TempDir()
		ex, err := Open(dir, Options{SnapshotBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		ids := compactWorkload(t, ex, jobs, bidders, rounds, true)
		if err := ex.Sync(); err != nil {
			t.Fatal(err)
		}
		pages := make(map[string][]byte, jobs)
		for _, id := range ids {
			pages[id] = outcomesPageBytes(t, ex, id)
		}

		if err := fault.Enable("wal/prealloc", fault.Config{Err: fault.ErrNoSpace, Nth: 1}); err != nil {
			t.Fatal(err)
		}
		if err := ex.Compact(); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("Compact under ENOSPC = %v, want ENOSPC", err)
		}
		if ex.Degraded() {
			t.Fatal("clean compaction abort degraded the replica")
		}
		if segs := segmentFiles(t, dir); len(segs) != 1 {
			t.Errorf("aborted compaction left orphan segment: %v", segs)
		}

		// A crash in this state recovers byte-identically…
		crashDir := cloneDataDir(t, dir)
		ex2, err := Open(crashDir, Options{SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("reopen after aborted compaction: %v", err)
		}
		defer ex2.Close()
		for _, id := range ids {
			if got := outcomesPageBytes(t, ex2, id); string(got) != string(pages[id]) {
				t.Errorf("job %s: outcomes diverged after aborted compaction", id)
			}
		}
		// …and the live replica retries successfully once space is back
		// (the Nth:1 trigger has been consumed).
		if err := ex.Compact(); err != nil {
			t.Fatalf("retried Compact: %v", err)
		}
		for _, id := range ids {
			if got := outcomesPageBytes(t, ex, id); string(got) != string(pages[id]) {
				t.Errorf("job %s: outcomes changed across successful compaction", id)
			}
		}
	})

	t.Run("rotation seal error degrades then recovers", func(t *testing.T) {
		t.Cleanup(fault.DisableAll)
		dir := t.TempDir()
		ex, err := Open(dir, Options{SnapshotBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		ids := compactWorkload(t, ex, jobs, bidders, rounds, true)
		if err := ex.Sync(); err != nil {
			t.Fatal(err)
		}
		acked := ackedOutcomes(t, ex, ids, rounds)

		if err := fault.Enable("wal/rotate", fault.Config{Err: fault.ErrNoSpace, Nth: 1}); err != nil {
			t.Fatal(err)
		}
		// The seal error surfaces through the writer, not Compact's own
		// return (the snapshot itself may still commit — it only covers
		// records that were already durable before the rotation barrier).
		ex.Compact() //nolint:errcheck // error path under test is the writer's
		if !ex.Degraded() {
			t.Fatal("exchange not degraded after rotation seal failure")
		}

		crashDir := cloneDataDir(t, dir)
		fault.DisableAll()
		ex2, err := Open(crashDir, Options{SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("reopen after mid-rotation failure crash: %v", err)
		}
		defer ex2.Close()
		assertAcked(t, ex2, acked)
		compactWorkload(t, ex2, jobs, bidders, 1, false)
	})
}

// TestFailedCompactionIsCountedAndRetried: a compaction that fails after
// its cut (here: the snapshot write) returns the error, counts once, keeps
// every segment — a rotation without a snapshot is harmless — and the next
// attempt compacts all of it.
func TestFailedCompactionIsCountedAndRetried(t *testing.T) {
	t.Cleanup(fault.DisableAll)
	const jobs, bidders, rounds = 2, 8, 3
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ids := compactWorkload(t, ex, jobs, bidders, rounds, true)
	pages := allPages(t, ex, ids)

	if err := fault.Enable("wal/snapshot", fault.Config{Err: fault.ErrIO, Nth: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Compact(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Compact with a failing snapshot write = %v, want EIO", err)
	}
	if m := ex.Metrics(); m.WalSnapshotErrors != 1 || m.WalSnapshots != 0 || m.WalSnapshotBytes != 0 || m.WalSegmentCount != 2 {
		t.Errorf("after the failure: errors %d, snapshots %d, snapshot bytes %d, segments %d",
			m.WalSnapshotErrors, m.WalSnapshots, m.WalSnapshotBytes, m.WalSegmentCount)
	}
	if ex.Degraded() {
		t.Error("a failed snapshot degraded the replica")
	}
	if segs := segmentFiles(t, dir); len(segs) != 2 {
		t.Errorf("segments after the failure = %v; want the covered one kept beside its successor", segs)
	}
	if err := ex.Sync(); err != nil {
		t.Fatal(err)
	}
	ex2, err := Open(cloneDataDir(t, dir), Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("reopen after the failure: %v", err)
	}
	assertPages(t, ex2, pages, "reopened after the failure")
	ex2.Close()

	if err := ex.Compact(); err != nil {
		t.Fatalf("retried Compact: %v", err)
	}
	if m := ex.Metrics(); m.WalSnapshots != 1 || m.WalSegmentCount != 1 {
		t.Errorf("after the retry: snapshots %d, segments %d", m.WalSnapshots, m.WalSegmentCount)
	}
	if segs := segmentFiles(t, dir); len(segs) != 1 {
		t.Errorf("segments after the retry = %v, want only the fresh tail", segs)
	}
	assertPages(t, ex, pages, "after the retry")
}

// TestFailedCompactionRearmsTheSizeTrigger: the size trigger fires once per
// segment, so a background compaction that fails before its cut must re-arm
// it — or one transient ENOSPC would end automatic compaction for as long
// as the segment lives. With the disk full every attempt fails and is
// counted; the attempts keep coming; the first one after space is back
// compacts.
func TestFailedCompactionRearmsTheSizeTrigger(t *testing.T) {
	t.Cleanup(fault.DisableAll)
	const jobs, bidders = 2, 8
	ex, err := Open(t.TempDir(), Options{SnapshotBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if err := fault.Enable("wal/prealloc", fault.Config{Err: fault.ErrNoSpace, Nth: 1, Sticky: true}); err != nil {
		t.Fatal(err)
	}
	compactWorkload(t, ex, jobs, bidders, 3, true)
	drive := func(what string, reached func(Snapshot) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !reached(ex.Metrics()); {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %+v", what, ex.Metrics())
			}
			compactWorkload(t, ex, jobs, bidders, 1, false)
		}
	}
	drive("the size trigger never retried a failed compaction", func(m Snapshot) bool { return m.WalSnapshotErrors >= 2 })
	if m := ex.Metrics(); m.WalSnapshots != 0 || m.WalSegmentCount != 1 || ex.Degraded() {
		t.Errorf("while the disk was full: snapshots %d, segments %d, degraded %v", m.WalSnapshots, m.WalSegmentCount, ex.Degraded())
	}
	fault.DisableAll()
	drive("no compaction after space came back", func(m Snapshot) bool { return m.WalSnapshots >= 1 })
}

// TestWALFailstopPolicy: with OnWALFailure set to WALFailstop the first
// sticky WAL error terminates the process (exit code 1) instead of
// degrading — pinned through the swappable exit hook.
func TestWALFailstopPolicy(t *testing.T) {
	t.Cleanup(fault.DisableAll)
	exited := make(chan int, 1)
	old := failstopExit
	failstopExit = func(code int) {
		select {
		case exited <- code:
		default:
		}
	}
	defer func() { failstopExit = old }()

	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1, OnWALFailure: WALFailstop})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ids := compactWorkload(t, ex, 1, 4, 1, true)
	if err := ex.Sync(); err != nil {
		t.Fatal(err)
	}

	degradeViaFsync(t, ex, ids[0], 4)
	select {
	case code := <-exited:
		if code != 1 {
			t.Fatalf("failstop exit code = %d, want 1", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("failstop policy never invoked the exit hook")
	}
}
