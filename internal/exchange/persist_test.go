package exchange

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fmore/internal/auction"
	"fmore/internal/promtext"
	"fmore/internal/wal"
)

// nodeState is the registry view the recovery tests compare.
type nodeState struct {
	meta        string
	bids        int64
	blacklisted bool
}

func registrySnapshot(ex *Exchange, nodes int) []nodeState {
	out := make([]nodeState, nodes)
	for id := 0; id < nodes; id++ {
		if info, ok := ex.Registry().Lookup(id); ok {
			out[id] = nodeState{meta: info.Meta(), bids: info.Bids(), blacklisted: info.Blacklisted()}
		}
	}
	return out
}

// TestCrashRecoveryIdenticalHistoryAndContinuation is the acceptance test
// of the outcome log: kill an exchange after 3 rounds of an 8-job workload
// (second-price and ψ-FMore jobs included, so the per-round rng draw count
// varies), reopen the data dir, and require (a) identical retained history,
// (b) identical registry and blacklist state, (c) contiguous round
// numbering, and (d) bit-for-bit identical outcomes for the rounds run
// after recovery — the reconstructed rng must sit exactly where the
// uncrashed process's rng sits.
func TestCrashRecoveryIdenticalHistoryAndContinuation(t *testing.T) {
	const (
		jobs      = 8
		bidders   = 32
		preRounds = 3 // rounds before the crash
		postRound = 5 // rounds 4..5 run on both sides after the fork
	)
	dir := t.TempDir()
	ex, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	jobIDs := make([]string, jobs)
	for j := 0; j < jobs; j++ {
		spec := JobSpec{
			ID:      fmt.Sprintf("fl-task-%d", j),
			Auction: auction.Config{Rule: testRule(t, j), K: 2 + j%3},
			Seed:    int64(1000 + j),
		}
		if j%2 == 1 {
			spec.Auction.Payment = auction.SecondPrice
		}
		if j == 7 {
			spec.Auction.Psi = 0.7 // variable admission draws per round
		}
		job, err := ex.CreateJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobIDs[j] = job.ID()
	}
	ex.RegisterNode(5, "edge-05")

	runRound := func(target *Exchange, round, nBidders int) map[string]RoundOutcome {
		t.Helper()
		outs := make(map[string]RoundOutcome, jobs)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for j := 0; j < jobs; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				var bw sync.WaitGroup
				for _, b := range testBids(j, round, nBidders) {
					bw.Add(1)
					go func(b auction.Bid) {
						defer bw.Done()
						if _, err := target.SubmitBid(jobIDs[j], b); err != nil {
							t.Errorf("job %d round %d: submit: %v", j, round, err)
						}
					}(b)
				}
				bw.Wait()
				ro, err := target.CloseRound(jobIDs[j])
				if err != nil {
					t.Errorf("job %d round %d: close: %v", j, round, err)
					return
				}
				mu.Lock()
				outs[jobIDs[j]] = ro
				mu.Unlock()
			}(j)
		}
		wg.Wait()
		return outs
	}

	history := make([]map[string]RoundOutcome, 0, preRounds)
	for round := 1; round <= preRounds; round++ {
		history = append(history, runRound(ex, round, bidders))
	}
	if ok, err := ex.BlacklistNode(31); !ok || err != nil {
		t.Fatalf("blacklist of node 31: %v, %v", ok, err)
	}
	if err := ex.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}
	crashReg := registrySnapshot(ex, bidders)
	crashDir := cloneDataDir(t, dir) // <-- the kill -9 point

	// The uncrashed exchange keeps going (node 31 is banned, so rounds 4..5
	// run with 31 bidders).
	reference := make([]map[string]RoundOutcome, 0, postRound-preRounds)
	for round := preRounds + 1; round <= postRound; round++ {
		reference = append(reference, runRound(ex, round, bidders-1))
	}
	if t.Failed() {
		t.FailNow()
	}

	ex2, err := Open(crashDir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ex2.Close()

	// (a) identical retained history.
	if got, want := ex2.JobIDs(), ex.JobIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("job list after reopen = %v, want %v", got, want)
	}
	for round := 1; round <= preRounds; round++ {
		for _, id := range jobIDs {
			job, ok := ex2.Job(id)
			if !ok {
				t.Fatalf("job %s missing after reopen", id)
			}
			got, err := job.Outcome(round)
			if err != nil {
				t.Fatalf("job %s round %d after reopen: %v", id, round, err)
			}
			if want := history[round-1][id]; !reflect.DeepEqual(got, want) {
				t.Errorf("job %s round %d: replayed outcome diverges from live outcome", id, round)
			}
		}
	}

	// (b) identical registry and blacklist state as of the crash.
	if got := registrySnapshot(ex2, bidders); !reflect.DeepEqual(got, crashReg) {
		t.Errorf("registry after reopen = %+v,\nwant %+v", got, crashReg)
	}
	if _, err := ex2.SubmitBid(jobIDs[0], auction.Bid{NodeID: 31, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); !errors.Is(err, ErrBlacklisted) {
		t.Errorf("bid from banned node after reopen: err = %v, want ErrBlacklisted", err)
	}

	// (c) contiguous round numbering.
	for _, id := range jobIDs {
		job, _ := ex2.Job(id)
		if r := job.Round(); r != preRounds+1 {
			t.Errorf("job %s collecting round = %d after reopen, want %d", id, r, preRounds+1)
		}
	}

	// (d) post-recovery rounds match the uncrashed process bit-for-bit.
	for round := preRounds + 1; round <= postRound; round++ {
		outs := runRound(ex2, round, bidders-1)
		for _, id := range jobIDs {
			got, want := outs[id], reference[round-preRounds-1][id]
			if got.Round != want.Round || got.NumBids != want.NumBids {
				t.Errorf("job %s round %d: labeled (%d, %d bids), want (%d, %d)",
					id, round, got.Round, got.NumBids, want.Round, want.NumBids)
			}
			if !reflect.DeepEqual(got.Outcome, want.Outcome) {
				t.Errorf("job %s round %d: post-recovery outcome diverges from uncrashed run", id, round)
			}
		}
	}
}

// TestHTTPOutcomesByteIdenticalAfterRestart drives the service through its
// JSON front end, restarts it from a crash copy, and requires the retained
// outcome responses to be byte-identical — the externally visible form of
// the recovery guarantee.
func TestHTTPOutcomesByteIdenticalAfterRestart(t *testing.T) {
	const rounds = 3
	dir := t.TempDir()
	ex, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	srv := httptest.NewServer(NewHandler(ex))
	defer srv.Close()

	resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"id":            "wire",
		"rule":          map[string]any{"kind": "additive", "alpha": []float64{0.55, 0.45}},
		"k":             3,
		"seed":          41,
		"payment":       "second-price",
		"keep_outcomes": 16,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	for round := 1; round <= rounds; round++ {
		for _, b := range testBids(3, round, 12) {
			if resp, body := postJSON(t, srv.URL+"/v1/jobs/wire/bids", map[string]any{
				"node_id": b.NodeID, "qualities": b.Qualities, "payment": b.Payment,
			}); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("round %d bid: %d %v", round, resp.StatusCode, body)
			}
		}
		if resp, body := postJSON(t, srv.URL+"/v1/jobs/wire/close", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d close: %d %v", round, resp.StatusCode, body)
		}
	}

	rawOutcome := func(base string, round int) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/wire/outcome?round=%d", base, round))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck // test teardown
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d", round, resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	before := make([][]byte, rounds)
	for round := 1; round <= rounds; round++ {
		before[round-1] = rawOutcome(srv.URL, round)
	}

	if err := ex.Sync(); err != nil {
		t.Fatal(err)
	}
	ex2, err := Open(cloneDataDir(t, dir), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ex2.Close()
	srv2 := httptest.NewServer(NewHandler(ex2))
	defer srv2.Close()

	for round := 1; round <= rounds; round++ {
		if got := rawOutcome(srv2.URL, round); string(got) != string(before[round-1]) {
			t.Errorf("round %d response diverged after restart:\n got: %s\nwant: %s", round, got, before[round-1])
		}
	}
	// The job view (spec fields included) survives too.
	_, view := getJSON(t, srv2.URL+"/v1/jobs/wire")
	if view["keep_outcomes"].(float64) != 16 || view["round"].(float64) != rounds+1 {
		t.Errorf("job view after restart: %v", view)
	}
}

// TestRecoveryResumesTimerJobs: a timer-mode job's bid window goroutine
// restarts after reopen and keeps the round numbering going.
func TestRecoveryResumesTimerJobs(t *testing.T) {
	dir := t.TempDir()
	ex, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := ex.CreateJob(JobSpec{
		ID:        "ticking",
		Auction:   auction.Config{Rule: testRule(t, 0), K: 2},
		Seed:      3,
		BidWindow: 15 * time.Millisecond,
		MinBids:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range testBids(0, 1, 4) {
		if _, err := ex.SubmitBid(job.ID(), b); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := job.WaitOutcome(ctx, 1); err != nil {
		t.Fatalf("round 1 never closed: %v", err)
	}
	ex.Close()

	ex2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ex2.Close()
	job2, ok := ex2.Job("ticking")
	if !ok {
		t.Fatal("timer job missing after reopen")
	}
	for _, b := range testBids(0, 2, 4) {
		if _, err := ex2.SubmitBid(job2.ID(), b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := job2.WaitOutcome(ctx, 2); err != nil {
		t.Fatalf("window did not resume after reopen: %v", err)
	}
}

// cloneDataDir simulates a kill -9 against the full data dir: every file
// (segments, snapshot, lock file) is copied byte-for-byte into a fresh dir
// while the source exchange is still running.
func cloneDataDir(t *testing.T, srcDir string) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		src, err := os.Open(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := os.Create(filepath.Join(dir, e.Name()))
		if err == nil {
			_, err = io.Copy(dst, src)
		}
		src.Close()
		if err != nil || dst.Close() != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// compactWorkload drives a deterministic mixed workload (second-price and
// ψ jobs included) for the compaction tests and returns the job IDs.
func compactWorkload(t *testing.T, ex *Exchange, jobs, bidders, rounds int, create bool) []string {
	t.Helper()
	ids := make([]string, jobs)
	for j := 0; j < jobs; j++ {
		ids[j] = fmt.Sprintf("snap-job-%d", j)
		if !create {
			continue
		}
		spec := JobSpec{
			ID:           ids[j],
			Auction:      auction.Config{Rule: testRule(t, j), K: 2 + j%3},
			Seed:         int64(77 + j),
			KeepOutcomes: 4, // small window: eviction + snapshot interplay covered
		}
		if j%2 == 1 {
			spec.Auction.Payment = auction.SecondPrice
		}
		if j == jobs-1 {
			spec.Auction.Psi = 0.7
		}
		if _, err := ex.CreateJob(spec); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= rounds; round++ {
		for j := 0; j < jobs; j++ {
			job, ok := ex.Job(ids[j])
			if !ok {
				t.Fatalf("job %s missing", ids[j])
			}
			base := job.Round()
			for _, b := range testBids(j, base, bidders) {
				if _, err := ex.SubmitBid(ids[j], b); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ex.CloseRound(ids[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ids
}

// outcomesPageBytes fetches the raw GET /v1/jobs/{id}/outcomes page — the
// externally visible bytes the recovery guarantee is stated in.
func outcomesPageBytes(t *testing.T, ex *Exchange, jobID string) []byte {
	t.Helper()
	srv := httptest.NewServer(NewHandler(ex))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + jobID + "/outcomes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test teardown
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outcomes page for %s: status %d", jobID, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCompactionSnapshotReplayIdentical is the acceptance test of WAL
// compaction: run a mixed workload, compact (snapshot + rotation + old
// segment deletion), run more rounds on the tail, kill, reopen — the
// reopened exchange must serve byte-identical outcome pages and continue
// rounds bit-for-bit with the uncrashed process (rng fast-forward across
// the snapshot included).
func TestCompactionSnapshotReplayIdentical(t *testing.T) {
	const (
		jobs, bidders = 4, 16
		preRounds     = 6 // > KeepOutcomes: eviction happened before the snapshot
		tailRounds    = 2 // rounds after compaction, replayed from the tail segment
		postRounds    = 2 // rounds run on both sides after the crash fork
	)
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ex.RegisterNode(3, "edge-03")
	ids := compactWorkload(t, ex, jobs, bidders, preRounds, true)
	if ok, err := ex.BlacklistNode(bidders - 1); !ok || err != nil {
		t.Fatalf("blacklist: %v, %v", ok, err)
	}

	if err := ex.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, wal.SegmentName)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("segment 1 survived compaction (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, wal.SnapshotName)); err != nil {
		t.Errorf("snapshot missing after compaction: %v", err)
	}

	compactWorkload(t, ex, jobs, bidders-1, tailRounds, false) // banned node sits out
	if err := ex.Sync(); err != nil {
		t.Fatal(err)
	}
	crashReg := registrySnapshot(ex, bidders)
	pages := make(map[string][]byte, jobs)
	for _, id := range ids {
		pages[id] = outcomesPageBytes(t, ex, id)
	}
	crashDir := cloneDataDir(t, dir) // <-- kill -9

	// The uncrashed exchange keeps going.
	compactWorkload(t, ex, jobs, bidders-1, postRounds, false)
	reference := make(map[string][]RoundOutcome, jobs)
	for _, id := range ids {
		job, _ := ex.Job(id)
		ros, _ := job.OutcomesAfter(0, 0)
		reference[id] = ros
	}

	ex2, err := Open(crashDir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer ex2.Close()
	for _, id := range ids {
		if got := outcomesPageBytes(t, ex2, id); string(got) != string(pages[id]) {
			t.Errorf("job %s: outcomes page diverged after snapshot replay:\n got: %s\nwant: %s", id, got, pages[id])
		}
	}
	if got := registrySnapshot(ex2, bidders); !reflect.DeepEqual(got, crashReg) {
		t.Errorf("registry after snapshot replay = %+v,\nwant %+v", got, crashReg)
	}
	compactWorkload(t, ex2, jobs, bidders-1, postRounds, false)
	for _, id := range ids {
		job, _ := ex2.Job(id)
		got, _ := job.OutcomesAfter(0, 0)
		assertSameRounds(t, id, got, reference[id])
	}
}

// TestCompactionCrashMatrix kills the process at every dangerous point of
// the compaction protocol — after rotation (snapshot not yet written),
// mid-snapshot-write (torn temp file), after the snapshot commit (old
// segments not yet deleted), and mid-deletion — and requires every reopened
// copy to serve the identical outcome pages.
func TestCompactionCrashMatrix(t *testing.T) {
	const jobs, bidders, rounds = 3, 12, 5
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

	crashDirs := map[string]string{}
	testHookAfterRotate = func() {
		d := cloneDataDir(t, dir)
		// Also model a crash mid-snapshot-write: rotation done, temp file
		// torn on disk.
		torn := cloneDataDir(t, dir)
		if err := os.WriteFile(filepath.Join(torn, wal.SnapshotName+".tmp"), []byte{0x10, 0, 0}, 0o644); err != nil {
			t.Error(err)
		}
		crashDirs["after-rotate"] = d
		crashDirs["torn-snapshot-tmp"] = torn
	}
	testHookAfterSnapshot = func() {
		crashDirs["after-snapshot"] = cloneDataDir(t, dir)
	}
	defer func() {
		testHookAfterRotate = nil
		testHookAfterSnapshot = nil
	}()

	pages := make(map[string][]byte, jobs)
	for _, id := range ids {
		pages[id] = outcomesPageBytes(t, ex, id)
	}
	if err := ex.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if len(crashDirs) != 3 {
		t.Fatalf("crash hooks fired %d times, want 3", len(crashDirs))
	}
	// Mid-deletion: the after-snapshot state minus one (but not all) old
	// segments. With a single old segment the closest state is "deletion
	// done", which the post-compaction dir itself covers below.
	crashDirs["after-deletion"] = cloneDataDir(t, dir)

	for name, crashDir := range crashDirs {
		t.Run(name, func(t *testing.T) {
			ex2, err := Open(crashDir, Options{SnapshotBytes: -1})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer ex2.Close()
			for _, id := range ids {
				if got := outcomesPageBytes(t, ex2, id); string(got) != string(pages[id]) {
					t.Errorf("job %s: outcomes diverged after %s crash", id, name)
				}
			}
			// The copy must keep working: one more round per job.
			compactWorkload(t, ex2, jobs, bidders, 1, false)
		})
	}

	// One more matrix point: kill -9 after records landed inside the
	// rotated segment's preallocated region. The after-rotate entry covers
	// a successor that is pure reservation; this one has a logical record
	// prefix followed by zero-fill, which replay must split at exactly the
	// last record — truncating the reservation, never mistaking it for a
	// torn write.
	compactWorkload(t, ex, jobs, bidders, 1, false)
	if err := ex.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		pages[id] = outcomesPageBytes(t, ex, id)
	}
	t.Run("preallocated-tail-partial", func(t *testing.T) {
		crashDir := cloneDataDir(t, dir)
		ex2, err := Open(crashDir, Options{SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer ex2.Close()
		for _, id := range ids {
			if got := outcomesPageBytes(t, ex2, id); string(got) != string(pages[id]) {
				t.Errorf("job %s: outcomes diverged after preallocated-tail crash", id)
			}
		}
		compactWorkload(t, ex2, jobs, bidders, 1, false)
	})
}

// churnShaped is the durable shape of a churning aggregator at test scale:
// several jobs whose KeepOutcomes windows are full, compacted once, so the
// snapshot in the returned (closed) dir holds every retained round. Opened
// with churnSegment as SnapshotBytes, the snapshot is several times larger
// than the trigger's floor.
const churnJobs, churnBidders, churnSegment = 6, 16, 2 << 10

func churnShaped(t *testing.T) (dir string, ids []string, snapBytes int64) {
	t.Helper()
	dir = t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ids = compactWorkload(t, ex, churnJobs, churnBidders, 6, true) // 6 rounds > KeepOutcomes 4
	if err := ex.Compact(); err != nil {
		t.Fatal(err)
	}
	snapBytes = ex.Metrics().WalSnapshotBytes
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if snapBytes < 4*churnSegment {
		t.Fatalf("a %d-byte snapshot is not several times the %d-byte floor", snapBytes, churnSegment)
	}
	return dir, ids, snapBytes
}

// churnStep closes one round of every churnShaped job and lets the log
// catch up: two Syncs return only once the size trigger has judged the
// commit holding the round, and taking compactMu waits out a compaction
// that has begun. So a compaction cuts at most about one step past its
// trigger, where an unpaced loop would run far past it while the snapshot
// is written.
func churnStep(t *testing.T, ex *Exchange) {
	t.Helper()
	compactWorkload(t, ex, churnJobs, churnBidders, 1, false)
	for range 2 {
		if err := ex.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	ex.compactMu.Lock()
	ex.compactMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
}

// retiredBytes sums the sizes of dir's segments below the highest, the
// active one: what a compaction retires, read between its snapshot commit
// and the prune. Segment names are internal/wal's ("On disk").
func retiredBytes(dir string) (int64, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return 0, err
	}
	var total, active, activeSize int64
	for _, seg := range segs {
		seq := int64(1)
		if filepath.Base(seg) != wal.SegmentName {
			if _, err := fmt.Sscanf(filepath.Base(seg), "exchange-%d.wal", &seq); err != nil {
				return 0, fmt.Errorf("segment name %s: %w", seg, err)
			}
		}
		st, err := os.Stat(seg)
		if err != nil {
			return 0, err
		}
		total += st.Size()
		if seq > active {
			active, activeSize = seq, st.Size()
		}
	}
	return total - activeSize, nil
}

// TestCompactionWriteAmplification: the size trigger scales with the
// snapshot, so retiring log costs at most half a snapshot byte per log
// byte — write amplification (log + snapshot bytes) ÷ log bytes at most
// 1.5 — however many times the snapshot outgrows SnapshotBytes. Measured
// over the automatic compactions of a churn-shaped exchange, from the
// files each one leaves just after its snapshot commits: the snapshot, and
// the segments below the new active one, which it retires. (With the
// trigger at SnapshotBytes alone this reads 4.93: each ~20 KB snapshot
// retired ~5 KB of log.)
func TestCompactionWriteAmplification(t *testing.T) {
	dir, _, _ := churnShaped(t)
	var mu sync.Mutex
	var compactions, snapWritten, logRetired int64
	testHookAfterSnapshot = func() { // on the compaction goroutine
		st, err := os.Stat(filepath.Join(dir, wal.SnapshotName))
		if err != nil {
			t.Error(err)
			return
		}
		retired, err := retiredBytes(dir)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		compactions++
		snapWritten += st.Size()
		logRetired += retired
	}
	defer func() { testHookAfterSnapshot = nil }()
	done := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return compactions
	}

	ex, err := Open(dir, Options{SnapshotBytes: churnSegment})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	deadline := time.Now().Add(20 * time.Second)
	for done() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("%d automatic compactions in 20 s, want 5", done())
		}
		churnStep(t, ex)
	}
	if n := ex.Metrics().WalSnapshotErrors; n != 0 {
		t.Fatalf("%d compaction errors", n)
	}
	if err := ex.Close(); err != nil { // waits out a compaction in flight
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	amp := float64(logRetired+snapWritten) / float64(logRetired)
	t.Logf("%d compactions: %d log bytes retired, %d snapshot bytes written, amplification %.3f",
		compactions, logRetired, snapWritten, amp)
	if amp > 1.5 {
		t.Errorf("write amplification %.3f over %d compactions, want at most 1.5", amp, compactions)
	}
}

// TestCompactionCrashBelowTheScaledTrigger is a row of the crash matrix
// the scaled trigger opens: a kill -9 while the active segment holds more
// than SnapshotBytes but less than twice the snapshot, so the segment is
// live, uncompacted and larger than the floor alone would ever let it
// grow. Recovery replays all of it behind the snapshot, and every job's
// outcome pages come back byte-identical.
func TestCompactionCrashBelowTheScaledTrigger(t *testing.T) {
	dir, ids, snapBytes := churnShaped(t)
	opts := Options{SnapshotBytes: churnSegment}
	ex, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	for m := ex.Metrics(); m.WalBytes < snapBytes; m = ex.Metrics() { // midway between the floor and 2× the snapshot
		if m.WalSnapshots != 0 {
			t.Fatalf("compacted on the way, %d log bytes behind a %d-byte snapshot", m.WalBytes, snapBytes)
		}
		churnStep(t, ex)
	}
	m := ex.Metrics()
	if m.WalSnapshots != 0 || m.WalBytes <= churnSegment || m.WalBytes >= 2*snapBytes {
		t.Fatalf("%d compactions, %d log bytes: not between the %d-byte floor and twice the %d-byte snapshot",
			m.WalSnapshots, m.WalBytes, churnSegment, snapBytes)
	}
	pages := make(map[string][]byte, len(ids))
	for _, id := range ids {
		pages[id] = outcomesPageBytes(t, ex, id)
	}
	crashDir := cloneDataDir(t, dir) // <-- kill -9

	ex2, err := Open(crashDir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ex2.Close()
	if got := ex2.Metrics().WalBytes; got != m.WalBytes {
		t.Errorf("recovery kept %d log bytes, want all %d", got, m.WalBytes)
	}
	for _, id := range ids {
		if got := outcomesPageBytes(t, ex2, id); string(got) != string(pages[id]) {
			t.Errorf("job %s: outcomes diverged after a crash below the scaled trigger", id)
		}
	}
	compactWorkload(t, ex2, churnJobs, churnBidders, 1, false)
}

// TestRemoveJobRacingCloseReplays: a round close in flight when RemoveJob
// starts must land its round record before the removal record (the closeMu
// barrier), or replay would meet an outcome for a job the log already
// deleted. Racing the two repeatedly and replaying the result proves the
// ordering holds on disk, not just in memory.
func TestRemoveJobRacingCloseReplays(t *testing.T) {
	const iters = 32
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < iters; k++ {
		id := fmt.Sprintf("race-%d", k)
		if _, err := ex.CreateJob(JobSpec{
			ID:      id,
			Auction: auction.Config{Rule: testRule(t, k), K: 2},
			Seed:    int64(k),
		}); err != nil {
			t.Fatal(err)
		}
		for _, b := range testBids(k, 1, 8) {
			if _, err := ex.SubmitBid(id, b); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			// May succeed (record precedes removal) or lose the race to
			// j.close and fail — both are valid histories; replay judges.
			ex.CloseRound(id) //nolint:errcheck
		}()
		if err := ex.RemoveJob(id); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	ex.Close()

	ex2, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("replay after close/remove races: %v", err)
	}
	defer ex2.Close()
	if ids := ex2.JobIDs(); len(ids) != 0 {
		t.Errorf("replay revived %d removed jobs: %v", len(ids), ids)
	}
}

// TestCompactionPendingBidCounters: a bid buffered (but not yet closed) at
// the snapshot cut must not be double-counted — its round record lands in
// the tail, which replay re-counts, so the snapshot captures per-node
// counters net of pending. The recovered registry must match the uncrashed
// process exactly.
func TestCompactionPendingBidCounters(t *testing.T) {
	const bidders = 6
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ids := compactWorkload(t, ex, 1, bidders, 2, true) // two closed rounds
	// Round 3 collects but does NOT close before the snapshot.
	for _, b := range testBids(0, 3, bidders) {
		if _, err := ex.SubmitBid(ids[0], b); err != nil {
			t.Fatal(err)
		}
	}
	if err := ex.Compact(); err != nil {
		t.Fatal(err)
	}
	// The pending round closes after the cut: its record is in the tail.
	if _, err := ex.CloseRound(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := ex.Sync(); err != nil {
		t.Fatal(err)
	}
	want := registrySnapshot(ex, bidders)
	for id := 0; id < bidders; id++ {
		if want[id].bids != 3 {
			t.Fatalf("live node %d counter = %d, want 3", id, want[id].bids)
		}
	}
	ex2, err := Open(cloneDataDir(t, dir), Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex2.Close()
	if got := registrySnapshot(ex2, bidders); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered counters %+v,\nwant %+v (pending bid double-counted across the cut?)", got, want)
	}
}

// TestCompactionKeepsRacingNodeRecords: a ban or a label acknowledged
// while a compaction runs survives the restart. The hook starts a
// compaction between each node record's append and its apply, and holds the
// mutation there until the compaction is done or 200 ms have passed. A cut
// taken in that gap would leave the record in a segment the snapshot covers
// and Prune deletes, while the snapshot captured the node unbanned or
// unlabeled.
func TestCompactionKeepsRacingNodeRecords(t *testing.T) {
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if _, err := ex.RegisterNode(1, ""); err != nil {
		t.Fatal(err)
	}
	compacted := make(chan error, 1)
	testHookBeforeApply = func() {
		go func() { compacted <- ex.Compact() }()
		select {
		case err := <-compacted:
			compacted <- err
		case <-time.After(200 * time.Millisecond):
		}
	}
	defer func() { testHookBeforeApply = nil }()
	for _, step := range []struct {
		name    string
		mutate  func() error
		durable func(reg *Registry) bool
	}{
		{"ban", func() error { _, err := ex.BlacklistNode(1); return err }, func(reg *Registry) bool {
			info, ok := reg.Lookup(1)
			return ok && info.Blacklisted()
		}},
		{"label", func() error { _, err := ex.RegisterNode(2, "edge-2"); return err }, func(reg *Registry) bool {
			info, ok := reg.Lookup(2)
			return ok && info.Meta() == "edge-2"
		}},
	} {
		if err := step.mutate(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if err := <-compacted; err != nil {
			t.Fatalf("%s: compact: %v", step.name, err)
		}
		if err := ex.Sync(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(cloneDataDir(t, dir), Options{SnapshotBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !step.durable(re.Registry()) {
			t.Errorf("%s: lost by the restart after a racing compaction", step.name)
		}
		re.Close()
	}
}

// TestSizeTriggeredCompaction: with a tiny SnapshotBytes threshold the
// exchange must compact on its own — snapshot written, log rotated, old
// segments deleted — while rounds keep flowing, and a reopen of the
// compacted dir must serve the same retained outcomes.
func TestSizeTriggeredCompaction(t *testing.T) {
	const jobs, bidders = 2, 8
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ids := compactWorkload(t, ex, jobs, bidders, 3, true)
	deadline := time.Now().Add(10 * time.Second)
	for ex.Metrics().WalSnapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatal("size trigger never compacted the log")
		}
		compactWorkload(t, ex, jobs, bidders, 1, false)
	}
	if n := ex.Metrics().WalSnapshotErrors; n != 0 {
		t.Fatalf("%d compaction errors", n)
	}
	// Quiesce, then compare across a clean reopen.
	var before map[string][]RoundOutcome
	waitIdle := func(target *Exchange) map[string][]RoundOutcome {
		out := make(map[string][]RoundOutcome, jobs)
		for _, id := range ids {
			job, _ := target.Job(id)
			ros, _ := job.OutcomesAfter(0, 0)
			out[id] = ros
		}
		return out
	}
	before = waitIdle(ex)
	ex.Close()
	ex2, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("reopen of auto-compacted dir: %v", err)
	}
	defer ex2.Close()
	if got := waitIdle(ex2); !reflect.DeepEqual(got, before) {
		t.Error("retained outcomes diverged across the auto-compacted reopen")
	}
}

// TestOpenFailsOnUndecodableRecord: a frame that verifies on disk but does
// not decode cannot come from a crash (zero-fill stops the scan, torn writes
// fail the checksum), only from version skew or a bug — so it must fail the
// Open, naming the record, and leave the evidence in place. It used to be
// read as a torn tail: dropped with every record behind it, then truncated
// away.
func TestOpenFailsOnUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.CreateJob(JobSpec{ID: "kept", Auction: auction.Config{Rule: testRule(t, 0), K: 1}}); err != nil {
		t.Fatal(err)
	}
	ex.RegisterNode(7, "edge-07")
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, wal.SegmentName)
	good, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// A correctly framed record from some other writer of this log.
	log, rec, err := wal.Open(dir, wal.Options{SegmentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Segments[0].Records); n != 2 {
		t.Fatalf("fixture holds %d records, want 2", n)
	}
	b := log.Buf()
	b.WriteString("not json")
	log.Append(b)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	bad, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	ex, err = Open(dir, Options{SnapshotBytes: -1})
	if err == nil {
		ex.Close()
		t.Fatal("Open dropped a record that verified on disk")
	}
	if !strings.Contains(err.Error(), "segment 1 record 2") {
		t.Errorf("error does not name the record: %v", err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != bad.Size() {
		t.Errorf("the failed Open changed the segment: %v bytes (err=%v), want %d", st.Size(), err, bad.Size())
	}

	// With the foreign frame removed by hand, the two records replay.
	if err := os.Truncate(path, good.Size()); err != nil {
		t.Fatal(err)
	}
	ex, err = Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if _, ok := ex.Job("kept"); !ok {
		t.Error("job record did not replay")
	}
	if info, ok := ex.Registry().Lookup(7); !ok || info.Meta() != "edge-07" {
		t.Error("node record did not replay")
	}
}

// closedRounds reads rounds_total and the close-latency histogram's _count
// off ex's Prometheus page.
func closedRounds(t *testing.T, ex *Exchange) (total, count float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := writePrometheus(&buf, ex); err != nil {
		t.Fatal(err)
	}
	page, err := promtext.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if total, err = page.Value("fmore_exchange_rounds_total"); err != nil {
		t.Fatal(err)
	}
	for _, s := range page.Families["fmore_exchange_round_latency_seconds"].Samples {
		if s.Name == "fmore_exchange_round_latency_seconds_count" {
			count = s.Value
		}
	}
	return total, count
}

// TestFailedRoundRecoversByteIdentical covers the one kind of round no other
// exchange-level test produces: a failed one. An embedded caller breaks the
// hand-over contract and poisons a quality of a bid it already submitted;
// the close fails the way the standalone auctioneer's Run does (the error
// names the node), the failed round is retained and logged, numbering stays
// contiguous and the next round closes normally. The auctioneer's round
// counter advanced on the failed round live exactly as replay restores it,
// so a snapshot cut live and one cut after replaying the same log are the
// same bytes.
func TestFailedRoundRecoversByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	job, err := ex.CreateJob(JobSpec{ID: "poisoned", Auction: auction.Config{Rule: testRule(t, 0), K: 2, Payment: auction.SecondPrice}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bids := testBids(0, 1, 4)
	for _, b := range bids {
		if _, err := ex.SubmitBid("poisoned", b); err != nil {
			t.Fatal(err)
		}
	}
	bids[2].Qualities[0] = math.NaN() // the exchange owns this memory since SubmitBid

	ro, err := ex.CloseRound("poisoned")
	if err == nil || !strings.Contains(err.Error(), "bid from node 2") {
		t.Fatalf("poisoned close: err = %v, want one naming node 2", err)
	}
	if ro.Round != 1 || ro.NumBids != 4 || ro.Err == nil || len(ro.Outcome.Winners) != 0 {
		t.Fatalf("poisoned close returned %+v", ro)
	}
	if kept, err := job.Outcome(1); err == nil || kept.Err == nil || kept.Round != 1 {
		t.Fatalf("failed round not retained: %+v, %v", kept, err)
	}
	if got := ex.Metrics().RoundsFailed; got != 1 {
		t.Fatalf("rounds_failed = %d, want 1", got)
	}
	if total, count := closedRounds(t, ex); total != 0 || count != total {
		t.Fatalf("after the failed close: rounds_total %v, latency _count %v; want both 0 (a failed close is no completed round)", total, count)
	}
	for _, b := range testBids(0, 2, 4) {
		if _, err := ex.SubmitBid("poisoned", b); err != nil {
			t.Fatal(err)
		}
	}
	if ro, err := ex.CloseRound("poisoned"); err != nil || ro.Round != 2 || len(ro.Outcome.Winners) != 2 {
		t.Fatalf("round after the failed one: %+v, %v", ro, err)
	}
	if total, count := closedRounds(t, ex); total != 1 || count != total {
		t.Fatalf("after the next close: rounds_total %v, latency _count %v; want both 1", total, count)
	}
	if err := ex.Sync(); err != nil {
		t.Fatal(err)
	}
	page := outcomesPageBytes(t, ex, "poisoned")
	replayDir := cloneDataDir(t, dir) // the log as it stands, before any compaction

	snapshotBytes := func(ex *Exchange, dir string) []byte {
		t.Helper()
		if err := ex.Compact(); err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(filepath.Join(dir, wal.SnapshotName))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	live := snapshotBytes(ex, dir)

	ex2, err := Open(replayDir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex2.Close()
	if got := outcomesPageBytes(t, ex2, "poisoned"); string(got) != string(page) {
		t.Errorf("outcomes page diverged after replay:\n got: %s\nwant: %s", got, page)
	}
	if replayed := snapshotBytes(ex2, replayDir); string(replayed) != string(live) {
		t.Errorf("snapshot cut after replay differs from the one cut live:\n live:     %s\n replayed: %s", live, replayed)
	}
}
