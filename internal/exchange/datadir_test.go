package exchange

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"fmore/internal/auction"
	"fmore/internal/wal"
)

// countRoundEncodes arms testHookEncodeRound for the test's lifetime and
// returns the running count of round encodes.
func countRoundEncodes(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	testHookEncodeRound = func() { n.Add(1) }
	t.Cleanup(func() { testHookEncodeRound = nil })
	return &n
}

// allPages fetches every job's outcomes page.
func allPages(t *testing.T, ex *Exchange, ids []string) map[string][]byte {
	t.Helper()
	pages := make(map[string][]byte, len(ids))
	for _, id := range ids {
		pages[id] = outcomesPageBytes(t, ex, id)
	}
	return pages
}

func assertPages(t *testing.T, ex *Exchange, want map[string][]byte, when string) {
	t.Helper()
	for id, page := range want {
		if got := outcomesPageBytes(t, ex, id); !bytes.Equal(got, page) {
			t.Errorf("%s: job %s outcomes page diverged:\n got: %s\nwant: %s", when, id, got, page)
		}
	}
}

// assertSameRounds compares two retained histories on everything
// deterministic (latency is wall-clock on rounds each side ran live).
func assertSameRounds(t *testing.T, id string, got, want []RoundOutcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("job %s: %d retained rounds, want %d", id, len(got), len(want))
		return
	}
	for i := range got {
		if got[i].Round != want[i].Round || got[i].NumBids != want[i].NumBids ||
			!reflect.DeepEqual(got[i].Outcome, want[i].Outcome) ||
			!reflect.DeepEqual(got[i].Err, want[i].Err) {
			t.Errorf("job %s round %d diverges", id, want[i].Round)
		}
	}
}

// TestParentWrittenDataDirReplaysAndCompacts is the cross-version format
// test. testdata/parent-pr12 holds a data dir written by the commit before
// rounds were encoded once (reflective encoder, re-marshalled snapshot,
// floats as decimals) — one exchange.snap plus a tail segment — and the
// outcome pages that commit served from it. The dir must open with
// byte-identical pages, compact (which writes its retained rounds in the
// bit spelling) and reopen with the same pages, then run a continuation
// round bit-identical to a fork of the same dir that never compacted.
//
// Regenerate (only if the fixture must change) from a checkout of that
// commit: the workload is TestCompactionSnapshotReplayIdentical's up to its
// crash point, closed cleanly, with node 3's meta set to "edge-03 <a&b>".
func TestParentWrittenDataDirReplaysAndCompacts(t *testing.T) {
	const jobs, bidders = 4, 16
	golden := filepath.Join("testdata", "parent-pr12")
	ids := make([]string, jobs)
	pages := make(map[string][]byte, jobs)
	for j := range ids {
		ids[j] = fmt.Sprintf("snap-job-%d", j)
		page, err := os.ReadFile(filepath.Join(golden, ids[j]+".outcomes.json"))
		if err != nil {
			t.Fatal(err)
		}
		pages[ids[j]] = page
	}
	open := func(dir string) *Exchange {
		t.Helper()
		ex, err := Open(dir, Options{SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("opening %s: %v", dir, err)
		}
		return ex
	}

	dir := cloneDataDir(t, filepath.Join(golden, "data"))
	ex := open(dir)
	assertPages(t, ex, pages, "parent-written dir")
	if info, ok := ex.Registry().Lookup(3); !ok || info.Meta() != "edge-03 <a&b>" {
		t.Errorf("node 3 did not come back with its meta (found %v)", ok)
	}
	if err := ex.Compact(); err != nil {
		t.Fatalf("compacting the parent-written dir: %v", err)
	}
	assertPages(t, ex, pages, "after compaction")
	ex.Close()

	ex = open(dir) // from the compacted snapshot alone
	defer ex.Close()
	assertPages(t, ex, pages, "reopened after compaction")
	if err := ex.Compact(); err != nil {
		t.Fatal(err)
	}

	fork := open(cloneDataDir(t, filepath.Join(golden, "data")))
	defer fork.Close()
	compactWorkload(t, ex, jobs, bidders-1, 2, false) // node 15 is banned in the fixture
	compactWorkload(t, fork, jobs, bidders-1, 2, false)
	for _, id := range ids {
		a, _ := ex.Job(id)
		b, _ := fork.Job(id)
		got, _ := a.OutcomesAfter(0, 0)
		want, _ := b.OutcomesAfter(0, 0)
		assertSameRounds(t, id, got, want)
	}
}

// TestParentWrittenDataDirTakesNewRounds holds both spellings in one data
// dir: testdata/parent-pr12, in the decimal spelling, takes rounds this
// code closes in the bit spelling, and a compaction writes the parent's
// retained rounds, re-encoded as bits, beside the new ones. The pages
// serve the parent's outcome bodies and the new rounds byte-identically
// before the compaction and after a reopen from its snapshot.
func TestParentWrittenDataDirTakesNewRounds(t *testing.T) {
	const jobs, bidders, more = 4, 16, 2
	golden := filepath.Join("testdata", "parent-pr12")
	dir := cloneDataDir(t, filepath.Join(golden, "data"))
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ids := compactWorkload(t, ex, jobs, bidders-1, more, false) // node 15 is banned in the fixture
	pages := allPages(t, ex, ids)
	outcomes := func(page []byte) []json.RawMessage {
		var p struct{ Outcomes []json.RawMessage }
		if err := json.Unmarshal(page, &p); err != nil {
			t.Fatal(err)
		}
		return p.Outcomes
	}
	retained := 0
	for _, id := range ids {
		parentPage, err := os.ReadFile(filepath.Join(golden, id+".outcomes.json"))
		if err != nil {
			t.Fatal(err)
		}
		parent, now := outcomes(parentPage), outcomes(pages[id])
		if len(parent) <= more || len(now) != len(parent) {
			t.Fatalf("job %s: the parent's page has %d outcomes, after %d more rounds %d", id, len(parent), more, len(now))
		}
		for i, body := range parent[more:] {
			if !bytes.Equal(now[i], body) {
				t.Errorf("job %s: the parent's outcome\n%s\nis served as\n%s", id, body, now[i])
			}
		}
		retained += len(now)
	}
	if err := ex.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, wal.SnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Jobs []struct{ History []json.RawMessage }
	}
	if err := json.Unmarshal(raw[8:], &snap); err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, j := range snap.Jobs {
		for _, entry := range j.History {
			entries++
			var old parentRound
			if err := json.Unmarshal(entry, &old); err == nil {
				t.Errorf("a history entry is still in the decimal spelling: %s", entry)
			}
		}
	}
	if entries != retained {
		t.Errorf("the snapshot holds %d history entries, the jobs retained %d rounds", entries, retained)
	}
	ex, err = Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	assertPages(t, ex, pages, "reopened from the mixed snapshot")
}

// TestRecoveryChainEncodeCounts runs the recovery chain on a dir this code
// wrote and counts round encodes: each close encodes its round once, a
// replay — of a segment or of a snapshot — encodes nothing, and each
// compaction encodes exactly the rounds it retains. The outcome pages stay
// byte-identical along the chain.
func TestRecoveryChainEncodeCounts(t *testing.T) {
	const jobs, bidders, rounds = 3, 8, 6
	dir := t.TempDir()
	encodes := countRoundEncodes(t)
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ids := compactWorkload(t, ex, jobs, bidders, rounds, true)
	if n := encodes.Load(); n != jobs*rounds {
		t.Fatalf("%d rounds closed with %d encodes, want one each", jobs*rounds, n)
	}
	pages := allPages(t, ex, ids)
	retained := 0
	for _, id := range ids {
		job, _ := ex.Job(id)
		page, _ := job.OutcomesAfter(0, 0)
		retained += len(page)
	}
	if retained == 0 || retained == jobs*rounds {
		t.Fatalf("%d of %d rounds retained: the chain must evict some and keep some", retained, jobs*rounds)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"segment replay", "snapshot replay", "second snapshot replay"} {
		encodes.Store(0)
		ex, err := Open(dir, Options{SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if n := encodes.Load(); n != 0 {
			t.Errorf("%s encoded %d rounds, want none", step, n)
		}
		assertPages(t, ex, pages, step)
		if err := ex.Compact(); err != nil {
			t.Fatalf("compact after %s: %v", step, err)
		}
		if n := encodes.Load(); n != int64(retained) {
			t.Errorf("the compaction after %s encoded %d rounds, want the %d retained", step, n, retained)
		}
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// The snapshot schema as the parent commit declared it, history entries as
// plain round records with their floats as bits (bitsRound). A snapshot
// written by the streaming writer must be this document.
type parentSnapshot struct {
	CutSeq int64           `json:"cut_seq"`
	Jobs   []parentSnapJob `json:"jobs,omitempty"`
	Nodes  []walSnapNode   `json:"nodes,omitempty"`
}

type parentSnapJob struct {
	Spec      walJob      `json:"spec"`
	Closed    bool        `json:"closed,omitempty"`
	Round     int         `json:"round"`
	BaseRound int         `json:"base_round"`
	Draws     int64       `json:"draws"`
	AuctRound int         `json:"auct_round"`
	History   []bitsRound `json:"history,omitempty"`
}

// TestSnapshotIsTheParentSchemaDocument decodes a streamed snapshot with
// the parent's structs, floats as bits: the frame validates (the reopen at
// the end reads it), json.Marshal of the decoded value reproduces the
// payload byte for byte (the hand-written header, history and node
// encoders emit exactly the schema's document), and the histories are the
// live exchange's. It also covers the compaction gauges.
func TestSnapshotIsTheParentSchemaDocument(t *testing.T) {
	const jobs, bidders, rounds = 4, 16, 6
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ex.RegisterNode(40, `meta "quoted" <&> `+"\u2028")
	ids := compactWorkload(t, ex, jobs, bidders, rounds, true)
	ex.BlacklistNode(2)
	job0, _ := ex.Job(ids[0])
	job0.Close()
	if _, err := ex.CreateJob(JobSpec{ID: "no-history", Auction: auction.Config{Rule: testRule(t, 0), K: 1}}); err != nil {
		t.Fatal(err)
	}
	if m := ex.Metrics(); m.WalSnapshotBytes != 0 || m.WalSnapshotSeconds != 0 {
		t.Errorf("compaction gauges before any compaction: %+v", m)
	}
	if err := ex.Compact(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, wal.SnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[8:]
	var snap parentSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatalf("parent-shape decode: %v", err)
	}
	if again, err := json.Marshal(snap); err != nil || !bytes.Equal(again, payload) {
		t.Errorf("snapshot is not json.Marshal of its schema (%v):\n got: %s\nwant: %s", err, payload, again)
	}
	if len(snap.Jobs) != jobs+1 || snap.CutSeq != 2 {
		t.Fatalf("snapshot has %d jobs at cut %d", len(snap.Jobs), snap.CutSeq)
	}
	for _, sj := range snap.Jobs {
		job, ok := ex.Job(sj.Spec.ID)
		if !ok {
			t.Fatalf("snapshot job %q is not hosted", sj.Spec.ID)
		}
		live, _ := job.OutcomesAfter(0, 0)
		if len(sj.History) != len(live) || sj.Round != job.Round() || sj.Closed != (job.State() == "closed") {
			t.Errorf("job %s: snapshot (round %d, %d retained, closed %v) disagrees with the live job (round %d, %d retained, %s)",
				sj.Spec.ID, sj.Round, len(sj.History), sj.Closed, job.Round(), len(live), job.State())
			continue
		}
		for i := range live {
			entry, err := json.Marshal(sj.History[i])
			var wr walRound
			if err == nil {
				err = json.Unmarshal(entry, &wr)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := wr.outcome(sj.Spec.ID); !reflect.DeepEqual(got, live[i]) {
				t.Errorf("job %s round %d: snapshot holds %+v, live history %+v", sj.Spec.ID, live[i].Round, got, live[i])
			}
		}
	}

	m := ex.Metrics()
	if m.WalSnapshotBytes != int64(len(raw)) {
		t.Errorf("wal_snapshot_bytes = %d, the file is %d bytes", m.WalSnapshotBytes, len(raw))
	}
	if m.WalSnapshotStwSeconds <= 0 || m.WalSnapshotStwSeconds > m.WalSnapshotSeconds {
		t.Errorf("wal_snapshot_seconds = %v with a stop-the-world share of %v", m.WalSnapshotSeconds, m.WalSnapshotStwSeconds)
	}
	ex2, err := Open(cloneDataDir(t, dir), Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex2.Close()
	if m := ex2.Metrics(); m.WalSnapshotBytes != int64(len(raw)) || m.WalSnapshotSeconds != 0 {
		t.Errorf("after a restart: wal_snapshot_bytes = %d (file: %d), wal_snapshot_seconds = %v (no compaction yet)",
			m.WalSnapshotBytes, len(raw), m.WalSnapshotSeconds)
	}
}

// evictingJobs creates n jobs with a two-round history window — every close
// past the second evicts — and returns their IDs.
func evictingJobs(t *testing.T, ex *Exchange, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for j := range ids {
		ids[j] = fmt.Sprintf("evict-%d", j)
		if _, err := ex.CreateJob(JobSpec{
			ID:           ids[j],
			Auction:      auction.Config{Rule: testRule(t, j), K: 2},
			Seed:         int64(5 + j),
			KeepOutcomes: 2,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// closeOneRound bids and closes job jobIdx's next round. It reports rather
// than aborts, so goroutines other than the test's may call it.
func closeOneRound(t *testing.T, ex *Exchange, id string, jobIdx, bidders int) (RoundOutcome, bool) {
	job, ok := ex.Job(id)
	if !ok {
		t.Errorf("job %s missing", id)
		return RoundOutcome{}, false
	}
	for _, b := range testBids(jobIdx, job.Round(), bidders) {
		if _, err := ex.SubmitBid(id, b); err != nil {
			t.Errorf("bid on %s: %v", id, err)
			return RoundOutcome{}, false
		}
	}
	ro, err := ex.CloseRound(id)
	if err != nil {
		t.Errorf("close on %s: %v", id, err)
		return RoundOutcome{}, false
	}
	return ro, true
}

// segmentFiles lists a data dir's log segments.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// snapshotOnly turns a crash copy into what its snapshot alone holds: the
// tail segments are dropped, so recovery starts an empty tail at the cut.
func snapshotOnly(t *testing.T, dir string) {
	t.Helper()
	for _, seg := range segmentFiles(t, dir) {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotStreamsWhileHistoryEvicts pins the ownership rule of the
// snapshot's outcomes: a snapshot encodes the outcome copies captured under
// the stop-the-world locks, after they dropped — so rounds closing meanwhile
// evict exactly the outcomes being encoded, and eviction must leave those
// copies intact until the file is complete. The crash copy taken the moment
// the snapshot commits, cut down to the snapshot itself, must hold exactly
// the history at the cut.
func TestSnapshotStreamsWhileHistoryEvicts(t *testing.T) {
	const jobs, bidders = 3, 8
	t.Cleanup(func() {
		testHookAfterRotate = nil
		testHookAfterSnapshot = nil
	})

	// Deterministic: the evicting closes run between the capture and the
	// write, on the compacting goroutine itself.
	t.Run("closes between capture and write", func(t *testing.T) {
		dir := t.TempDir()
		ex, err := Open(dir, Options{SnapshotBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		ids := evictingJobs(t, ex, jobs)
		for r := 0; r < 3; r++ {
			for j, id := range ids {
				closeOneRound(t, ex, id, j, bidders)
			}
		}
		var atCut map[string][]byte
		var crashDir string
		testHookAfterRotate = func() {
			atCut = allPages(t, ex, ids)
			for r := 0; r < 4; r++ { // every captured record leaves the window, twice over
				for j, id := range ids {
					closeOneRound(t, ex, id, j, bidders)
				}
			}
		}
		testHookAfterSnapshot = func() { crashDir = cloneDataDir(t, dir) }
		if err := ex.Compact(); err != nil {
			t.Fatal(err)
		}
		testHookAfterRotate, testHookAfterSnapshot = nil, nil
		snapshotOnly(t, crashDir)
		ex2, err := Open(crashDir, Options{SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("recovering the snapshot: %v", err)
		}
		defer ex2.Close()
		assertPages(t, ex2, atCut, "snapshot written while its records were evicted")
	})

	// Concurrent (the -race half): size-triggered compactions run in the
	// background while every job keeps closing rounds.
	t.Run("concurrent closes", func(t *testing.T) {
		const maxRounds, copies = 20000, 4 // closers stop at the fourth committed snapshot
		dir := t.TempDir()
		scratch := t.TempDir()
		ex, err := Open(dir, Options{SnapshotBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		ids := evictingJobs(t, ex, jobs)

		var mu sync.Mutex
		closed := make(map[string]map[int]RoundOutcome, jobs)
		var crashDirs []string
		var done atomic.Bool
		testHookAfterSnapshot = func() {
			mu.Lock()
			defer mu.Unlock()
			if len(crashDirs) == copies {
				return
			}
			d := filepath.Join(scratch, fmt.Sprint(len(crashDirs)))
			if err := os.CopyFS(d, os.DirFS(dir)); err != nil {
				t.Error(err)
				done.Store(true)
				return
			}
			crashDirs = append(crashDirs, d)
			done.Store(len(crashDirs) == copies)
		}
		for _, id := range ids {
			closed[id] = make(map[int]RoundOutcome) // before any closer reads the outer map
		}
		var wg sync.WaitGroup
		for j, id := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < maxRounds && !done.Load(); r++ {
					ro, ok := closeOneRound(t, ex, id, j, bidders)
					if !ok {
						return
					}
					mu.Lock()
					closed[id][ro.Round] = ro
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
		testHookAfterSnapshot = nil
		if len(crashDirs) < copies {
			t.Fatalf("%d compactions committed during the run, want %d", len(crashDirs), copies)
		}
		for _, crashDir := range crashDirs {
			snapshotOnly(t, crashDir)
			ex2, err := Open(crashDir, Options{SnapshotBytes: -1})
			if err != nil {
				t.Fatalf("recovering %s: %v", crashDir, err)
			}
			for _, id := range ids {
				job, _ := ex2.Job(id)
				got, _ := job.OutcomesAfter(0, 0)
				if want := min(2, job.Round()-1); len(got) != want {
					t.Errorf("%s job %s at round %d retains %d rounds, want %d", crashDir, id, job.Round(), len(got), want)
				}
				for _, ro := range got {
					if want := closed[id][ro.Round]; !reflect.DeepEqual(ro, want) {
						t.Errorf("%s job %s round %d: snapshot holds %+v, the round closed as %+v", crashDir, id, ro.Round, ro, want)
					}
				}
			}
			ex2.Close()
		}
	})
}

// TestOpenRejectsUndecodableHistoryEntry: a history entry that is valid
// JSON but not a round must fail the Open like any other undecodable
// snapshot, not vanish.
func TestOpenRejectsUndecodableHistoryEntry(t *testing.T) {
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	compactWorkload(t, ex, 1, 4, 2, true)
	if err := ex.Compact(); err != nil {
		t.Fatal(err)
	}
	ex.Close()
	// Re-snapshot the dir through the log itself, with one history entry
	// edited: the frame verifies, the document around the entry decodes.
	log, rec, err := wal.Open(dir, wal.Options{SegmentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Replace(rec.Snapshot, []byte(`"history":[{"job":"snap-job-0"`), []byte(`"history":[{"job":1234567890.5`), 1)
	if bytes.Equal(payload, rec.Snapshot) {
		t.Fatal("the fixture edit did not apply")
	}
	if err := log.Rotate(); err != nil {
		t.Fatal(err)
	}
	cut, _ := log.Cut()
	log.Wait()
	payload = bytes.Replace(payload, []byte(`{"cut_seq":2,`), fmt.Appendf(nil, `{"cut_seq":%d,`, cut), 1)
	if err := log.WriteSnapshot(func(w *bufio.Writer) { w.Write(payload) }); err != nil { //nolint:errcheck // sticky
		t.Fatal(err)
	}
	log.Prune()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if ex, err := Open(dir, Options{SnapshotBytes: -1}); err == nil {
		ex.Close()
		t.Fatal("opened a snapshot whose history entry does not decode")
	}
}

// TestRealLogsReencodeToThemselves is the round encoder's identity on bytes
// that exist: every round record in the tail segment and every history
// entry in the snapshot of a compacted dir this code writes is restored as
// replay restores it and encoded again, and must come out as the bytes on
// disk. (The decimal records of testdata/parent-pr12 are held to their
// bit spelling by FuzzRoundSpellings.)
func TestRealLogsReencodeToThemselves(t *testing.T) {
	dir := t.TempDir()
	ex, err := Open(dir, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	compactWorkload(t, ex, 4, 16, 6, true)
	if err := ex.Compact(); err != nil {
		t.Fatal(err)
	}
	compactWorkload(t, ex, 4, 16, 2, false)
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	log, rec, err := wal.Open(cloneDataDir(t, dir), wal.Options{SegmentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close() //nolint:errcheck // only read
	records, entries := 0, 0
	for _, seg := range rec.Segments {
		for _, payload := range seg.Records {
			var wr walRecord
			if err := json.Unmarshal(payload, &wr); err != nil {
				t.Fatal(err)
			}
			if wr.Kind != recRound {
				continue
			}
			records++
			if got := replayed(t, payload, wr.Round.Job); !bytes.Equal(got, payload) {
				t.Errorf("round record re-encodes differently:\n got: %s\nwant: %s", got, payload)
			}
		}
	}
	var snap struct {
		Jobs []struct{ History []json.RawMessage }
	}
	if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, job := range snap.Jobs {
		for _, entry := range job.History {
			var r walRound
			if err := json.Unmarshal(entry, &r); err != nil {
				t.Fatalf("history entry: %v", err)
			}
			entries++
			ro := r.outcome(r.Job)
			if got, err := appendWalRound(nil, &ro, nil, 0); err != nil || !bytes.Equal(got, entry) {
				t.Errorf("history entry re-encodes differently (%v):\n got: %s\nwant: %s", err, got, entry)
			}
		}
	}
	if records == 0 || entries == 0 {
		t.Errorf("checked %d round records and %d history entries, want some of each", records, entries)
	}
}
