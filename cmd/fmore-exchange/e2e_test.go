package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fmore/pkg/client"
)

// listenRe scrapes the resolved listen address from the service log.
var listenRe = regexp.MustCompile(`listening on ([^ ]+) `)

// The binaries the end-to-end tests spawn, built once per test process into
// binDir (removed by TestMain) and keyed by package directory.
var (
	binMu  sync.Mutex
	binDir string
	bins   = map[string]string{}
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir) //nolint:errcheck // best-effort cleanup of a temp dir
	}
	os.Exit(code)
}

// buildBinary returns the path of the command in pkg (a directory relative
// to this one: "." or "../fmore-router"), building it on the first call of
// the test process; every later call, from any test, reuses that binary.
func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	binMu.Lock()
	defer binMu.Unlock()
	if bin, ok := bins[pkg]; ok {
		return bin
	}
	abs, err := filepath.Abs(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if binDir == "" {
		if binDir, err = os.MkdirTemp("", "fmore-e2e-bin-"); err != nil {
			t.Fatal(err)
		}
	}
	bin := filepath.Join(binDir, filepath.Base(abs))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	bins[pkg] = bin
	return bin
}

// startExchange starts the exchange binary with the given data dir (plus
// any extra flags), returning the base URL, a stopper that SIGTERMs the
// process and waits for exit, and the running command (for tests that kill
// the process hard instead).
func startExchange(t *testing.T, bin, dataDir string, extra ...string) (string, func(), *exec.Cmd) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}, extra...)
	return startProc(t, bin, args...)
}

// startProc starts one service binary (exchange or router), scrapes its
// "listening on" log line for the resolved address, and returns the base
// URL plus lifecycle handles.
func startProc(t *testing.T, bin string, args ...string) (string, func(), *exec.Cmd) {
	t.Helper()
	return startProcEnv(t, bin, nil, args...)
}

// startProcEnv is startProc with extra environment entries (e.g.
// FMORE_FAILPOINTS specs for the chaos tests).
func startProcEnv(t *testing.T, bin string, extraEnv []string, args ...string) (string, func(), *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
	}
	t.Cleanup(stop)

	// Scrape the log for the resolved port; keep draining afterwards so
	// the process never blocks on a full pipe.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, stop, cmd
	case <-time.After(30 * time.Second):
		t.Fatal("service did not announce its listen address within 30s")
		return "", nil, nil
	}
}

// TestE2ESmoke is the CI end-to-end smoke: build the real binary, start it
// with a data dir, drive one full round through the pkg/client SDK with
// the event stream attached, check the metrics round counter, then restart
// the process and verify the outcome survived byte-identically and the
// bidders' registrations were replayed.
func TestE2ESmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the real binary")
	}
	bin := buildBinary(t, ".")
	dataDir := filepath.Join(t.TempDir(), "data")

	url, stop, _ := startExchange(t, bin, dataDir)
	c, err := client.New(url)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := c.CreateJob(ctx, client.JobSpec{
		ID:   "smoke",
		Rule: client.RuleSpec{Kind: "additive", Alpha: []float64{0.5, 0.5}},
		K:    2,
		Seed: 42,
	}); err != nil {
		t.Fatalf("create job: %v", err)
	}

	watchCtx, cancelWatch := context.WithCancel(ctx)
	defer cancelWatch()
	watch, err := c.WatchRounds(watchCtx, "smoke", client.WatchOptions{})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	for node := 0; node < 4; node++ {
		if _, err := c.SubmitBid(ctx, "smoke", client.Bid{
			NodeID:    node,
			Qualities: []float64{0.2 * float64(node+1), 0.9 - 0.1*float64(node)},
			Payment:   0.1,
		}); err != nil {
			t.Fatalf("bid %d: %v", node, err)
		}
	}
	closed, err := c.CloseRound(ctx, "smoke")
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if closed.Round != 1 || len(closed.Winners) != 2 {
		t.Fatalf("close outcome = %+v", closed)
	}
	// The round arrives by push with the outcome inline.
	deadline := time.After(30 * time.Second)
	var pushed *client.Outcome
	for pushed == nil {
		select {
		case ev, ok := <-watch.Events():
			if !ok {
				t.Fatalf("watch ended early: %v", watch.Err())
			}
			if ev.Type == client.RoundClosed {
				pushed = ev.Outcome
			}
		case <-deadline:
			t.Fatal("no round_closed event within 30s")
		}
	}
	if fmt.Sprint(*pushed) != fmt.Sprint(closed) {
		t.Fatalf("pushed outcome differs from close response:\n%+v\n%+v", pushed, closed)
	}
	// Metrics report the round (the CI greps this counter via the SDK).
	m, err := c.Metrics(ctx)
	if err != nil || m.RoundsTotal < 1 || m.BidsAccepted < 4 {
		t.Fatalf("metrics = %+v err %v", m, err)
	}
	rawBefore := rawOutcome(t, url, "smoke", 1)
	cancelWatch()
	stop()

	// Restart from the same data dir: same bytes through the same API.
	url2, _, _ := startExchange(t, bin, dataDir)
	c2, err := client.New(url2)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := c2.Outcome(ctx, "smoke", 1)
	if err != nil || recovered.Round != 1 {
		t.Fatalf("recovered outcome = %+v err %v", recovered, err)
	}
	if rawAfter := rawOutcome(t, url2, "smoke", 1); rawAfter != rawBefore {
		t.Fatalf("outcome bytes changed across process restart:\n%s\n%s", rawBefore, rawAfter)
	}
	// The four bidders' registrations are replayed too.
	if m2, err := c2.Metrics(ctx); err != nil || m2.NodesKnown != 4 {
		t.Fatalf("metrics after restart = %+v err %v, want 4 nodes known", m2, err)
	}
	// The pre-v1 aliases are gone: unversioned paths 404 with the v1 envelope.
	resp, err := http.Get(url2 + "/jobs/smoke/outcome?round=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // read
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("removed legacy path: status %d Content-Type %q, want 404 application/json",
			resp.StatusCode, resp.Header.Get("Content-Type"))
	}
}

// TestE2ESnapshotRecovery is the CI smoke of WAL compaction on the real
// binary: run enough rounds past a tiny -snapshot-bytes threshold that the
// service snapshots and rotates its log on its own, capture the outcome
// page bytes, kill the process hard (SIGKILL — compaction must be crash
// safe, not shutdown safe), restart from the same dir and require the
// identical bytes plus a working continuation round.
func TestE2ESnapshotRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the real binary")
	}
	bin := buildBinary(t, ".")
	dataDir := filepath.Join(t.TempDir(), "data")

	url, stop, cmd := startExchange(t, bin, dataDir, "-snapshot-bytes", "4096")
	c, err := client.New(url)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := c.CreateJob(ctx, client.JobSpec{
		ID:           "rotated",
		Rule:         client.RuleSpec{Kind: "additive", Alpha: []float64{0.6, 0.4}},
		K:            2,
		Seed:         7,
		KeepOutcomes: 8,
	}); err != nil {
		t.Fatalf("create job: %v", err)
	}
	runRound := func(base *client.Client, round int) {
		t.Helper()
		for node := 0; node < 6; node++ {
			if _, err := base.SubmitBid(ctx, "rotated", client.Bid{
				NodeID:    node,
				Qualities: []float64{0.1 * float64(node+1), 0.9 - 0.1*float64(node)},
				Payment:   0.05 + 0.01*float64(round),
			}); err != nil {
				t.Fatalf("round %d bid %d: %v", round, node, err)
			}
		}
		if _, err := base.CloseRound(ctx, "rotated"); err != nil {
			t.Fatalf("round %d close: %v", round, err)
		}
	}
	// Each round appends ~1 KiB of records, so a handful of rounds crosses
	// the 4 KiB threshold; wait until the service reports a completed
	// snapshot rather than assuming.
	round := 0
	deadline := time.Now().Add(60 * time.Second)
	for {
		round++
		runRound(c, round)
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		if m.WalSnapshots >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the exchange never snapshotted past the 4 KiB threshold")
		}
	}
	// A couple of tail rounds after the rotation, then capture and kill -9.
	runRound(c, round+1)
	runRound(c, round+2)
	pageBefore := rawOutcomesPage(t, url, "rotated")
	// The WAL group-commits within its 2ms window; give the writer ample
	// slack so the captured rounds are on disk before the hard kill (the
	// durability contract allows losing the unflushed window, and this test
	// is about snapshot replay, not that window).
	time.Sleep(500 * time.Millisecond)

	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown flush
		t.Fatalf("kill -9: %v", err)
	}
	stop() // reaps the killed process so the restart can take the dir lock

	url2, _, _ := startExchange(t, bin, dataDir, "-snapshot-bytes", "4096")
	if pageAfter := rawOutcomesPage(t, url2, "rotated"); pageAfter != pageBefore {
		t.Fatalf("outcome pages diverged across snapshot recovery:\nbefore: %s\nafter:  %s", pageBefore, pageAfter)
	}
	c2, err := client.New(url2)
	if err != nil {
		t.Fatal(err)
	}
	runRound(c2, round+3) // the recovered exchange keeps closing rounds
}

// rawOutcomesPage fetches the raw GET /v1/jobs/{id}/outcomes bytes — the
// externally visible form of the snapshot-replay guarantee.
func rawOutcomesPage(t *testing.T, base, jobID string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + jobID + "/outcomes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // read
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outcomes page status %d: %s", resp.StatusCode, b)
	}
	return strings.TrimSpace(string(b))
}

// rawOutcome fetches the raw bytes of one outcome response (the byte-level
// witness the SDK would re-serialize away).
func rawOutcome(t *testing.T, base, jobID string, round int) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/outcome?round=%d", base, jobID, round))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // read
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw outcome status %d: %s", resp.StatusCode, b)
	}
	return strings.TrimSpace(string(b))
}
