package main

import (
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fmore/internal/partition"
)

// httpDo is the chaos test's tolerant HTTP helper: unlike rawOutcome it
// returns the status instead of failing, because half the point is probing
// endpoints that are supposed to refuse.
func httpDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close() //nolint:errcheck // read below
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestE2EChaos is the CI chaos smoke: a two-replica cluster plus router
// built from the real binaries, with a torn-EIO frame write injected into
// replica p0's WAL via FMORE_FAILPOINTS. It drives rounds until the fault
// fires, then asserts the whole degraded-mode contract: durable writes
// refused with 503 durability_lost while reads keep serving, healthz
// degraded, the router steering bid traffic away, the healthy peer
// unaffected — and after kill -9 plus a clean restart, every acknowledged
// outcome (outside the group-commit grace window around the failure)
// recovered byte-identically.
func TestE2EChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the real binaries")
	}
	exBin, rtBin := buildBinary(t, "."), buildBinary(t, "../fmore-router")

	port0, port1 := freePort(t), freePort(t)
	url0 := fmt.Sprintf("http://127.0.0.1:%d", port0)
	url1 := fmt.Sprintf("http://127.0.0.1:%d", port1)
	spec := fmt.Sprintf("p0=%s,p1=%s", url0, url1)
	m, err := partition.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(t.TempDir(), "data")

	startReplica := func(part string, port int, env []string) (func(), *exec.Cmd) {
		_, stop, cmd := startProcEnv(t, exBin, env,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-data-dir", dataDir,
			"-partition", part, "-partition-map", spec)
		return stop, cmd
	}
	// The ~25th batch write on p0 tears after 9 bytes with a sticky EIO:
	// a run of healthy durable rounds first, then the storage fault.
	stop0, cmd0 := startReplica("p0", port0, []string{"FMORE_FAILPOINTS=wal/write=torn:9@25+"})
	startReplica("p1", port1, nil)
	routerURL, _, _ := startProc(t, rtBin, "-addr", "127.0.0.1:0", "-replicas", spec)

	job0, job1 := clusterJob(t, m, "p0"), clusterJob(t, m, "p1")
	for _, j := range []string{job0, job1} {
		st, body := httpDo(t, http.MethodPost, routerURL+"/v1/jobs",
			fmt.Sprintf(`{"id":%q,"k":2,"seed":7,"keep_outcomes":256,"rule":{"kind":"additive","alpha":[0.6,0.4]}}`, j))
		if st != http.StatusCreated {
			t.Fatalf("create %s: %d %s", j, st, body)
		}
	}

	// Drive rounds on p0 directly until the injected tear degrades it.
	// Every acked (HTTP 200) close is snapshotted through the read API —
	// the bytes recovery must reproduce.
	ackedBytes := map[int]string{}
	ackedAt := map[int]time.Time{}
	ackedOrder := []int{}
	degradedAt := 0
	var degradeTime time.Time
	for r := 1; r <= 400 && degradedAt == 0; r++ {
		for n := 0; n < 4; n++ {
			st, body := httpDo(t, http.MethodPost, url0+"/v1/jobs/"+job0+"/bids",
				fmt.Sprintf(`{"node_id":%d,"qualities":[0.5,0.5],"payment":0.1}`, n))
			if st == http.StatusServiceUnavailable && strings.Contains(body, "durability_lost") {
				degradedAt, degradeTime = r, time.Now()
				break
			}
			if st != http.StatusAccepted {
				t.Fatalf("round %d bid %d: %d %s", r, n, st, body)
			}
		}
		if degradedAt != 0 {
			break
		}
		st, body := httpDo(t, http.MethodPost, url0+"/v1/jobs/"+job0+"/close", "")
		switch {
		case st == http.StatusOK:
			if gst, gbody := httpDo(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s/outcome?round=%d", url0, job0, r), ""); gst == http.StatusOK {
				ackedBytes[r] = gbody
				ackedAt[r] = time.Now()
				ackedOrder = append(ackedOrder, r)
			}
		case st == http.StatusServiceUnavailable && strings.Contains(body, "durability_lost"):
			degradedAt, degradeTime = r, time.Now()
		default:
			t.Fatalf("round %d close: %d %s", r, st, body)
		}
	}
	if degradedAt == 0 {
		t.Fatal("p0 never degraded despite the torn-write injection")
	}
	if len(ackedOrder) < 10 {
		t.Fatalf("only %d rounds acked before the fault — injection fired too early", len(ackedOrder))
	}

	// Degraded contract on p0: healthz flipped, reads still serve.
	if st, body := httpDo(t, http.MethodGet, url0+"/v1/healthz", ""); st != http.StatusServiceUnavailable || !strings.Contains(body, `"degraded"`) {
		t.Fatalf("degraded healthz: %d %s, want 503 degraded", st, body)
	}
	if st, _ := httpDo(t, http.MethodGet, url0+"/v1/jobs/"+job0+"/outcomes", ""); st != http.StatusOK {
		t.Fatalf("degraded p0 refused a read: %d", st)
	}
	// The healthy peer keeps taking durable writes.
	for n := 0; n < 4; n++ {
		if st, body := httpDo(t, http.MethodPost, url1+"/v1/jobs/"+job1+"/bids",
			fmt.Sprintf(`{"node_id":%d,"qualities":[0.5,0.5],"payment":0.1}`, n)); st != http.StatusAccepted {
			t.Fatalf("healthy peer bid: %d %s", st, body)
		}
	}
	if st, body := httpDo(t, http.MethodPost, url1+"/v1/jobs/"+job1+"/close", ""); st != http.StatusOK {
		t.Fatalf("healthy peer close: %d %s", st, body)
	}
	// The router's healthz probe must steer sheddable bid traffic away
	// from p0 (429), while job-scoped reads still route through.
	steered := false
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(250 * time.Millisecond) {
		if st, _ := httpDo(t, http.MethodPost, routerURL+"/v1/jobs/"+job0+"/bids",
			`{"node_id":9,"qualities":[0.5,0.5],"payment":0.1}`); st == http.StatusTooManyRequests {
			steered = true
			break
		}
	}
	if !steered {
		t.Fatal("router never steered bid traffic away from the degraded replica")
	}
	// Through the router, meanwhile, the healthy partition still takes
	// durable writes and the degraded one still serves reads.
	if st, body := httpDo(t, http.MethodPost, routerURL+"/v1/jobs/"+job1+"/bids",
		`{"node_id":9,"qualities":[0.5,0.5],"payment":0.1}`); st != http.StatusAccepted {
		t.Fatalf("healthy peer bid through the router: %d %s", st, body)
	}
	if st, body := httpDo(t, http.MethodPost, routerURL+"/v1/jobs/"+job1+"/close", ""); st != http.StatusOK {
		t.Fatalf("healthy peer close through the router: %d %s", st, body)
	}
	if st, body := httpDo(t, http.MethodGet, routerURL+"/v1/jobs/"+job0+"/outcomes", ""); st != http.StatusOK {
		t.Fatalf("degraded p0 read through the router: %d %s", st, body)
	}

	// kill -9 the degraded replica and restart it with a healthy disk.
	if err := cmd0.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	stop0() // reap so the restart can take the port and data dir
	startReplica("p0", port0, nil)
	if st, body := httpDo(t, http.MethodGet, url0+"/v1/healthz", ""); st != http.StatusOK {
		t.Fatalf("restarted p0 healthz: %d %s", st, body)
	}

	// Recovery invariant. Closes are acked from memory with the WAL record
	// in the group-commit queue, so acks inside the commit window that the
	// torn write destroyed can be lost — but the log is sequential, so any
	// loss must be a contiguous tail of the ack sequence, every lost ack
	// must sit hard against the failure (within ackGrace of it), and every
	// recovered round must be byte-identical to what was served pre-crash.
	const ackGrace = time.Second
	recovered := 0
	lost := false
	for _, r := range ackedOrder {
		st, body := httpDo(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s/outcome?round=%d", url0, job0, r), "")
		if st != http.StatusOK {
			if degradeTime.Sub(ackedAt[r]) > ackGrace {
				t.Fatalf("round %d, acked %v before the fault, missing after recovery", r, degradeTime.Sub(ackedAt[r]))
			}
			lost = true
			continue
		}
		if lost {
			t.Fatalf("round %d recovered after an earlier acked round was lost — tail loss must be contiguous", r)
		}
		recovered++
		if body != ackedBytes[r] {
			t.Errorf("round %d diverged across crash recovery", r)
		}
	}
	if recovered == 0 {
		t.Fatal("no acknowledged round survived recovery")
	}
	t.Logf("chaos: %d rounds acked, %d recovered byte-identical, %d lost in the commit window",
		len(ackedOrder), recovered, len(ackedOrder)-recovered)
}
