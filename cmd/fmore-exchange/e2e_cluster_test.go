package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"fmore/internal/partition"
	"fmore/pkg/client"
)

// freePort reserves an ephemeral port and releases it for the service to
// claim. The partitioned replicas need their URLs known before they start
// (the map spec embeds them), so :0 self-announcement is not enough here.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck // release for reuse
	return l.Addr().(*net.TCPAddr).Port
}

// clusterJob finds a job ID the given partition owns under m.
func clusterJob(t *testing.T, m *partition.Map, part string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("cluster-%d", i)
		if m.Owns(part, id) {
			return id
		}
	}
	t.Fatalf("no candidate job for %s", part)
	return ""
}

// TestE2EMultiReplica is the CI multi-replica smoke: build the real
// exchange and router binaries, start two partitioned replicas sharing one
// data-dir parent plus a router, create jobs hashing to both partitions
// through the SDK, drive a round on each, check routed and direct reads are
// byte-identical, then kill -9 one replica, restart it, and require its
// outcome pages unchanged.
func TestE2EMultiReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the real binaries")
	}
	exBin, rtBin := buildBinary(t, "."), buildBinary(t, "../fmore-router")

	// The replicas' URLs are part of the map spec, so reserve ports first.
	port0, port1 := freePort(t), freePort(t)
	url0 := fmt.Sprintf("http://127.0.0.1:%d", port0)
	url1 := fmt.Sprintf("http://127.0.0.1:%d", port1)
	spec := fmt.Sprintf("p0=%s,p1=%s", url0, url1)
	m, err := partition.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Both replicas share one -data-dir parent; each namespaces its WAL
	// under <dir>/replica-<partition>.
	dataDir := filepath.Join(t.TempDir(), "data")
	startReplica := func(part string, port int) (func(), *exec.Cmd) {
		_, stop, cmd := startProc(t, exBin,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-data-dir", dataDir,
			"-partition", part, "-partition-map", spec)
		return stop, cmd
	}
	stop0, cmd0 := startReplica("p0", port0)
	startReplica("p1", port1)
	routerURL, _, _ := startProc(t, rtBin, "-addr", "127.0.0.1:0", "-replicas", spec)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c, err := client.New(routerURL)
	if err != nil {
		t.Fatal(err)
	}
	// SDK-side routing: fetch the map through the router (which forwards
	// the cluster endpoint) and aim per-job calls directly at replicas.
	if err := c.EnableRouting(ctx); err != nil {
		t.Fatalf("EnableRouting: %v", err)
	}
	if v := c.RoutingVersion(); v != 1 {
		t.Fatalf("RoutingVersion = %d, want 1", v)
	}

	job0, job1 := clusterJob(t, m, "p0"), clusterJob(t, m, "p1")
	for _, id := range []string{job0, job1} {
		if _, err := c.CreateJob(ctx, client.JobSpec{
			ID:   id,
			Rule: client.RuleSpec{Kind: "additive", Alpha: []float64{0.5, 0.5}},
			K:    2,
			Seed: 42,
		}); err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
		for node := 0; node < 4; node++ {
			if _, err := c.SubmitBid(ctx, id, client.Bid{
				NodeID:    node,
				Qualities: []float64{0.2 * float64(node+1), 0.9 - 0.1*float64(node)},
				Payment:   0.1,
			}); err != nil {
				t.Fatalf("%s bid %d: %v", id, node, err)
			}
		}
		out, err := c.CloseRound(ctx, id)
		if err != nil {
			t.Fatalf("close %s: %v", id, err)
		}
		if out.Round != 1 || len(out.Winners) != 2 {
			t.Fatalf("close %s outcome = %+v", id, out)
		}
	}

	// Each job is served by exactly one replica: the owner hosts it, the
	// other replica refuses it with wrong_partition (421).
	for _, probe := range []struct{ ownerURL, otherURL, id string }{
		{url0, url1, job0},
		{url1, url0, job1},
	} {
		resp, err := http.Get(probe.ownerURL + "/v1/jobs/" + probe.id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck // status only
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("owner of %s answered %d", probe.id, resp.StatusCode)
		}
		resp, err = http.Get(probe.otherURL + "/v1/jobs/" + probe.id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck // status only
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("non-owner of %s answered %d, want 421", probe.id, resp.StatusCode)
		}
	}

	// A misdirected SDK client (no routing, pointed at the wrong replica)
	// converges in one transparent retry and reads the same bytes as the
	// owner and the router serve.
	misdirected, err := client.New(url1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := misdirected.Outcome(ctx, job0, 1); err != nil || got.Round != 1 {
		t.Fatalf("misdirected outcome = %+v err %v", got, err)
	}
	direct0 := rawOutcome(t, url0, job0, 1)
	if viaRouter := rawOutcome(t, routerURL, job0, 1); viaRouter != direct0 {
		t.Fatalf("routed and direct outcome bytes differ:\nrouter: %s\ndirect: %s", viaRouter, direct0)
	}
	direct1 := rawOutcome(t, url1, job1, 1)
	if viaRouter := rawOutcome(t, routerURL, job1, 1); viaRouter != direct1 {
		t.Fatalf("routed and direct outcome bytes differ:\nrouter: %s\ndirect: %s", viaRouter, direct1)
	}

	// The replicas kept disjoint WALs under the shared parent.
	for _, sub := range []string{"replica-p0", "replica-p1"} {
		if _, err := os.Stat(filepath.Join(dataDir, sub)); err != nil {
			t.Fatalf("replica WAL namespace missing: %v", err)
		}
	}

	// Crash one replica hard and restart it on the same port: its outcome
	// pages must come back byte-identical (the group-commit window is long
	// flushed by now).
	time.Sleep(500 * time.Millisecond)
	if err := cmd0.Process.Kill(); err != nil {
		t.Fatalf("kill -9 p0: %v", err)
	}
	stop0() // reap so the restart can reclaim the data dir
	startReplica("p0", port0)
	if after := rawOutcome(t, url0, job0, 1); after != direct0 {
		t.Fatalf("p0 outcome bytes changed across kill -9/restart:\nbefore: %s\nafter:  %s", direct0, after)
	}
	// And the restarted replica still serves through the router.
	if after := rawOutcome(t, routerURL, job0, 1); after != direct0 {
		t.Fatalf("routed read after restart diverged:\nbefore: %s\nafter:  %s", direct0, after)
	}
}
