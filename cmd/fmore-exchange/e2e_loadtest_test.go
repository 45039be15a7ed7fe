package main

import (
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fmore/internal/promtext"
)

// TestE2ELoadtestSmoke is the CI capacity smoke: build the real exchange
// with tight admission limits and fmore-loadgen, check that loadgen refuses
// an unknown scenario, run a short spike through it, and assert the
// overload machinery actually engaged — healthz flipped to 503 mid-burst
// and back to 200 after, loadgen saw sheds but zero close failures (its
// own exit gate), and the admission_* Prometheus family is present and
// well formed.
func TestE2ELoadtestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the real binaries")
	}
	exBin, lgBin := buildBinary(t, "."), buildBinary(t, "../fmore-loadgen")

	url, _, _ := startExchange(t, exBin, filepath.Join(t.TempDir(), "data"),
		"-rate-global", "200", "-max-inflight", "64", "-max-subscribers", "4")

	healthz := func() int {
		resp, err := http.Get(url + "/v1/healthz")
		if err != nil {
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := healthz(); got != http.StatusOK {
		t.Fatalf("healthz before load = %d, want 200", got)
	}
	// An unknown scenario is refused before anything runs.
	if out, err := exec.Command(lgBin, "-target", url, "-scenario", "bogus").CombinedOutput(); err == nil {
		t.Fatalf("loadgen -scenario bogus exited 0:\n%s", out)
	}

	// Drive the spike in the background while this goroutine watches
	// healthz for the overload flip.
	lg := exec.Command(lgBin,
		"-target", url, "-scenario", "spike", "-rate", "400",
		"-duration", "2s", "-workers", "8", "-nodes", "1024")
	lgDone := make(chan error, 1)
	var lgOut []byte
	go func() {
		out, err := lg.CombinedOutput()
		lgOut = out
		lgDone <- err
	}()

	sawOverloaded := false
	deadline := time.Now().Add(15 * time.Second)
	for !sawOverloaded && time.Now().Before(deadline) {
		if healthz() == http.StatusServiceUnavailable {
			sawOverloaded = true
		}
		select {
		case err := <-lgDone:
			if err != nil {
				t.Fatalf("loadgen failed: %v\n%s", err, lgOut)
			}
			lgDone <- nil         // keep the channel readable for the wait below
			deadline = time.Now() // loadgen finished; stop polling either way
		case <-time.After(25 * time.Millisecond):
		}
	}
	if err := <-lgDone; err != nil {
		t.Fatalf("loadgen failed (close invariant or transport): %v\n%s", err, lgOut)
	}
	if !sawOverloaded {
		t.Fatalf("healthz never flipped to 503 during the spike\n%s", lgOut)
	}
	if !strings.Contains(string(lgOut), "step=burst") {
		t.Fatalf("loadgen output missing the burst step:\n%s", lgOut)
	}

	// Overload clears once the burst's shed window passes.
	recovered := false
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		if healthz() == http.StatusOK {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("healthz did not return to 200 within 5s of the spike ending")
	}

	// The admission metric family must be on the Prometheus surface and
	// carry every shed scope; the global scope did the shedding here.
	resp, err := http.Get(url + "/v1/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("prometheus exposition did not parse: %v", err)
	}
	shed, ok := m.Families["fmore_exchange_admission_shed_total"]
	if !ok || shed.Type != "counter" {
		t.Fatalf("admission_shed_total family missing or mistyped: %+v", shed)
	}
	reasons := map[string]bool{}
	var globalShed float64
	for _, s := range shed.Samples {
		reasons[s.Labels["reason"]] = true
		if s.Labels["reason"] == "global" {
			globalShed = s.Value
		}
	}
	for _, want := range []string{"global", "node", "job", "inflight"} {
		if !reasons[want] {
			t.Fatalf("admission_shed_total missing reason=%q (have %v)", want, reasons)
		}
	}
	if globalShed == 0 {
		t.Fatal("spike ran but admission_shed_total{reason=\"global\"} is 0")
	}
	for _, g := range []string{
		"fmore_exchange_admission_inflight",
		"fmore_exchange_admission_sse_active",
		"fmore_exchange_admission_overloaded",
		"fmore_exchange_admission_sse_evicted_total",
	} {
		if _, err := m.Value(g); err != nil {
			t.Fatalf("admission catalog: %v", err)
		}
	}
}
