// Command bench is the repository's benchmark: four workloads, each driving
// the real exchange — the fmore-exchange and fmore-router binaries, or the
// exchange embedded in this process — with a seeded operation stream, and
// reporting what a user of the system would see (end-to-end metrics) or, in
// a traced run, what each layer of the bid path costs (per-layer metrics).
//
//	bash bench/run.sh --workload edge_bids_http --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload edge_bids_http --seed 1 --seconds 25 --trace 1
//	bash bench/run.sh --repeat 2 --check
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. See README.md for the workloads, the metrics and what
// each layer metric is expected to move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// A run sets its workload up at least minSetups times, and again until
// setupBudget has been spent setting up (at most maxSetups times): a 30 ms
// set-up needs more repeats than a 1.5 s one for a steady median. setup_s is
// the median; the last set-up is the one measured.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
	// stealWait bounds awaitHost: with a quarter of the runs waiting it out
	// the driver's 92 runs still end inside its 57 minutes.
	stealWait = 20 * time.Second
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's last output line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed of every node ID, θ draw and bid")
	seconds := flag.Float64("seconds", runSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics and the budget table")
	repeat := flag.Int("repeat", 0, "run this many sets of every workload (or of -workload), each run with its own seed")
	check := flag.Bool("check", false, "with -repeat: fail when a metric's spread across the sets exceeds its bound")
	flag.Parse()

	if *repeat > 0 {
		os.Exit(runRepeat(*workload, *seed, *seconds, *repeat, *check))
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown -workload %q (want one of %s)", *workload, workloadNames()))
	}
	rep, err := runOnce(w, *seed, *seconds, *trace == 1, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if rep == nil {
		os.Exit(1)
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fatal(jerr)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// loadShape is C of the issue: worker goroutines and client connections.
func loadShape() int { return min(runtime.NumCPU(), 4) }

// runOnce builds the programs under test, runs one workload once and
// returns its report. A nil report means the run could not produce one; a
// report with Correct false comes with the error that made it so. small is
// the smoke test's scale: 4 jobs, 1,024 mega_round bidders, short warm-up.
func runOnce(w workloadDef, seed int64, seconds float64, traced, small bool) (*report, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	buildDir := filepath.Join(root, ".bench_build")
	buildTime, err := buildServers(root, filepath.Join(buildDir, "bin"))
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{root: root, binDir: filepath.Join(buildDir, "bin"), tmp: tmp, seed: seed, c: loadShape(), small: small}
	defer func() {
		e.stopAll()
		os.RemoveAll(tmp) //nolint:errcheck // scratch space
	}()

	mode := "e2e"
	if traced {
		mode = "trace"
	}
	fmt.Printf("%s  seed=%d  seconds=%g  mode=%s  C=%d  %s\n", w.name, seed, seconds, mode, e.c, describeHost())
	var rep *report
	if traced {
		rep, err = runTraced(e, w, seconds, buildTime.Seconds())
	} else {
		rep, err = runE2E(e, w, seconds)
	}
	if rep == nil {
		return nil, err
	}
	for _, p := range e.procs {
		if p.alive() {
			rep.Correct = false
			if err == nil {
				err = fmt.Errorf("a child process outlived its workload")
			}
		}
	}
	if werr := writeResult(root, w.name, seed, mode, rep); werr != nil && err == nil {
		err = werr
	}
	return rep, err
}

// stopAll is the backstop behind every instance's close: no child survives
// the run, whatever path it ended on.
func (e *env) stopAll() {
	for _, p := range e.procs {
		p.stop()
	}
}

// runE2E sets the workload up several times, measures the last set-up with
// tracing off and reports every end-to-end metric.
func runE2E(e *env, w workloadDef, seconds float64) (*report, error) {
	var setups, untaken, setupsWall []float64
	var in instance
	kern := newRefKernel()
	begun, stolen := time.Now(), hostSteal()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(begun) < setupBudget); i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
			// An embedded exchange lives in this process: collect the discarded
			// set-up now, so that peak_rss_mb is the measured set-up's high-water
			// mark and not a matter of when the collector got to its predecessors.
			runtime.GC()
		}
		t0, stolen0 := time.Now(), hostSteal()
		var err error
		if in, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		// Like the timed gates of the window: at reference host speed (the
		// host's slowdown is read as the set-up ends), and a set-up the
		// hypervisor took CPU time from counts only when it took from all.
		wall := time.Since(t0).Seconds()
		setupsWall = append(setupsWall, wall)
		setups = append(setups, wall/kern.slowdownNow())
		if (hostSteal()-stolen0)/(wall*float64(runtime.NumCPU())) <= stealLimit {
			untaken = append(untaken, setups[i])
		}
	}
	if len(untaken) > 0 {
		setups = untaken
	}
	defer in.close() //nolint:errcheck // closed explicitly on the success path; closing twice is harmless
	awaitHost(stolen, begun)
	steal := hostSteal()
	m, err := in.measure(time.Duration(seconds*float64(time.Second)), nil)
	steal = hostSteal() - steal
	if m == nil {
		return nil, err
	}
	rss := 0.0
	for _, pid := range in.pids() {
		mib, rerr := peakRSSMiB(pid)
		if rerr != nil && err == nil {
			err = rerr
		}
		rss += mib
	}
	if err == nil {
		err = m.firstErr()
	}
	if f, ok := in.(fixturer); ok && err == nil {
		_, err = f.fixture()
	}
	if cerr := in.close(); err == nil {
		err = cerr
	}
	// The three timed gates are reported at reference host speed (rec.go);
	// what the wall clock said is printed beside them.
	values := map[string]float64{
		"bids_per_s":    m.load.bidsPerSRef(),
		"submit_p50_ms": m.load.pctRef(opSubmit, 0.5),
		"close_p50_ms":  m.load.pctRef(opClose, 0.5),
		"peak_rss_mb":   rss,
		"setup_s":       median(setups),
	}
	fmt.Printf("closed loop %v: %d bids, %d rounds, %d ops; bids per 1 s slice %v\n", m.load.window, m.load.bids, m.load.rounds, m.load.ops, m.load.bidSlices)
	fmt.Printf("  by the wall clock: bids_per_s %.6g, submit_p50_ms %.6g, close_p50_ms %.6g, setup_s %.6g; the reference kernel took %.0f ns (%.2f times its nominal %.0f ns)\n",
		m.load.bidsPerS(), m.load.pct(opSubmit, 0.5), m.load.pct(opClose, 0.5), median(setupsWall), m.load.kernelNs, m.load.kernelNs/refNominalNs, refNominalNs)
	if left := m.load.window - m.load.kept; left > 0 {
		fmt.Printf("  %.1f s of the window left out of the timed gates: the hypervisor took over %.0f%% of the CPU time in them\n", left.Seconds(), stealLimit*100)
	}
	for k := opKind(0); k < numOps; k++ {
		if len(m.load.lat[k]) > 0 {
			fmt.Println("  " + m.load.describe(k))
		}
	}
	// Not a metric, but the first thing to look at when a run reads slow.
	fmt.Printf("  hypervisor steal during the window: %.1f%% of the machine's CPU time\n", steal/(seconds*float64(runtime.NumCPU()))*100)
	if m.open != nil {
		fmt.Printf("  open loop at %d ops/s, timed from due time: generator lateness p50=%.4fms p99=%.4fms\n",
			openLoopOps, percentile(m.open.late, 0.5), percentile(m.open.late, 0.99))
		fmt.Println("    " + m.open.describe(opSubmit))
		fmt.Println("    " + m.open.describe(opClose))
	}
	rep := newReport(endToEnd, values, m.attempted(), m.failed())
	if err != nil {
		rep.Correct = false
	}
	return rep, err
}

// awaitHost holds the run back while the hypervisor is in an episode of
// taking the machine's CPU time away: when more than stealLimit of it was
// stolen since since (the set-ups), it waits for the first second that is
// back under the limit, and no longer than stealWait. A window measured
// inside an episode reads up to three times slower than the program is
// (README, "Reference host speed"); an episode lasts tens of seconds to a
// few minutes, so the wait gets this run, or the next, out of it.
func awaitHost(stolen float64, since time.Time) {
	cpus := float64(runtime.NumCPU())
	share := (hostSteal() - stolen) / (time.Since(since).Seconds() * cpus)
	begun := time.Now()
	for share > stealLimit && time.Since(begun) < stealWait {
		stolen, since = hostSteal(), time.Now()
		time.Sleep(time.Second)
		share = (hostSteal() - stolen) / (time.Since(since).Seconds() * cpus)
	}
	if waited := time.Since(begun); waited > time.Second/2 {
		fmt.Printf("waited %.0f s for the hypervisor to give the CPUs back (last second: %.1f%% stolen)\n", waited.Seconds(), share*100)
	}
}

// runTraced runs the ladder and reports every per-layer metric.
func runTraced(e *env, w workloadDef, seconds, buildS float64) (*report, error) {
	tr := newTracer()
	values, attempted, failed, err := runLadder(e, w, seconds, buildS, tr)
	if values == nil {
		return nil, err
	}
	path := filepath.Join(e.root, "bench", "out", "trace-"+w.name+".json")
	if werr := tr.write(path, hostInfo(e.root)); werr != nil && err == nil {
		err = werr
	}
	fmt.Printf("%d spans written to %s\n", len(tr.spans), path)
	rep := newReport(perLayer, values, attempted, failed)
	if err != nil {
		rep.Correct = false
	}
	return rep, err
}

// newReport assembles the output object for the declared metrics and prints
// them by name and unit. A declared metric without a finite value makes the
// run incorrect: the contract is every metric, every run.
func newReport(defs []metricDef, values map[string]float64, attempted, failed int64) *report {
	rep := &report{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	fmt.Printf("attempted=%d failed=%d\n", attempted, failed)
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Printf("  %-36s MISSING\n", d.name)
			rep.Correct = false
			v = 0
		} else {
			fmt.Printf("  %-36s %14.6g %s\n", d.name, v, d.unit)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return rep
}

// hostInfo is what every result and trace file records about where it ran.
func hostInfo(root string) map[string]any {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root)) // never look above the checkout
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
		"load_shape": loadShape(),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("model name")); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(string(rest)), ":"))
		}
	}
	return "unknown"
}

func describeHost() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

// writeResult keeps the run's report, with the host it ran on, under
// bench/out.
func writeResult(root, workload string, seed int64, mode string, rep *report) error {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(map[string]any{
		"workload": workload, "seed": seed, "mode": mode, "host": hostInfo(root), "report": rep, "claim": nil,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%s-%s-seed%d.json", workload, mode, seed)), raw, 0o644)
}

// runRepeat runs sets of runs — every workload (or just the named one) —
// each run a fresh process with its own seed, as the driver runs them, and
// prints per metric and workload the median and the spread (interquartile
// range over median; the full range below four sets). With check it
// returns 1 when a spread exceeds the metric's bound.
func runRepeat(only string, seed int64, seconds float64, sets int, check bool) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	breached := false
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		series := map[string][]float64{}
		for s := 0; s < sets; s++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed+int64(s)), "-seconds", fmt.Sprint(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if jerr := json.Unmarshal(lines[len(lines)-1], &rep); err != nil || jerr != nil || !rep.Correct {
				fmt.Printf("%s set %d FAILED: %v %v\n%s\n", w.name, s+1, err, jerr, out)
				return 1
			}
			for name, mv := range rep.Metrics {
				series[name] = append(series[name], mv.Value)
			}
		}
		fmt.Printf("%s, %d sets\n", w.name, sets)
		for _, d := range endToEnd {
			vs := series[d.name]
			sp := spread(vs)
			verdict := "PASS"
			// setup_s is exempt from the spread rule (its bound guards the
			// median between two sets of runs), as in the driver.
			if sp > d.bound && d.name != "setup_s" {
				verdict, breached = "FAIL", true
			}
			fmt.Printf("  %-16s median %14.6g %-4s spread %6.2f%%  bound %4.0f%%  %s\n",
				d.name, median(append([]float64(nil), vs...)), d.unit, sp*100, d.bound*100, verdict)
		}
	}
	if check && breached {
		return 1
	}
	return 0
}
