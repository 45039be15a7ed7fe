// Package fault is a deterministic failpoint framework: named injection
// sites compiled permanently into hot paths, disabled by default, and
// switched on by tests, the chaos harness, or an operator via the
// FMORE_FAILPOINTS environment variable.
//
// The design premise is that failure handling is code like any other code
// and deserves the same always-compiled, always-testable treatment — but
// must cost nothing when dormant. A disabled failpoint is one atomic
// pointer load and a predictable branch: zero allocations, no locks, no
// map lookups (BenchmarkFailpointDisabled pins this). Sites therefore stay
// in production builds; there is no build tag to forget.
//
// # Declaring and firing
//
// A site is a package-level var:
//
//	var fpWalFsync = fault.New("wal/fsync")
//
// and the hot path consults it where the real failure would surface:
//
//	if err := fpWalFsync.Fire(); err != nil {
//		return err
//	}
//	err := f.Sync()
//
// Fire returns nil unless the failpoint is enabled and its trigger says
// this call fails; then it returns the configured error (optionally after
// a configured latency). Cut is the variant for write paths: it bounds how
// many bytes the caller may hand to the real write, modelling torn/short
// writes that leave a partial frame on disk.
//
// # Triggers
//
// A Config selects when an enabled failpoint fires: on the Nth call
// (optionally sticky — every call from the Nth on), with a seeded
// probability per call, or — when neither is set — on every call.
// Probability draws use the configured seed, so a chaos run is
// reproducible from its spec string.
//
// # Spec strings
//
// EnableSpecs parses a compact operator-facing form, one or more
// semicolon-separated entries:
//
//	name=kind[:arg][@trigger]
//
// kinds:     eio | enospc | torn:<bytes> | lat:<duration>
// triggers:  @<n>   fire on the nth call only
//
//	@<n>+  fire on the nth call and every call after (sticky)
//	@p<f>  fire each call with probability f (seeded)
//
// e.g. FMORE_FAILPOINTS="wal/fsync=eio@3+;wal/write=torn:9@5" makes the
// third and later fsyncs fail with EIO and tears the fifth frame write
// after 9 bytes. EnableFromEnv applies the variable at process start.
package fault

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Injected error kinds. Both wrap the real syscall errno so callers'
// errors.Is(err, syscall.ENOSPC) checks treat injected and genuine disk
// errors identically — the point of injection is to exercise exactly the
// production handling path.
var (
	// ErrIO is the injected generic I/O failure (wraps syscall.EIO).
	ErrIO = fmt.Errorf("fault: injected I/O error: %w", syscall.EIO)
	// ErrNoSpace is the injected disk-full failure (wraps syscall.ENOSPC).
	ErrNoSpace = fmt.Errorf("fault: injected no space left on device: %w", syscall.ENOSPC)
)

// Config describes when an enabled failpoint fires and what it injects.
type Config struct {
	// Err is the injected error (required; use ErrIO/ErrNoSpace for disk
	// kinds, or any error for custom sites).
	Err error
	// Nth fires on the Nth Fire/Cut call after Enable (1-based). Zero
	// means "not call-counted": every call fires (unless Prob is set).
	Nth int64
	// Sticky extends Nth: fire on call Nth and every call after it,
	// modelling a device that stays broken once it breaks.
	Sticky bool
	// Prob fires each call independently with this probability, drawn
	// from a rng seeded with Seed. Takes precedence over Nth.
	Prob float64
	// Seed seeds the Prob rng (0 is a valid, fixed seed).
	Seed int64
	// Latency is slept before returning the injected error — and, when
	// Err is nil, before returning success: a pure latency fault.
	Latency time.Duration
	// Torn bounds Cut: a firing Cut allows min(Torn, n) bytes through and
	// returns Err, modelling a short write that leaves a partial record.
	// Zero means the firing Cut allows nothing through.
	Torn int
}

// state is the enabled-side payload behind the failpoint's atomic pointer.
// It is immutable after Enable except for the call counter and the
// mutex-guarded rng; Disable swaps the whole pointer back to nil.
type state struct {
	cfg   Config
	calls atomic.Int64
	rngMu sync.Mutex
	rng   *rand.Rand
}

// Failpoint is one named injection site. The zero value is not usable;
// create sites with New at package init.
type Failpoint struct {
	name  string
	fired atomic.Int64
	st    atomic.Pointer[state]
}

// registry maps names to sites for Enable-by-name (specs, env, tests).
var (
	regMu    sync.Mutex
	registry = map[string]*Failpoint{}
)

// New registers a failpoint under a unique name and returns it. It is
// meant for package-level var initialization; a duplicate name is a
// programming error and panics.
func New(name string) *Failpoint {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("fault: duplicate failpoint %q", name))
	}
	fp := &Failpoint{name: name}
	registry[name] = fp
	return fp
}

// Name returns the failpoint's registered name.
func (fp *Failpoint) Name() string { return fp.name }

// Fired returns how many times the failpoint has fired since process
// start. The counter survives Disable, so a test can enable, run, disable
// and then assert the site was actually reached.
func (fp *Failpoint) Fired() int64 { return fp.fired.Load() }

// Fire returns the injected error if the failpoint is enabled and its
// trigger selects this call, nil otherwise. The disabled path is a single
// atomic load.
func (fp *Failpoint) Fire() error {
	st := fp.st.Load()
	if st == nil {
		return nil
	}
	return fp.eval(st)
}

// Cut is Fire for write paths: the caller is about to write n bytes and
// must write at most the returned count. Disabled or not-firing calls
// allow all n bytes with a nil error; a firing call allows min(Torn, n)
// bytes — the torn prefix that reaches the disk — and returns the
// injected error.
func (fp *Failpoint) Cut(n int) (allowed int, err error) {
	st := fp.st.Load()
	if st == nil {
		return n, nil
	}
	if err := fp.eval(st); err != nil {
		allowed = st.cfg.Torn
		if allowed > n {
			allowed = n
		}
		return allowed, err
	}
	return n, nil
}

// eval applies the trigger for one call against an enabled state.
func (fp *Failpoint) eval(st *state) error {
	calls := st.calls.Add(1)
	fire := false
	switch {
	case st.cfg.Prob > 0:
		st.rngMu.Lock()
		fire = st.rng.Float64() < st.cfg.Prob
		st.rngMu.Unlock()
	case st.cfg.Nth > 0:
		if st.cfg.Sticky {
			fire = calls >= st.cfg.Nth
		} else {
			fire = calls == st.cfg.Nth
		}
	default:
		fire = true
	}
	if !fire {
		return nil
	}
	fp.fired.Add(1)
	if st.cfg.Latency > 0 {
		time.Sleep(st.cfg.Latency)
	}
	return st.cfg.Err
}

// enable arms the failpoint with cfg, resetting its call counter.
func (fp *Failpoint) enable(cfg Config) {
	st := &state{cfg: cfg}
	if cfg.Prob > 0 {
		st.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	fp.st.Store(st)
}

// disable returns the failpoint to the zero-cost dormant path.
func (fp *Failpoint) disable() { fp.st.Store(nil) }

// Enable arms the named failpoint with cfg. A Config with a nil Err and
// no Latency is rejected — it would inject nothing — and so is a Prob that
// is NaN or outside [0, 1]: eval would not read it as a probability and
// would fire on every call instead.
func Enable(name string, cfg Config) error {
	if cfg.Err == nil && cfg.Latency <= 0 {
		return fmt.Errorf("fault: enable %q: config injects neither an error nor latency", name)
	}
	if !(cfg.Prob >= 0 && cfg.Prob <= 1) {
		return fmt.Errorf("fault: enable %q: probability %v is not in [0, 1]", name, cfg.Prob)
	}
	regMu.Lock()
	fp, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return fmt.Errorf("fault: unknown failpoint %q", name)
	}
	fp.enable(cfg)
	return nil
}

// Disable returns the named failpoint to its dormant state. Unknown names
// are a no-op: disabling is idempotent cleanup.
func Disable(name string) {
	regMu.Lock()
	fp := registry[name]
	regMu.Unlock()
	if fp != nil {
		fp.disable()
	}
}

// DisableAll disarms every registered failpoint (test cleanup).
func DisableAll() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, fp := range registry {
		fp.disable()
	}
}

// Names returns all registered failpoint names, sorted (diagnostics).
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// EnableSpecs parses and applies a spec string (see the package comment
// for the grammar). Entries apply left to right; the first bad entry
// aborts with an error naming it, leaving earlier entries applied.
func EnableSpecs(specs string) error {
	for _, entry := range strings.Split(specs, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rhs, ok := strings.Cut(entry, "=")
		if !ok || name == "" || rhs == "" {
			return fmt.Errorf("fault: bad spec %q: want name=kind[:arg][@trigger]", entry)
		}
		cfg, err := parseSpecRHS(rhs)
		if err != nil {
			return fmt.Errorf("fault: bad spec %q: %w", entry, err)
		}
		if err := Enable(name, cfg); err != nil {
			return err
		}
	}
	return nil
}

// parseSpecRHS parses "kind[:arg][@trigger]" into a Config.
func parseSpecRHS(rhs string) (Config, error) {
	var cfg Config
	kind, trigger, _ := strings.Cut(rhs, "@")
	kind, arg, hasArg := strings.Cut(kind, ":")
	switch kind {
	case "eio":
		cfg.Err = ErrIO
	case "enospc":
		cfg.Err = ErrNoSpace
	case "torn":
		if !hasArg {
			return cfg, fmt.Errorf("torn needs a byte count (torn:<bytes>)")
		}
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			return cfg, fmt.Errorf("bad torn byte count %q", arg)
		}
		cfg.Err = ErrIO
		cfg.Torn = n
		hasArg = false
	case "lat":
		if !hasArg {
			return cfg, fmt.Errorf("lat needs a duration (lat:<duration>)")
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			return cfg, fmt.Errorf("bad latency %q", arg)
		}
		cfg.Latency = d
		hasArg = false
	default:
		return cfg, fmt.Errorf("unknown kind %q (want eio|enospc|torn:<bytes>|lat:<duration>)", kind)
	}
	if hasArg {
		return cfg, fmt.Errorf("kind %q takes no argument", kind)
	}
	if trigger != "" {
		if err := parseTrigger(trigger, &cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// parseTrigger parses "<n>", "<n>+" or "p<f>" into cfg.
func parseTrigger(trigger string, cfg *Config) error {
	if f, ok := strings.CutPrefix(trigger, "p"); ok {
		p, err := strconv.ParseFloat(f, 64)
		if err != nil || !(p > 0 && p <= 1) { // NaN fails both comparisons
			return fmt.Errorf("bad probability %q (want 0 < p <= 1)", trigger)
		}
		cfg.Prob = p
		cfg.Seed = 1
		return nil
	}
	nStr, sticky := strings.CutSuffix(trigger, "+")
	n, err := strconv.ParseInt(nStr, 10, 64)
	if err != nil || n < 1 {
		return fmt.Errorf("bad trigger %q (want <n>, <n>+ or p<f>)", trigger)
	}
	cfg.Nth = n
	cfg.Sticky = sticky
	return nil
}

// EnvVar is the environment variable EnableFromEnv reads.
const EnvVar = "FMORE_FAILPOINTS"

// EnableFromEnv applies the FMORE_FAILPOINTS spec string, if set. Binaries
// call it once at startup so chaos harnesses can arm failpoints in child
// processes without any flag plumbing.
func EnableFromEnv() error {
	specs := os.Getenv(EnvVar)
	if specs == "" {
		return nil
	}
	return EnableSpecs(specs)
}
