package fault

import (
	"errors"
	"math"
	"syscall"
	"testing"
	"time"
)

// tp creates a uniquely named test failpoint and disarms it on cleanup.
func tp(t *testing.T) *Failpoint {
	t.Helper()
	fp := New("test/" + t.Name())
	t.Cleanup(fp.disable)
	return fp
}

func TestDisabledFires(t *testing.T) {
	fp := tp(t)
	for i := 0; i < 3; i++ {
		if err := fp.Fire(); err != nil {
			t.Fatalf("disabled Fire returned %v", err)
		}
	}
	if n, err := fp.Cut(100); n != 100 || err != nil {
		t.Fatalf("disabled Cut = (%d, %v), want (100, nil)", n, err)
	}
	if fp.Fired() != 0 {
		t.Fatalf("Fired = %d on a disabled failpoint", fp.Fired())
	}
}

func TestEveryCall(t *testing.T) {
	fp := tp(t)
	fp.enable(Config{Err: ErrIO})
	for i := 0; i < 3; i++ {
		if err := fp.Fire(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("call %d: err = %v, want EIO", i, err)
		}
	}
	if fp.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", fp.Fired())
	}
	fp.disable()
	if err := fp.Fire(); err != nil {
		t.Fatalf("Fire after disable = %v", err)
	}
	if fp.Fired() != 3 {
		t.Fatalf("Fired counter reset by disable: %d", fp.Fired())
	}
}

func TestNthOnce(t *testing.T) {
	fp := tp(t)
	fp.enable(Config{Err: ErrNoSpace, Nth: 3})
	var got []bool
	for i := 0; i < 5; i++ {
		got = append(got, fp.Fire() != nil)
	}
	want := []bool{false, false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d fired=%v, want %v", i+1, got[i], want[i])
		}
	}
}

func TestNthSticky(t *testing.T) {
	fp := tp(t)
	fp.enable(Config{Err: ErrIO, Nth: 2, Sticky: true})
	want := []bool{false, true, true, true}
	for i := range want {
		if fired := fp.Fire() != nil; fired != want[i] {
			t.Fatalf("call %d fired=%v, want %v", i+1, fired, want[i])
		}
	}
}

func TestProbabilitySeeded(t *testing.T) {
	run := func() []bool {
		fp := New("test/prob/" + t.Name() + time.Now().Format("150405.000000000"))
		defer fp.disable()
		fp.enable(Config{Err: ErrIO, Prob: 0.5, Seed: 42})
		out := make([]bool, 32)
		for i := range out {
			out[i] = fp.Fire() != nil
		}
		return out
	}
	a, b := run(), run()
	var fires int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded probability not reproducible at call %d", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("p=0.5 over %d calls fired %d times", len(a), fires)
	}
}

func TestCutTorn(t *testing.T) {
	fp := tp(t)
	fp.enable(Config{Err: ErrIO, Torn: 9, Nth: 2, Sticky: true})
	if n, err := fp.Cut(100); n != 100 || err != nil {
		t.Fatalf("call 1: Cut = (%d, %v), want (100, nil)", n, err)
	}
	if n, err := fp.Cut(100); n != 9 || !errors.Is(err, syscall.EIO) {
		t.Fatalf("call 2: Cut = (%d, %v), want (9, EIO)", n, err)
	}
	// Torn larger than the write: the whole write goes through but the
	// error still surfaces.
	if n, err := fp.Cut(4); n != 4 || err == nil {
		t.Fatalf("call 3: Cut = (%d, %v), want (4, err)", n, err)
	}
}

func TestCutTornZero(t *testing.T) {
	fp := tp(t)
	fp.enable(Config{Err: ErrNoSpace})
	if n, err := fp.Cut(50); n != 0 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Cut = (%d, %v), want (0, ENOSPC)", n, err)
	}
}

func TestLatencyOnly(t *testing.T) {
	fp := tp(t)
	fp.enable(Config{Latency: 20 * time.Millisecond})
	start := time.Now()
	if err := fp.Fire(); err != nil {
		t.Fatalf("latency-only Fire returned %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("Fire returned after %v, want >= 20ms", d)
	}
	if fp.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", fp.Fired())
	}
}

func TestEnableValidation(t *testing.T) {
	if err := Enable("no/such/failpoint", Config{Err: ErrIO}); err == nil {
		t.Fatal("Enable on unknown name succeeded")
	}
	fp := tp(t)
	if err := Enable(fp.Name(), Config{}); err == nil {
		t.Fatal("Enable with empty config succeeded")
	}
	if err := Enable(fp.Name(), Config{Err: ErrIO, Nth: 1}); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	Disable(fp.Name())
	if err := fp.Fire(); err != nil {
		t.Fatalf("Fire after Disable = %v", err)
	}
	Disable("no/such/failpoint") // idempotent no-op
}

func TestEnableSpecs(t *testing.T) {
	a, b, c := tp(t), New("test/"+t.Name()+"/b"), New("test/"+t.Name()+"/c")
	t.Cleanup(b.disable)
	t.Cleanup(c.disable)
	spec := a.Name() + "=eio@2+; " + b.Name() + "=torn:7@3 ;" + c.Name() + "=enospc"
	if err := EnableSpecs(spec); err != nil {
		t.Fatalf("EnableSpecs: %v", err)
	}
	if err := a.Fire(); err != nil {
		t.Fatalf("a call 1 fired: %v", err)
	}
	if err := a.Fire(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("a call 2 = %v, want EIO", err)
	}
	if err := a.Fire(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("a call 3 (sticky) = %v, want EIO", err)
	}
	b.Fire()
	b.Fire()
	if n, err := b.Cut(100); n != 7 || err == nil {
		t.Fatalf("b call 3: Cut = (%d, %v), want (7, err)", n, err)
	}
	if err := c.Fire(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("c = %v, want ENOSPC", err)
	}
}

func TestEnableSpecsLatency(t *testing.T) {
	fp := tp(t)
	if err := EnableSpecs(fp.Name() + "=lat:5ms"); err != nil {
		t.Fatalf("EnableSpecs: %v", err)
	}
	start := time.Now()
	if err := fp.Fire(); err != nil {
		t.Fatalf("Fire = %v", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("latency spec not applied")
	}
}

func TestEnableSpecsErrors(t *testing.T) {
	fp := tp(t)
	for _, bad := range []string{
		"justaname",
		fp.Name() + "=",
		fp.Name() + "=frob",
		fp.Name() + "=torn",
		fp.Name() + "=eio:5",
		fp.Name() + "=lat:xyz",
		fp.Name() + "=eio@0",
		fp.Name() + "=eio@p2.0",
		fp.Name() + "=eio@junk",
		"no/such/point=eio",
	} {
		if err := EnableSpecs(bad); err == nil {
			t.Errorf("EnableSpecs(%q) succeeded", bad)
		}
	}
}

// TestProbabilityOutOfRangeRejected is the regression test for a NaN
// probability: "@pNaN" used to parse (NaN passes both p <= 0 and p > 1
// false), and eval, which reads only Prob > 0 as probabilistic, then fired
// the failpoint on every call. Both entry points must refuse such a
// probability and leave the failpoint dormant.
func TestProbabilityOutOfRangeRejected(t *testing.T) {
	fp := tp(t)
	for _, trigger := range []string{"pNaN", "pnan", "p-NaN", "p0", "p-0", "p-0.5", "p1.5", "pInf", "p+Inf"} {
		if err := EnableSpecs(fp.Name() + "=eio@" + trigger); err == nil {
			t.Errorf("EnableSpecs with @%s succeeded", trigger)
		}
	}
	for _, p := range []float64{math.NaN(), -0.1, 1.5, math.Inf(1), math.Inf(-1)} {
		if err := Enable(fp.Name(), Config{Err: ErrIO, Prob: p}); err == nil {
			t.Errorf("Enable with Prob %v succeeded", p)
		}
	}
	for i := 0; i < 8; i++ {
		if err := fp.Fire(); err != nil {
			t.Fatalf("a refused spec armed the failpoint: call %d = %v", i+1, err)
		}
	}
	// The ends of the accepted ranges still arm.
	if err := EnableSpecs(fp.Name() + "=eio@p1"); err != nil {
		t.Errorf("EnableSpecs with @p1: %v", err)
	}
	if err := Enable(fp.Name(), Config{Err: ErrIO, Prob: 0}); err != nil {
		t.Errorf("Enable with Prob 0: %v", err)
	}
}

// fuzzPoints are the failpoints FuzzEnableSpecs arms; package-level because
// New panics on a duplicate name and the fuzz function may run more than
// once in a process.
var fuzzPoints = [...]*Failpoint{New("fuzz/a"), New("fuzz/b")}

// FuzzEnableSpecs feeds arbitrary spec strings to EnableSpecs. It must not
// panic, and every failpoint it armed — entries before a bad one stay
// applied — must hold a Config that injects something and whose trigger
// eval reads as written: Prob 0 or in (0, 1], Nth and Torn not negative.
func FuzzEnableSpecs(f *testing.F) {
	for _, seed := range []string{
		"wal/fsync=eio@3+;wal/write=torn:9@5", // the package comment's example
		"fuzz/a=eio@3+;fuzz/b=torn:9@5",
		"fuzz/a=eio@pNaN",
		"fuzz/a=eio@pnan",
		"fuzz/a=enospc@p0.25; fuzz/b=lat:5ms",
		"fuzz/b=lat:1h@1",
		"fuzz/a=torn:0@p1",
		"fuzz/a=eio@p1e-300;fuzz/b=eio@0x10+",
		"fuzz/a=eio;bad;fuzz/b=eio",
		" ; fuzz/a = eio ;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, specs string) {
		defer DisableAll()
		_ = EnableSpecs(specs) // an error is fine; a panic or a bad arm is not
		regMu.Lock()
		defer regMu.Unlock()
		for name, fp := range registry {
			st := fp.st.Load()
			if st == nil {
				continue
			}
			cfg := st.cfg
			if cfg.Err == nil && cfg.Latency <= 0 {
				t.Errorf("%q armed %s with a config that injects nothing", specs, name)
			}
			if cfg.Prob != 0 && !(cfg.Prob > 0 && cfg.Prob <= 1) {
				t.Errorf("%q armed %s with probability %v", specs, name, cfg.Prob)
			}
			if cfg.Nth < 0 || cfg.Torn < 0 {
				t.Errorf("%q armed %s with Nth %d, Torn %d", specs, name, cfg.Nth, cfg.Torn)
			}
		}
	})
}

func TestEnableFromEnv(t *testing.T) {
	fp := tp(t)
	t.Setenv(EnvVar, fp.Name()+"=eio")
	if err := EnableFromEnv(); err != nil {
		t.Fatalf("EnableFromEnv: %v", err)
	}
	if err := fp.Fire(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Fire = %v, want EIO", err)
	}
	t.Setenv(EnvVar, "")
	DisableAll()
	if err := EnableFromEnv(); err != nil {
		t.Fatalf("EnableFromEnv with empty var: %v", err)
	}
	if err := fp.Fire(); err != nil {
		t.Fatalf("Fire after DisableAll = %v", err)
	}
}

func TestNames(t *testing.T) {
	fp := tp(t)
	found := false
	for _, name := range Names() {
		if name == fp.Name() {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() missing %q", fp.Name())
	}
}

func TestDuplicatePanics(t *testing.T) {
	fp := tp(t)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate New did not panic")
		}
	}()
	New(fp.Name())
}

// benchFP is package-level because the testing framework re-runs the
// benchmark body with growing N, and New panics on a duplicate name.
var benchFP = New("bench/disabled")

// BenchmarkFailpointDisabled pins the zero-cost claim for dormant sites:
// one atomic load, zero allocations.
func BenchmarkFailpointDisabled(b *testing.B) {
	fp := benchFP
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := fp.Fire(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
