package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what every workload needs from the process: where the programs
// under test were built, a private scratch directory, and the load shape.
type env struct {
	root   string // checkout root (holds BENCHMARK.json and the module)
	binDir string // built fmore-exchange and fmore-router
	tmp    string // this run's scratch directory, removed on exit
	seed   int64
	c      int  // worker goroutines and client connections
	small  bool // smoke scale (tests)

	// Set-up and teardown run on one goroutine, so these need no lock.
	procs []*proc // every child ever started, for the leak check
	dirs  int     // scratch subdirectories handed out
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "fmore-exchange")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (BENCHMARK.json beside cmd/fmore-exchange) above the working directory")
		}
		dir = parent
	}
}

// buildServers compiles the programs under test into binDir and returns
// how long the (usually cached) build took. Nothing but `go build` of the
// repository's own commands: no flag, tag or environment is added.
func buildServers(root, binDir string) (time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/fmore-exchange", "./cmd/fmore-router")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("building the programs under test: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// scratch returns a fresh empty directory under the run's scratch root.
func (e *env) scratch(name string) (string, error) {
	e.dirs++
	dir := filepath.Join(e.tmp, fmt.Sprintf("%s-%d", name, e.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// proc is one spawned program under test.
type proc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been reaped
	tail *tailBuf      // last stderr lines, for failure reports
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// tailBuf keeps the last few log lines of a child.
type tailBuf struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuf) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuf) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// spawn starts bin and waits for it to announce its listen address.
func (e *env) spawn(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(filepath.Join(e.binDir, bin), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{}), tail: &tailBuf{}}
	e.procs = append(e.procs, p)
	addrCh := make(chan string, 1)
	go func() {
		// Drain the log for the process's whole life so it never blocks on
		// a full pipe; Wait only after the pipe hits EOF, as os/exec asks.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.tail.add(line)
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		cmd.Wait() //nolint:errcheck // exit status of a signalled child is not an error here
		close(p.done)
	}()
	select {
	case addr := <-addrCh:
		p.url = "http://" + addr
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening:\n%s", bin, p.tail)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not announce its address within 30s:\n%s", bin, p.tail)
	}
}

// stop terminates the process (SIGTERM, then SIGKILL after 10s) and returns
// once it has been reaped. Safe to call more than once.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-p.done
	}
}

// alive reports whether the process has not been reaped yet.
func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// freePort reserves an ephemeral loopback port and releases it for a child
// to claim: partitioned replicas need their URLs before they start, because
// the cluster map embeds them.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close() //nolint:errcheck // released for reuse
	return l.Addr().(*net.TCPAddr).Port, nil
}

// --- /proc readers -----------------------------------------------------------

// procPath names a /proc file of pid (0 = this process).
func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// procField returns the integer after "key:" in a /proc key-value file.
func procField(pid int, file, key string) (int64, error) {
	raw, err := os.ReadFile(procPath(pid, file))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(key+":")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(string(f[0]), 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s field", procPath(pid, file), key)
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB(pid int) (float64, error) {
	kb, err := procField(pid, "status", "VmHWM")
	return float64(kb) / 1024, err
}

// cpuSeconds is the user+system CPU time the process has consumed.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis: utime and stime are the 12th and 13th after.
	i := bytes.LastIndexByte(raw, ')')
	f := bytes.Fields(raw[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("%s: unexpected format", procPath(pid, "stat"))
	}
	ut, err1 := strconv.ParseInt(string(f[11]), 10, 64)
	st, err2 := strconv.ParseInt(string(f[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: unexpected format", procPath(pid, "stat"))
	}
	const userHz = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return float64(ut+st) / userHz, nil
}

// hostSteal returns the CPU seconds the hypervisor has withheld from this
// machine since boot (the steal column of /proc/stat); 0 where the kernel
// does not account it.
func hostSteal() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(string(f[8]), 10, 64) // "cpu" user nice system idle iowait irq softirq steal
	return float64(ticks) / 100
}

// ioCounters returns the bytes the process passed to write-family syscalls
// (wchar) and how many such syscalls it made (syscw).
func ioCounters(pid int) (wchar, syscw int64, err error) {
	if wchar, err = procField(pid, "io", "wchar"); err != nil {
		return 0, 0, err
	}
	syscw, err = procField(pid, "io", "syscw")
	return wchar, syscw, err
}
