package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// opKind names one operation of a workload's stream.
type opKind uint8

const (
	opSubmit opKind = iota // one sealed bid
	opClose                // close the collecting round
	opRead                 // one winner reading its outcome
	opPage                 // one page of retained outcomes
	opSync                 // wait for the outcome log to be durable
	numOps
)

var opNames = [numOps]string{"submit", "close", "read", "page", "sync"}

// sliceDur is the slice the human report breaks a window's bids into, so a
// stall or a slow episode can be seen; the reported rate is over the whole
// window.
const sliceDur = time.Second

// span is one traced interval, recorded by the benchmark around a public
// call into a layer. Times are nanoseconds since the tracer started; Parent
// is the ID of the span that caused this one (0 = none); Bid identifies the
// request so spans of one request can be joined; N > 1 marks a batch span
// covering N calls (nanosecond-scale layers are timed in batches).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Bid    int64  `json:"bid"`
	N      int    `json:"n,omitempty"`
}

// maxSpansPerRecorder bounds what one worker keeps in memory; a traced run
// is short, so this is a backstop against a runaway in-process loop, and
// the count of spans dropped past it is written with the trace.
const maxSpansPerRecorder = 1 << 18

// tracer hands out span IDs and the trace epoch. Workers append spans to
// their own recorder; nothing is shared on the hot path but the ID counter
// block each recorder reserves up front.
type tracer struct {
	epoch   time.Time
	nextID  int64
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// block reserves n span IDs for one recorder.
func (t *tracer) block(n int64) int64 {
	first := t.nextID + 1
	t.nextID += n
	return first
}

// add records one span directly on the tracer (single-goroutine rungs).
func (t *tracer) add(name string, parent int64, start, end time.Time, bid int64, n int) int64 {
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Bid: bid, N: n})
	return t.nextID
}

// write dumps the trace as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	doc := map[string]any{"meta": meta, "dropped_spans": t.dropped, "spans": t.spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// recorder is one worker's private measurement state: raw latency samples
// per operation kind, open-loop lateness, per-slice bid counts, the host's
// speed and steal counter per slice (see "Host speed" below), failure
// accounting and (traced runs only) spans. Workers never share one, so the
// measured path takes no lock; merge folds them after the workers exit.
type recorder struct {
	start     time.Time
	lat       [numOps][]float64 // milliseconds
	latSlice  [numOps][]uint16  // the slice each sample ended in
	late      []float64         // milliseconds, open-loop phases only
	bidSlices []int64           // accepted bids per sliceDur since start
	ref       [][]float64       // per slice: reference-kernel timings, nanoseconds
	kern      *refKernel
	submits   int
	steal     []float64 // the host's steal counter when the worker entered each slice
	cur       int       // the slice the worker is in
	// stolenNow reads the host's steal counter; tests substitute a fake one.
	stolenNow func() float64
	ops       int64 // operations completed (all kinds)
	bids      int64 // accepted bids
	rounds    int64 // closed rounds
	attempted int64
	failed    int64
	firstErr  error

	tr      *tracer
	spans   []span
	firstID int64 // spans[i].ID == firstID+i
	lastID  int64
	dropped int64
}

func newRecorder(start time.Time, window time.Duration, tr *tracer) *recorder {
	slices := int(window/sliceDur) + 1
	r := &recorder{start: start, tr: tr, bidSlices: make([]int64, slices), ref: make([][]float64, slices), kern: newRefKernel(),
		steal: make([]float64, slices), stolenNow: hostSteal}
	r.steal[0] = r.stolenNow()
	if tr != nil {
		r.firstID = tr.block(maxSpansPerRecorder)
		r.lastID = r.firstID + maxSpansPerRecorder - 1
	}
	return r
}

// slice is the index of the sliceDur slice t falls in; what ends past the
// window (a worker finishes the round it is in) counts in the last slice.
// The worker reads the host's steal counter as it enters a new slice.
func (r *recorder) slice(t time.Time) int {
	i := max(0, min(int(t.Sub(r.start)/sliceDur), len(r.bidSlices)-1))
	if i > r.cur {
		// Slices a stall skipped start at the same reading, which leaves what
		// was stolen during the stall in the slice it began in.
		now := r.stolenNow()
		for r.cur < i {
			r.cur++
			r.steal[r.cur] = now
		}
	}
	return i
}

// observe records one completed operation timed from t0 (its send time in
// a closed loop, its due time in an open loop) to end. Every refEvery-th
// submit is followed by a reading of the host's speed, taken where the
// worker is — on its CPU, in the state the operation left it in.
func (r *recorder) observe(k opKind, t0, end time.Time, parent, bid int64) int64 {
	i := r.slice(end)
	r.lat[k] = append(r.lat[k], float64(end.Sub(t0).Nanoseconds())/1e6)
	r.latSlice[k] = append(r.latSlice[k], uint16(i))
	if k == opSubmit {
		if r.submits++; r.submits%refEvery == 0 {
			r.ref[i] = append(r.ref[i], r.kern.time())
		}
	}
	return r.span(opNames[k], parent, t0, end, bid, 0)
}

// span appends a traced interval when tracing is on and returns its ID.
func (r *recorder) span(name string, parent int64, start, end time.Time, bid int64, n int) int64 {
	if r.tr == nil {
		return 0
	}
	id := r.firstID + int64(len(r.spans))
	if id > r.lastID {
		r.dropped++
		return 0
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.tr.epoch).Nanoseconds(), End: end.Sub(r.tr.epoch).Nanoseconds(), Bid: bid, N: n})
	return id
}

// endSpan sets the end of a span opened earlier with span (a parent whose
// children had to know its ID before it finished).
func (r *recorder) endSpan(id int64, end time.Time) {
	if id != 0 {
		r.spans[id-r.firstID].End = end.Sub(r.tr.epoch).Nanoseconds()
	}
}

// countBids credits n accepted bids to the slice that end falls in.
func (r *recorder) countBids(n int64, end time.Time) {
	r.bids += n
	r.bidSlices[r.slice(end)] += n
}

// fail counts one failed operation and keeps the first cause for the report.
func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// phase is the merged measurement of one timed window.
type phase struct {
	window    time.Duration     // start to the last worker's last answer
	lat       [numOps][]float64 // ascending
	latRef    [numOps][]float64 // ascending; the untaken slices' samples at reference host speed
	bidsRef   float64           // the untaken slices' accepted bids at reference host speed
	kept      time.Duration     // the window less the slices the hypervisor took
	kernelNs  float64           // the reference kernel over the window, all workers
	late      []float64         // ascending
	bidSlices []int64           // whole slices only
	ops       int64
	bids      int64
	rounds    int64
	attempted int64
	failed    int64
	firstErr  error
}

// merge folds the workers' recorders of one window into a phase and moves
// their spans onto the tracer.
func merge(window time.Duration, recs []*recorder) *phase {
	p := &phase{window: window}
	whole := int(window / sliceDur)
	p.bidSlices = make([]int64, whole)
	// The steal counter is the machine's: one worker's readings stand for all.
	var taken []bool
	taken, p.kept = recs[0].taken(window)
	var kernel []float64
	for _, r := range recs {
		slow := r.slowdown()
		for k := range r.lat {
			p.lat[k] = append(p.lat[k], r.lat[k]...)
			for i, v := range r.lat[k] {
				if sl := r.latSlice[k][i]; !taken[sl] {
					p.latRef[k] = append(p.latRef[k], v/slow[sl])
				}
			}
		}
		for i, n := range r.bidSlices {
			if !taken[i] {
				p.bidsRef += float64(n) * slow[i]
			}
			kernel = append(kernel, r.ref[i]...)
		}
		p.late = append(p.late, r.late...)
		for i := 0; i < whole && i < len(r.bidSlices); i++ {
			p.bidSlices[i] += r.bidSlices[i]
		}
		p.ops += r.ops
		p.bids += r.bids
		p.rounds += r.rounds
		p.attempted += r.attempted
		p.failed += r.failed
		if p.firstErr == nil {
			p.firstErr = r.firstErr
		}
		if r.tr != nil {
			r.tr.spans = append(r.tr.spans, r.spans...)
			r.tr.dropped += r.dropped
		}
	}
	for k := range p.lat {
		sort.Float64s(p.lat[k])
		sort.Float64s(p.latRef[k])
	}
	sort.Float64s(p.late)
	p.kernelNs = trimmedMean(kernel)
	return p
}

// absorb folds a side window's operation counts and first failure into p;
// the side window's samples are reported on their own, if at all.
func (p *phase) absorb(side *phase) {
	p.attempted += side.attempted
	p.failed += side.failed
	if p.firstErr == nil {
		p.firstErr = side.firstErr
	}
}

// bidsPerS is every accepted bid of the window over the window's length: a
// stall costs the rate its share of the window, however few slices it hit.
func (p *phase) bidsPerS() float64 { return float64(p.bids) / p.window.Seconds() }

// bidsPerSRef is bidsPerS at reference host speed: the bids of each worker's
// slice count for as many as the worker would have got through in that
// second on a host running the reference kernel in refNominalNs, and the
// slices the hypervisor took count neither as bids nor as time.
func (p *phase) bidsPerSRef() float64 { return p.bidsRef / p.kept.Seconds() }

// pct is the p-quantile of one operation kind's latency in milliseconds.
func (p *phase) pct(k opKind, q float64) float64 { return percentile(p.lat[k], q) }

// pctRef is pct at reference host speed: every sample of an untaken slice
// divided by the slowdown of its worker in its second.
func (p *phase) pctRef(k opKind, q float64) float64 { return percentile(p.latRef[k], q) }

// mean is one operation kind's mean latency in milliseconds: unlike the
// median it adds up — the means of a closed loop's operations times their
// counts are the workers' time.
func (p *phase) mean(k opKind) float64 {
	sum := 0.0
	for _, v := range p.lat[k] {
		sum += v
	}
	return sum / float64(len(p.lat[k]))
}

// describe renders one operation kind's latency line for the human report:
// the median, the mean (which a stall moves and the median hides), and each
// tail of tailLadder the sample count supports, with the count.
func (p *phase) describe(k opKind) string {
	n := len(p.lat[k])
	if n == 0 {
		return fmt.Sprintf("%-6s n=0", opNames[k])
	}
	s := fmt.Sprintf("%-6s n=%-8d p50=%.4fms mean=%.4fms", opNames[k], n, p.pct(k, 0.5), p.mean(k))
	for i := len(tailLadder) - 2; i >= 0 && tailLadder[i] <= tailPercentile(n); i-- {
		s += fmt.Sprintf(" p%g=%.4fms", tailLadder[i]*100, p.pct(k, tailLadder[i]))
	}
	return s
}

// Host speed. The machine this benchmark runs on shares its host: from one
// second to the next the same code runs up to twice as slow (a busy
// neighbour on the core, a cold wake-up after the hypervisor parked the
// CPU), in episodes that outlast a run, so the wall-clock medians of two
// runs of one commit differ by more than any bound worth gating on. Each
// worker therefore times a fixed piece of work — the reference kernel —
// beside its operations, and the gated metrics are reported at reference
// host speed: what was measured, divided by how much slower than
// refNominalNs the kernel ran for that worker in that second. The kernel is
// this benchmark's own code and touches nothing of the programs under test,
// so a change to them moves the metrics and not the yardstick.
//
// The hypervisor also takes the CPUs away altogether, in episodes of tens of
// seconds that halve a multi-process workload's throughput; the kernel does
// not see that (it is not running either), but the machine counts it: the
// steal column of /proc/stat. A second in which more than stealLimit of the
// machine's CPU time was stolen is taken: its samples and bids are left out
// of the gated metrics, and its length out of the window. The last, partial
// second of a window is never taken.
const (
	// stealLimit is above what a quiet second shows (0-1%, a tick or two) and
	// below what moves a workload (an episode runs at 5-40%).
	stealLimit = 0.02
	// refNominalNs is the kernel's time on the reference box in a quiet
	// second, which keeps the reported values near wall-clock ones.
	refNominalNs = 4000.0
	// refEvery is how many timed submits pass between two readings: often
	// enough for a hundred and more per worker and second, under 2% of a
	// worker's time.
	refEvery = 8
	// refMinSamples is how many readings a slice needs to speak for itself;
	// a thinner slice (a stall) takes the window's slowdown.
	refMinSamples = 16
)

// refKernel is a fixed piece of work in two halves, because the code under
// test does not slow down as one: float formatting, hashing and a table walk
// (tight loops; intake and the embedded workloads' throughput slow down as
// this half does), and one small encoding/json encode (reflection, a wide
// code footprint; the round close, which is mostly the log record's encode,
// slows down as this half does, half as much again as the first).
type refKernel struct {
	buf   []byte
	table [2048]uint64
	sink  uint64
	doc   refDoc
	json  bytes.Buffer
	enc   *json.Encoder
}

// refDoc is shaped like a round's log record, at about a sixth of its size.
type refDoc struct {
	Job    string    `json:"job"`
	Round  int       `json:"round"`
	Nodes  []int     `json:"nodes"`
	Scores []float64 `json:"scores"`
	Pay    []float64 `json:"pay"`
	Profit float64   `json:"profit"`
}

func newRefKernel() *refKernel {
	k := &refKernel{buf: make([]byte, 0, 256), doc: refDoc{
		Job: "churn-17", Round: 4711, Nodes: []int{3, 1415, 92653, 58979, 32384, 62643, 38327, 95028},
		Scores: []float64{0.841, 0.97, 0.1415, 0.65358, 0.2384, 0.433, 0.795, 0.8841},
		Pay:    []float64{0.1, 0.22, 0.13, 0.24, 0.15, 0.26, 0.17, 0.28}, Profit: 3.14159,
	}}
	k.enc = json.NewEncoder(&k.json)
	for i := range k.table {
		k.table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return k
}

func (k *refKernel) run() {
	b, x := k.buf[:0], 0.123456789
	for i := 0; i < 8; i++ {
		b = append(strconv.AppendFloat(b, x, 'g', -1, 64), ',')
		x = x*1.37 + 0.11
	}
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for i := 0; i < 256; i++ {
		h = h*31 + k.table[(h>>7)%uint64(len(k.table))]
	}
	k.json.Reset()
	k.enc.Encode(&k.doc) //nolint:errcheck // a fixed document into a buffer
	k.sink += h + uint64(k.json.Len())
}

// time runs the kernel twice and returns the second run's nanoseconds: the
// first pulls the kernel's own code and data back into the cache, so the
// reading is the CPU's speed and not how long ago the kernel last ran.
func (k *refKernel) time() float64 {
	k.run()
	t0 := time.Now()
	k.run()
	return float64(time.Since(t0).Nanoseconds())
}

// slowdownNow is how many times slower than reference speed the calling
// goroutine's CPU runs the kernel right now.
func (k *refKernel) slowdownNow() float64 {
	readings := make([]float64, 2*refMinSamples)
	for i := range readings {
		readings[i] = k.time()
	}
	return trimmedMean(readings) / refNominalNs
}

// trimmedMean is the mean of the lowest 95% of vs (sorted in place): the
// kernel's readings mix the states the worker's CPU was in, which a mean
// weighs by their share and a median would flip between; the top twentieth
// is where an interrupt or a preemption landed inside a reading.
func trimmedMean(vs []float64) float64 {
	if len(vs) == 0 {
		return refNominalNs // no reading: taken as reference speed
	}
	sort.Float64s(vs)
	keep := vs[:max(1, len(vs)*19/20)]
	sum := 0.0
	for _, v := range keep {
		sum += v
	}
	return sum / float64(len(keep))
}

// slowdown returns, per slice, how many times slower than reference speed
// the worker's CPU ran the kernel.
func (r *recorder) slowdown() []float64 {
	var all []float64
	for _, s := range r.ref {
		all = append(all, s...)
	}
	whole := trimmedMean(all) / refNominalNs
	slow := make([]float64, len(r.ref))
	for i, s := range r.ref {
		slow[i] = whole
		if len(s) >= refMinSamples {
			slow[i] = trimmedMean(s) / refNominalNs
		}
	}
	return slow
}

// taken reports which slices of the window the hypervisor took, and how
// much of the window the others add up to. A run that sat inside an episode
// keeps its cleanest fifth, however much was stolen in it: the limit rises
// to what a fifth of the slices stay under.
func (r *recorder) taken(window time.Duration) (taken []bool, kept time.Duration) {
	whole := int(window / sliceDur) // the slices the worker never entered have no reading
	share := make([]float64, min(whole, r.cur+1))
	end := r.stolenNow()
	for i := range share {
		next := end
		if i < r.cur {
			next = r.steal[i+1]
		}
		share[i] = (next - r.steal[i]) / (sliceDur.Seconds() * float64(runtime.NumCPU()))
	}
	sorted := append([]float64(nil), share...)
	sort.Float64s(sorted)
	limit := stealLimit
	if len(sorted) > 0 {
		limit = max(limit, percentile(sorted, 0.2))
	}
	taken, kept = make([]bool, len(r.steal)), window
	for i, s := range share {
		if s > limit {
			taken[i] = true
			kept -= sliceDur
		}
	}
	return taken, kept
}
