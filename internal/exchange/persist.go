package exchange

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fmore/internal/auction"
)

// The write-ahead log is a sequence of numbered segments plus at most one
// snapshot. Segment 1 keeps the historical single-file name (exchange.wal),
// so data dirs written before rotation existed open unchanged; rotated
// segments are exchange-NNNNNN.wal. The snapshot (exchange.snap) captures
// the full durable state as of a rotation cut: replay is snapshot + every
// segment with seq >= the snapshot's cut, and segments below the cut are
// garbage (deleted after the snapshot is durable, or at the next Open).
const (
	walFileName  = "exchange.wal"
	walSegPrefix = "exchange-"
	walSegSuffix = ".wal"
	snapFileName = "exchange.snap"
	snapTmpName  = "exchange.snap.tmp"
	lockFileName = "exchange.lock"
)

// maxWalRecord bounds one record's payload. It exists to keep a corrupted
// length prefix from triggering an enormous allocation during replay; real
// records (even a round with 10⁵ bidders) stay far below it.
const maxWalRecord = 64 << 20

// walBuffer is the appender channel depth. Appends never wait for disk;
// they only block if this many records are already queued behind a slow
// device, which bounds memory instead of growing an unbounded queue.
const walBuffer = 1024

// defaultSyncDelay is the default group-commit window (Options.SyncInterval
// overrides it): after writing a batch the writer keeps
// collecting records for up to this long before the fsync, so a storm of
// round closes shares one disk flush instead of paying one each.
// (Back-to-back fsyncs are not just slow — each blocking syscall also
// steals the writer's scheduler slot, which on small machines stalls the
// scoring goroutines too.) A crash can lose at most this window plus one
// fsync of acknowledged-but-unflushed records, the standard contract of
// an asynchronous WAL; Sync bypasses the wait entirely, replacing the
// hold with a drain-and-commit loop — see persister.run.
const defaultSyncDelay = 2 * time.Millisecond

// walWriteBuffer bounds the writer-local batch buffer: queued frames are
// coalesced into one write syscall per group commit instead of one per
// record, spilling early if a batch outgrows this.
const walWriteBuffer = 1 << 20

// defaultSnapshotBytes is the size trigger for snapshot + rotation: once
// the active segment grows past it, the exchange compacts in the
// background. Large enough that compaction is rare, small enough that
// replay and disk usage stay bounded for long-lived jobs.
const defaultSnapshotBytes = 8 << 20

// Record kinds of the write-ahead log.
const (
	recJobCreated = "job"     // a job was created (full spec)
	recRound      = "round"   // a round completed (outcome verbatim)
	recJobClosed  = "closed"  // a job finished (MaxRounds or explicit Close)
	recJobRemoved = "removed" // a job was evicted with RemoveJob
	recNode       = "node"    // a node registered (or its meta changed)
	recNodeBan    = "ban"     // a node was blacklisted
)

// walRecord is the union payload of one log record; Kind selects which
// field is populated.
type walRecord struct {
	Kind  string    `json:"k"`
	Job   *walJob   `json:"job,omitempty"`
	Round *walRound `json:"round,omitempty"`
	Node  *walNode  `json:"node,omitempty"`
	// ID names the job of a closed/removed record.
	ID string `json:"id,omitempty"`

	// roundRaw is a replayed round record's Round object in history form
	// (decodeRecord): the bytes read from disk minus the replay fields. The
	// restored history entry keeps it.
	roundRaw []byte
}

// walJob is a serialized JobSpec. The scoring rule travels as the wire-form
// auction.RuleSpec, the same encoding the HTTP front end accepts.
type walJob struct {
	ID           string           `json:"id"`
	Rule         auction.RuleSpec `json:"rule"`
	K            int              `json:"k"`
	Payment      int              `json:"payment"`
	Psi          float64          `json:"psi"`
	Seed         int64            `json:"seed"`
	BidWindowNS  int64            `json:"bid_window_ns,omitempty"`
	MaxRounds    int              `json:"max_rounds,omitempty"`
	MinBids      int              `json:"min_bids"`
	KeepOutcomes int              `json:"keep_outcomes"`
	// Equilibrium is the optional bidder-side game description; it is
	// already a JSON wire form, so it persists verbatim. Absent on records
	// written before the strategy endpoint existed.
	Equilibrium *auction.EquilibriumSpec `json:"eq,omitempty"`
}

// walWinner is one selected bid of a persisted outcome.
type walWinner struct {
	NodeID     int       `json:"n"`
	Qualities  []float64 `json:"q"`
	BidPayment float64   `json:"bp"`
	Score      float64   `json:"s"`
	Payment    float64   `json:"p"`
}

// walRound is one completed round, stored verbatim so a replayed exchange
// serves byte-identical outcome responses. Draws is the job's cumulative
// rng-source step count after this round: replay fast-forwards the seeded
// source by exactly that many steps, so post-recovery rounds draw the same
// tiebreaks (and ψ-admissions) the uncrashed process would have drawn.
type walRound struct {
	Job     string `json:"job"`
	Round   int    `json:"r"`
	NumBids int    `json:"nb"`
	// Bidders lists the round's node IDs (canonical ascending order); replay
	// uses it to restore per-node accepted-bid counters.
	Bidders   []int       `json:"bidders,omitempty"`
	Draws     int64       `json:"draws"`
	LatencyNS int64       `json:"lat"`
	Err       string      `json:"err,omitempty"`
	Winners   []walWinner `json:"w"`
	Scores    []float64   `json:"sc"`
	Profit    float64     `json:"profit"`
}

// walNode is a registry entry.
type walNode struct {
	ID   int    `json:"id"`
	Meta string `json:"meta,omitempty"`
}

// walSnapshot is the exchange's full durable state as of a rotation cut.
// Replaying it and then the segments with seq >= CutSeq reproduces exactly
// the state a record-by-record replay of the deleted segments plus the tail
// would have produced: job specs, the KeepOutcomes-bounded outcome history
// (so retained outcome responses stay byte-identical), round numbering,
// cumulative rng draw counts (so post-recovery rounds continue bit-for-bit)
// and the registry with per-node bid counters, meta and bans.
//
// These structs are the document's schema and its reader; the writer
// (snapCapture.encode) streams the same document without building them.
type walSnapshot struct {
	// CutSeq is the first segment the snapshot does NOT cover.
	CutSeq int64         `json:"cut_seq"`
	Jobs   []walSnapJob  `json:"jobs,omitempty"`
	Nodes  []walSnapNode `json:"nodes,omitempty"`

	// size is the snapshot file's byte size, set by readSnapshot.
	size int64
}

// walSnapJob is one job's snapshotted state. History holds the retained
// rounds in their history form (see appendWalRound): the walRound object
// with Bidders and Draws zero — counters and the cumulative draw count are
// snapshotted once, not per retained round.
type walSnapJob struct {
	Spec      walJob         `json:"spec"`
	Closed    bool           `json:"closed,omitempty"`
	Round     int            `json:"round"`
	BaseRound int            `json:"base_round"`
	Draws     int64          `json:"draws"`
	AuctRound int            `json:"auct_round"`
	History   []walSnapRound `json:"history,omitempty"`
}

// walSnapRound is one retained round of a snapshot being read: the decoded
// record plus the bytes it was decoded from, which the restored history
// entry keeps so the next snapshot can splice them again.
type walSnapRound struct {
	walRound
	raw []byte
}

// UnmarshalJSON only takes a copy of the entry's bytes; readSnapshot
// decodes the entries afterwards, on every CPU (decodeHistories).
func (r *walSnapRound) UnmarshalJSON(b []byte) error {
	r.raw = bytes.Clone(b)
	return nil
}

// walSnapNode is one registry entry with its counters.
type walSnapNode struct {
	ID     int    `json:"id"`
	Meta   string `json:"meta,omitempty"`
	Bids   int64  `json:"bids,omitempty"`
	Banned bool   `json:"banned,omitempty"`
}

// persister owns the active log segment and its dedicated writer goroutine.
// Appends are a channel send (never a disk wait); the writer drains
// whatever is queued, writes it, and fsyncs once per batch, so a burst of
// round closes costs one fsync, off every hot path. Rotation requests flow
// through the same channel, so the record/segment assignment is exactly the
// enqueue order — the invariant the snapshot cut relies on.
type persister struct {
	f         *os.File
	syncDelay time.Duration
	// Commit telemetry, read by metrics scrapes: fsyncs counts group
	// commits (wal_fsync_total), fsyncRecs the records those commits made
	// durable (wal_fsync_batched_records) — their ratio is the achieved
	// batch size.
	fsyncs    atomic.Int64
	fsyncRecs atomic.Int64

	// Writer-goroutine state: the active segment's seq and byte size, plus
	// the snapshot size trigger. notified latches the trigger per segment
	// (atomic: a failed compaction re-arms it from outside the writer so
	// the next commit retries instead of silently never compacting again).
	// size is atomic only so the wal_bytes gauge can read it from a
	// metrics scrape; the writer goroutine remains its sole writer.
	seq       int64
	size      atomic.Int64
	threshold int64
	notified  atomic.Bool
	onFull    func() // must not block; called once per over-threshold segment

	// bufs recycles frame buffers between the appenders (which encode into
	// one) and the writer goroutine (which returns it after the disk write).
	// Record encoding used to be the durable close path's largest
	// allocation; pooling it keeps the steady state allocation-free.
	bufs sync.Pool

	// err is the first sticky failure (encode, write, fsync or close). It
	// is deliberately NOT guarded by mu: appenders hold mu while blocked
	// sending into a full channel, so the writer goroutine must be able to
	// record an error without ever waiting on mu — taking it there would
	// deadlock the writer against a blocked appender exactly when the disk
	// misbehaves under load.
	err atomic.Pointer[error]

	// onFail, when set, is invoked exactly once — by whichever goroutine
	// wins the sticky-error CAS — with the first error. It runs lock-free
	// from arbitrary contexts (including the writer goroutine), so it must
	// never block; the exchange uses it to flip into degraded mode.
	onFail func(error)

	mu     sync.Mutex // guards ch against send-after-close
	closed bool

	ch   chan persistMsg
	done chan struct{}
}

// persistMsg is a framed record to append, a flush barrier, a segment
// rotation, or a combination.
type persistMsg struct {
	rec    *frameBuf
	flush  chan struct{}
	rotate *rotateMsg
}

// rotateMsg switches the writer onto a fresh segment. done closes once the
// old segment is durable and the switch happened; retired (written by the
// writer before the close, read by the rotator after it) reports the
// sealed segment's final byte size for the wal_bytes gauge.
type rotateMsg struct {
	f       *os.File
	seq     int64
	retired int64
	done    chan struct{}
}

// frameBuf is one pooled frame: an 8-byte length+CRC header followed by the
// JSON payload, built in place by frameRecord or frameRound. The bound
// json.Encoder (every record kind but the round) writes straight into the
// buffer, so one encode costs zero steady-state allocations once the pool
// is warm.
type frameBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

func newFrameBuf() *frameBuf {
	fb := &frameBuf{}
	fb.enc = json.NewEncoder(&fb.buf)
	return fb
}

func newPersister(f *os.File, seq, size int64, syncDelay time.Duration, threshold int64, onFull func(), onFail func(error)) *persister {
	if syncDelay <= 0 {
		syncDelay = defaultSyncDelay
	}
	p := &persister{
		f:         f,
		syncDelay: syncDelay,
		seq:       seq,
		threshold: threshold,
		onFull:    onFull,
		onFail:    onFail,
		ch:        make(chan persistMsg, walBuffer),
		done:      make(chan struct{}),
	}
	p.size.Store(size)
	p.bufs.New = func() any { return newFrameBuf() }
	go p.run()
	return p
}

// append frames rec into a pooled buffer and queues it for the writer,
// which returns the buffer to the pool once the bytes are on their way to
// disk. The record (and every slice it references) is fully encoded before
// append returns, so callers may reuse record scratch immediately. Errors
// (encode or disk) are sticky and surfaced through Err/Sync; the exchange
// keeps serving from memory either way, mirroring how a database treats a
// failing WAL device.
func (p *persister) append(rec walRecord) {
	fb := p.bufs.Get().(*frameBuf)
	if err := frameRecord(fb, rec); err != nil {
		p.bufs.Put(fb)
		p.fail(err)
		return
	}
	p.enqueue(fb)
}

// appendRound queues a round record whose Round object is already encoded
// (appendWalRound's output; see frameRound). The frame is assembled around
// a copy of round, so the caller keeps ownership of the bytes.
func (p *persister) appendRound(round []byte, drawsAt int, bidders []int, draws int64) {
	fb := p.bufs.Get().(*frameBuf)
	frameRound(fb, round, drawsAt, bidders, draws)
	p.enqueue(fb)
}

// enqueue hands a sealed frame to the writer goroutine.
func (p *persister) enqueue(fb *frameBuf) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.bufs.Put(fb)
		return
	}
	// The send happens under mu so close() can never close the channel
	// between the closed-check and the send.
	p.ch <- persistMsg{rec: fb}
}

// sync blocks until every record appended so far is on disk and returns the
// first sticky error.
func (p *persister) sync() error {
	flushed := make(chan struct{})
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return p.Err()
	}
	p.ch <- persistMsg{flush: flushed}
	p.mu.Unlock()
	<-flushed
	return p.Err()
}

// rearmSizeTrigger lets a failed compaction re-enable the size trigger so
// the next over-threshold commit signals again; without it one transient
// failure would disable automatic compaction for the segment's lifetime.
func (p *persister) rearmSizeTrigger() {
	p.notified.Store(false)
}

// rotate queues a switch onto segment (f, seq) and returns the rotation
// message, whose done channel closes once the retiring segment is durable
// and the switch happened (retired then holds its final size); ok is
// false (and done closed) when the persister already shut down, in which
// case the caller still owns f.
func (p *persister) rotate(f *os.File, seq int64) (msg *rotateMsg, ok bool) {
	msg = &rotateMsg{f: f, seq: seq, done: make(chan struct{})}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		close(msg.done)
		return msg, false
	}
	p.ch <- persistMsg{rotate: msg}
	return msg, true
}

// Err returns the first append, write or fsync error, if any.
func (p *persister) Err() error {
	if e := p.err.Load(); e != nil {
		return *e
	}
	return nil
}

// fail records the first sticky error, lock-free (see the err field's
// comment for why the writer goroutine must never block here). The CAS
// winner also fires onFail, so the degraded-mode transition happens exactly
// once and carries the first error, never a later one.
func (p *persister) fail(err error) {
	if p.err.CompareAndSwap(nil, &err) && p.onFail != nil {
		p.onFail(err)
	}
}

// close drains the queue, fsyncs, trims the segment's preallocated tail
// back to its logical size and closes the file. Idempotent.
func (p *persister) close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return p.Err()
	}
	p.closed = true
	close(p.ch)
	p.mu.Unlock()
	<-p.done
	// A cleanly closed segment is exactly its logical size — crash-only
	// zero-fill is what replay's preallocation tolerance is for, and tests
	// (and operators) get to read "file size == bytes logged" on a clean
	// shutdown. Best-effort: a failed trim just leaves a zero tail.
	p.f.Truncate(p.size.Load()) //nolint:errcheck // zero tails are tolerated by replay
	if err := p.f.Close(); err != nil {
		p.fail(err)
	}
	return p.Err()
}

// run is the writer goroutine: coalesce every queued record into a
// writer-local batch buffer, write the batch with one syscall, fsync once
// (fdatasync on Linux), release flush waiters. It never exits before the
// channel closes — on a disk error it keeps draining (and discarding) so
// appenders can never wedge on a full channel.
//
// Group commit is adaptive: with no durability waiter the writer holds
// each commit open for up to syncDelay; once a waiter is pending it drains
// whatever is already queued without blocking and commits the moment the
// queue is momentarily empty — the fsync's own latency (and the write
// syscall before it) is the batching window, so concurrent round closes
// still share one flush while a synced record is durable as fast as the
// disk allows instead of idling out the timer.
//
// The loop deliberately never takes p.mu: appenders hold it while sending
// (including blocking on a full channel), so a writer that needed the mutex
// — even once, to record an error — could wedge against a blocked appender
// exactly when the queue is at its fullest. Write/fsync failures live in
// the local failed flag and are published through the lock-free fail().
func (p *persister) run() {
	defer close(p.done)
	var flushes []chan struct{}
	var batch []byte  // frames coalesced since the last write syscall
	var pending int64 // records written or batched since the last fsync
	dirty := false
	failed := false
	flushBatch := func() {
		if len(batch) == 0 {
			return
		}
		if !failed && p.Err() == nil {
			// The failpoint bounds the write like a failing device would: a
			// torn config lets a prefix reach the file before the error
			// sticks, leaving exactly the partial frame recovery must
			// truncate away.
			allowed, ferr := fpWalWrite.Cut(len(batch))
			if allowed > 0 {
				if _, werr := p.f.Write(batch[:allowed]); werr != nil {
					if ferr == nil {
						ferr = werr
					}
				} else {
					dirty = true // even a torn prefix is on its way to disk
				}
			}
			if ferr != nil {
				p.fail(ferr)
				failed = true
			}
		}
		batch = batch[:0]
	}
	settle := func() {
		flushBatch()
		if dirty {
			err := fpWalFsync.Fire()
			if err == nil {
				err = fdatasync(p.f)
			}
			if err != nil {
				p.fail(err)
				failed = true
			} else {
				p.fsyncs.Add(1)
				p.fsyncRecs.Add(pending)
			}
			dirty = false
		}
		pending = 0
		for _, c := range flushes {
			close(c)
		}
		flushes = flushes[:0]
	}
	write := func(msg persistMsg) {
		if msg.rec != nil {
			// The p.Err() check (lock-free since the sticky error went
			// atomic) freezes the log at the FIRST failure, appender-side
			// encode errors included: writing records past a dropped one
			// would leave a gap that replay silently mis-recovers from,
			// which is worse than a log that simply ends early.
			if !failed && p.Err() == nil {
				b := msg.rec.buf.Bytes()
				if len(batch) > 0 && len(batch)+len(b) > walWriteBuffer {
					flushBatch() // spill early; the fsync still waits for settle
				}
				if !failed {
					// The frame is copied before the pooled buffer returns;
					// size counts logical bytes at batch time so the gauge
					// and the rotation trigger never lag the queue.
					batch = append(batch, b...)
					p.size.Add(int64(len(b)))
					pending++
				}
			}
			p.bufs.Put(msg.rec)
		}
		if msg.flush != nil {
			flushes = append(flushes, msg.flush)
		}
		if msg.rotate != nil {
			// Rotation barrier: the retiring segment must be fully durable
			// before any record lands in its successor — the crash window
			// between rotation and the snapshot replays old segments plus
			// the new tail, which only works if no old record was lost.
			settle()
			// Trim the preallocated zero tail so the sealed segment is
			// exactly its logical size. Best-effort and not re-fsynced: a
			// crash that loses the trim leaves zero-fill, which replay
			// recognizes as clean preallocated space.
			p.f.Truncate(p.size.Load()) //nolint:errcheck // zero tails are tolerated by replay
			err := fpWalRotate.Fire()
			if cerr := p.f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				p.fail(err)
				failed = true
			}
			p.f = msg.rotate.f
			p.seq = msg.rotate.seq
			msg.rotate.retired = p.size.Load()
			p.size.Store(0)
			p.notified.Store(false)
			close(msg.rotate.done)
		}
	}
	commit := func() {
		settle()
		if p.threshold > 0 && p.size.Load() >= p.threshold && p.notified.CompareAndSwap(false, true) {
			if p.onFull != nil {
				p.onFull()
			}
		}
	}
	for msg := range p.ch {
		write(msg)
		if len(flushes) == 0 {
			// No durability waiter: hold the fsync for up to syncDelay
			// while more records trickle in. The hold delays nobody
			// (appends are fire-and-forget) and is the crash-loss cap;
			// committing eagerly here would turn every trickled record
			// into its own fsync.
			timer := time.NewTimer(p.syncDelay)
		coalesce:
			for {
				select {
				case m, ok := <-p.ch:
					if !ok {
						break coalesce // outer range exits next; commit below
					}
					write(m)
					if len(flushes) > 0 {
						break coalesce // a Sync arrived: flush now
					}
				case <-timer.C:
					break coalesce
				}
			}
			timer.Stop()
		}
		// A waiter is (now) pending — absorb whatever else is already
		// queued before the flush, so the records racing in behind the
		// Sync share its fsync instead of forcing the next one.
	drain:
		for len(flushes) > 0 {
			select {
			case m, ok := <-p.ch:
				if !ok {
					break drain // outer range exits next; commit below
				}
				write(m)
			default:
				break drain
			}
		}
		commit()
	}
	commit()
}

// frameRecord encodes rec into fb as a length-prefixed, CRC-guarded frame:
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload JSON
//
// The header is written as a placeholder first and patched once the payload
// size is known, so the whole frame lands in one reused buffer with no
// intermediate marshal allocation. The bound encoder produces exactly
// json.Marshal's bytes plus a trailing newline, which is truncated to keep
// the on-disk format byte-identical to pre-pooling logs.
func frameRecord(fb *frameBuf, rec walRecord) error {
	var pad [8]byte
	fb.buf.Reset()
	fb.buf.Write(pad[:]) // header placeholder; Write to a Buffer cannot fail
	if err := fb.enc.Encode(rec); err != nil {
		return fmt.Errorf("exchange: encoding wal record: %w", err)
	}
	fb.buf.Truncate(fb.buf.Len() - 1) // drop the encoder's trailing newline
	sealFrame(fb)
	return nil
}

// frameRound builds the frame of a round record around its already-encoded
// Round object — appendWalRound's history form, turned into the record form
// by putting the replay fields where drawsAt says its placeholder is. The
// payload is exactly what frameRecord produces for walRecord{Kind:
// recRound, Round: …} (see appendWalRound's contract).
func frameRound(fb *frameBuf, round []byte, drawsAt int, bidders []int, draws int64) {
	var pad [8]byte
	fb.buf.Reset()
	fb.buf.Write(pad[:])
	fb.buf.WriteString(walRoundPrefix)
	fb.buf.Write(round[:drawsAt])
	fb.buf.Write(appendReplayFields(fb.buf.AvailableBuffer(), bidders, draws))
	fb.buf.Write(round[drawsAt+len(walRoundNoDraws):])
	fb.buf.WriteString(walRoundSuffix)
	sealFrame(fb)
}

// sealFrame patches the length and CRC of the payload behind fb's header
// placeholder.
func sealFrame(fb *frameBuf) {
	frame := fb.buf.Bytes()
	payload := frame[8:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
}

// decodeRecord decodes one record payload. A round record in the framing
// every writer of this log produces is cut out by its fixed prefix, so its
// Round object is decoded once and its bytes are kept (roundRaw); any other
// spelling of a round record goes through the generic decode and is
// re-encoded canonically, so replay accepts exactly what it always did.
func decodeRecord(payload []byte) (walRecord, error) {
	if raw, ok := bytes.CutPrefix(payload, []byte(walRoundPrefix)); ok {
		if raw, ok = bytes.CutSuffix(raw, []byte(walRoundSuffix)); ok && len(raw) > 0 && raw[0] == '{' {
			round := new(walRound)
			if json.Unmarshal(raw, round) == nil {
				return walRecord{Kind: recRound, Round: round, roundRaw: historyForm(raw)}, nil
			}
		}
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, err
	}
	if rec.Kind == recRound && rec.Round != nil {
		raw, _, err := appendWalRound(nil, rec.Round)
		if err != nil {
			return rec, err
		}
		rec.roundRaw = raw
	}
	return rec, nil
}

// scanWAL reads records until EOF or the first torn/corrupt frame and
// returns them with the byte offset of the last valid frame end. Everything
// past that offset is untrustworthy (a crash mid-append), so callers
// truncate there.
func scanWAL(f *os.File) (recs []walRecord, valid int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	r := bufio.NewReader(f)
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return recs, valid, nil // EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxWalRecord {
			return recs, valid, nil // corrupt length
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, valid, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, valid, nil // corrupt payload
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, valid, nil // CRC passed but undecodable: treat as tail
		}
		recs = append(recs, rec)
		valid += 8 + int64(n)
	}
}

// zeroFrom reports whether every byte of f from off to EOF is zero — the
// signature of preallocated-but-unwritten segment space, as opposed to a
// torn frame's garbage.
func zeroFrom(f *os.File, off int64) (bool, error) {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return false, err
	}
	buf := make([]byte, 64<<10)
	for {
		n, err := f.Read(buf)
		for _, b := range buf[:n] {
			if b != 0 {
				return false, nil
			}
		}
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
}

// walPreallocBytes is the segment preallocation size: the rotation
// threshold when the size trigger is on (a segment rotates right around
// the point it would first have to grow), the default threshold when the
// trigger is disabled (benchmarks, operator choice — appends should still
// never extend the file).
func walPreallocBytes(opts Options) int64 {
	if opts.SnapshotBytes > 0 {
		return opts.SnapshotBytes
	}
	return defaultSnapshotBytes
}

// --- segment and snapshot files ---------------------------------------------

// segName returns the file name of a log segment. Segment 1 keeps the
// pre-rotation single-file name for backward compatibility.
func segName(seq int64) string {
	if seq == 1 {
		return walFileName
	}
	return fmt.Sprintf("%s%06d%s", walSegPrefix, seq, walSegSuffix)
}

// parseSegName inverts segName; ok is false for non-segment files.
func parseSegName(name string) (seq int64, ok bool) {
	if name == walFileName {
		return 1, true
	}
	body, found := strings.CutPrefix(name, walSegPrefix)
	if !found {
		return 0, false
	}
	body, found = strings.CutSuffix(body, walSegSuffix)
	if !found {
		return 0, false
	}
	seq, err := strconv.ParseInt(body, 10, 64)
	if err != nil || seq < 2 {
		return 0, false
	}
	return seq, true
}

// listSegments returns the data dir's segment sequence numbers, ascending.
func listSegments(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int64
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs, nil
}

// fsyncDir flushes a directory's entry table — the step that makes file
// creations, renames and deletions durable, not just the file contents.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// lockDir takes the data dir's exclusive advisory lock for the exchange's
// lifetime (released when the fd closes): two processes appending to one
// log would interleave frames and read as corruption — exactly the history
// loss the log exists to prevent. Fail fast instead.
func lockDir(dir string) (*os.File, error) {
	path := filepath.Join(dir, lockFileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("exchange: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("exchange: data dir %s is locked by another process: %w", dir, err)
	}
	return f, nil
}

// maxSnapshotPayload is the largest payload the snapshot's frame header can
// describe (a uint32 length). A variable only so a test can lower it.
var maxSnapshotPayload int64 = math.MaxUint32

// snapWriteBuffer sizes the buffered writer the snapshot streams through:
// history records are a few KiB each, so this turns thousands of splices
// into a few dozen CRC updates and write syscalls.
const snapWriteBuffer = 256 << 10

// snapCapture is what Compact collects under the stop-the-world locks:
// scalars and references only — nothing is cloned or encoded there.
// jobs[i] owns recs[jobs[i-1].recsEnd:jobs[i].recsEnd], the record bytes of
// its retained rounds, oldest first; they stay immutable until
// Exchange.snapStreaming clears (see Job.releaseRec).
type snapCapture struct {
	cutSeq int64
	jobs   []snapJob
	recs   [][]byte
	nodes  []walSnapNode
}

// snapJob is one job's captured state (the walSnapJob fields).
type snapJob struct {
	job       *Job
	closed    bool
	round     int
	baseRound int
	draws     int64
	auctRound int
	recsEnd   int
}

// snapPayload is the file end of the snapshot stream: it sits under the
// buffered writer, so it sees the payload in buffer-sized chunks, and
// accumulates the length and CRC the frame header needs. A payload the
// header cannot describe is refused as a write error.
type snapPayload struct {
	f   *os.File
	n   int64
	crc uint32
}

func (s *snapPayload) Write(p []byte) (int, error) {
	if s.n += int64(len(p)); s.n > maxSnapshotPayload {
		return 0, fmt.Errorf("payload exceeds the %d bytes a snapshot frame can describe", maxSnapshotPayload)
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, p)
	return s.f.Write(p)
}

// finish does, outside the stop-the-world locks, what the capture left
// undone: it orders the nodes and fills in the serialized spec of every
// captured job that has none cached yet (specs are immutable, so each job
// pays this once). The caller holds compactMu.
func (c *snapCapture) finish() error {
	slices.SortFunc(c.nodes, func(a, b walSnapNode) int { return cmp.Compare(a.ID, b.ID) })
	for i := range c.jobs {
		j := c.jobs[i].job
		if j.snapSpec != nil {
			continue
		}
		wj, err := walJobFromSpec(j.spec)
		if err == nil {
			j.snapSpec, err = json.Marshal(wj)
		}
		if err != nil {
			return fmt.Errorf("exchange: snapshotting job %q: %w", j.id, err)
		}
	}
	return nil
}

// encode streams the walSnapshot document — the bytes json.Marshal would
// produce for it — with the header state encoded here and the history
// records spliced verbatim. Write errors stick to w and surface at its
// Flush.
func (c *snapCapture) encode(w *bufio.Writer) {
	str := func(s string) { w.WriteString(s) }                                      //nolint:errcheck // sticky
	num := func(n int64) { w.Write(strconv.AppendInt(w.AvailableBuffer(), n, 10)) } //nolint:errcheck // sticky
	// element starts the i-th element of an omitempty array member.
	element := func(i int, open string) {
		if i == 0 {
			str(open)
		} else {
			str(",")
		}
	}
	str(`{"cut_seq":`)
	num(c.cutSeq)
	lo := 0
	for i := range c.jobs {
		sj := &c.jobs[i]
		element(i, `,"jobs":[`)
		str(`{"spec":`)
		w.Write(sj.job.snapSpec) //nolint:errcheck // sticky
		if sj.closed {
			str(`,"closed":true`)
		}
		str(`,"round":`)
		num(int64(sj.round))
		str(`,"base_round":`)
		num(int64(sj.baseRound))
		str(`,"draws":`)
		num(sj.draws)
		str(`,"auct_round":`)
		num(int64(sj.auctRound))
		for k, rec := range c.recs[lo:sj.recsEnd] {
			element(k, `,"history":[`)
			w.Write(rec) //nolint:errcheck // sticky
		}
		if sj.recsEnd > lo {
			str("]")
		}
		lo = sj.recsEnd
		str("}")
	}
	if len(c.jobs) > 0 {
		str("]")
	}
	for i, n := range c.nodes {
		element(i, `,"nodes":[`)
		str(`{"id":`)
		num(int64(n.ID))
		if n.Meta != "" {
			str(`,"meta":`)
			w.Write(appendJSONString(w.AvailableBuffer(), n.Meta)) //nolint:errcheck // sticky
		}
		if n.Bids != 0 {
			str(`,"bids":`)
			num(n.Bids)
		}
		if n.Banned {
			str(`,"banned":true`)
		}
		str("}")
	}
	if len(c.nodes) > 0 {
		str("]")
	}
	str("}")
}

// writeSnapshot makes the captured state durable and returns the file's
// size: stream the document into a temp file behind a placeholder frame
// header, patch the header with the streamed length and CRC (the snapshot
// shares the record framing, so a torn or bit-flipped file is detectable),
// fsync, rename over the live snapshot, fsync the dir. The rename is the
// commit point — a crash or a failure anywhere before it leaves the
// previous snapshot (or none) in force, with every segment it needs still
// on disk.
func writeSnapshot(dir string, c *snapCapture) (int64, error) {
	if err := fpWalSnapshot.Fire(); err != nil {
		return 0, fmt.Errorf("exchange: writing snapshot: %w", err)
	}
	tmp := filepath.Join(dir, snapTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("exchange: creating snapshot: %w", err)
	}
	var hdr [8]byte
	_, werr := f.Write(hdr[:]) // placeholder, patched below
	payload := &snapPayload{f: f}
	if werr == nil {
		bw := bufio.NewWriterSize(payload, snapWriteBuffer)
		c.encode(bw)
		werr = bw.Flush()
	}
	if werr == nil {
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(payload.n)) // ≤ maxSnapshotPayload
		binary.LittleEndian.PutUint32(hdr[4:8], payload.crc)
		_, werr = f.WriteAt(hdr[:], 0)
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup of a failed write
		return 0, fmt.Errorf("exchange: writing snapshot: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapFileName)); err != nil {
		return 0, fmt.Errorf("exchange: committing snapshot: %w", err)
	}
	return 8 + payload.n, fsyncDir(dir)
}

// readSnapshot loads the data dir's snapshot; (nil, nil) when none exists.
// A present-but-corrupt snapshot is an error: segments it covered may
// already be deleted, so ignoring it silently would serve truncated
// history.
func readSnapshot(dir string) (*walSnapshot, error) {
	raw, err := os.ReadFile(filepath.Join(dir, snapFileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(raw) < 8 {
		return nil, errors.New("exchange: snapshot file is truncated")
	}
	n := binary.LittleEndian.Uint32(raw[0:4])
	sum := binary.LittleEndian.Uint32(raw[4:8])
	if int64(n) != int64(len(raw)-8) {
		return nil, errors.New("exchange: snapshot length mismatch")
	}
	payload := raw[8:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, errors.New("exchange: snapshot failed its checksum")
	}
	snap := &walSnapshot{size: int64(len(raw))}
	if err = json.Unmarshal(payload, snap); err == nil {
		err = decodeHistories(snap)
	}
	if err != nil {
		return nil, fmt.Errorf("exchange: decoding snapshot: %w", err)
	}
	if snap.CutSeq < 1 {
		return nil, fmt.Errorf("exchange: snapshot has invalid cut %d", snap.CutSeq)
	}
	return snap, nil
}

// decodeHistories decodes the history entries walSnapRound.UnmarshalJSON
// set aside. Keeping each entry's bytes costs a second pass over them;
// spreading the decode — nearly all of a snapshot's decode work, and
// independent per entry — over the CPUs keeps recovery time where one
// pass over the whole document had it.
func decodeHistories(snap *walSnapshot) error {
	var entries []*walSnapRound
	for i := range snap.Jobs {
		h := snap.Jobs[i].History
		for k := range h {
			entries = append(entries, &h[k])
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(entries))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(entries); i += workers {
				if err := json.Unmarshal(entries[i].raw, &entries[i].walRound); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Test hooks of the compaction crash matrix: persist_test simulates a
// kill -9 at each point by copying the data dir while the exchange runs.
var (
	testHookAfterRotate   func() // rotation durable, snapshot not yet written
	testHookAfterSnapshot func() // snapshot durable, old segments not yet deleted
)

// Compact writes a snapshot of the exchange's durable state, rotates the
// log onto a fresh segment, and deletes the segments the snapshot covers.
// The whole mutation history up to the cut collapses into one state
// capture, so replay cost and disk usage stay bounded by live state
// (KeepOutcomes history, registry size) instead of growing with every round
// ever closed. Durable exchanges trigger it automatically (size threshold
// and optional interval — see Options); calling it manually is also safe at
// any time. On an in-memory exchange it is a no-op.
//
// Crash safety, in write order: (1) the new segment is created and made
// durable, (2) the writer rotates onto it after fsyncing the old segment,
// (3) the snapshot commits via rename, (4) old segments are deleted. A kill
// at any point leaves either the old snapshot (or none) with every segment
// it needs, or the new snapshot with its tail — Open handles both, deleting
// whatever garbage the crash left.
func (ex *Exchange) Compact() error {
	if ex.wal == nil {
		return nil
	}
	ex.compactMu.Lock()
	defer ex.compactMu.Unlock()
	start := time.Now()

	// Any failure re-arms the size trigger: the next over-threshold commit
	// (or the interval) retries, instead of one transient error disabling
	// automatic compaction for the rest of the segment's life.
	newSeq := ex.walSeq + 1
	segPath := filepath.Join(ex.dir, segName(newSeq))
	f, err := os.OpenFile(segPath, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		ex.metrics.snapshotErrs.Add(1)
		ex.wal.rearmSizeTrigger()
		return fmt.Errorf("exchange: creating segment: %w", err)
	}
	abort := func(err error) error {
		f.Close()          //nolint:errcheck // already failing
		os.Remove(segPath) //nolint:errcheck // best-effort cleanup
		ex.metrics.snapshotErrs.Add(1)
		ex.wal.rearmSizeTrigger()
		return err
	}
	// Preallocate before the durability fsync so the reservation itself is
	// durable with the file: steady-state appends then never extend the
	// segment and each group commit is a data-only flush.
	if err := fpWalPrealloc.Fire(); err != nil {
		return abort(fmt.Errorf("exchange: preallocating segment: %w", err))
	}
	preallocate(f, walPreallocBytes(ex.opts))
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("exchange: creating segment: %w", err))
	}
	if err := fsyncDir(ex.dir); err != nil {
		return abort(fmt.Errorf("exchange: creating segment: %w", err))
	}

	// Stop the world: ex.mu freezes the job set, each job's closeMu parks
	// its round closes (and therefore all round/job record appends; node
	// records may still race, but replaying one is idempotent). The cut is
	// the rotation message's position in the writer queue: every record
	// enqueued before it lands in the old segments the snapshot covers,
	// everything after lands in the tail the snapshot does not.
	stwStart := time.Now()
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		return abort(ErrExchangeClosed)
	}
	// The published table's ID list is already sorted — the deterministic
	// closeMu lock order the capture relies on.
	t := ex.table.Load()
	jobs := make([]*Job, 0, len(t.jobs))
	for _, id := range t.ids {
		jobs = append(jobs, t.jobs[id])
	}
	for _, j := range jobs {
		j.closeMu.Lock()
	}
	unlock := func() {
		for _, j := range jobs {
			j.closeMu.Unlock()
		}
		ex.mu.Unlock()
	}

	rot, ok := ex.wal.rotate(f, newSeq)
	if !ok {
		unlock()
		return abort(ErrExchangeClosed)
	}
	snap, serr := ex.captureSnapshot(jobs, newSeq)
	// From here until the snapshot file is written, evicted history records
	// are not recycled: the writer reads them outside every lock.
	ex.snapStreaming.Store(true)
	defer ex.snapStreaming.Store(false)
	unlock()
	stw := time.Since(stwStart)
	if serr == nil {
		serr = snap.finish()
	}

	<-rot.done // old segments durable, writer switched
	ex.walSeq = newSeq
	// Gauge the rotation: one more live segment, and the retiring tail's
	// bytes move from the persister's active-size into the sealed total.
	ex.walSegs.Add(1)
	ex.walSealedBytes.Add(rot.retired)
	if serr != nil {
		// Rotation without a snapshot is harmless: replay still reads the
		// old snapshot (or none) plus every segment.
		ex.metrics.snapshotErrs.Add(1)
		ex.wal.rearmSizeTrigger()
		return serr
	}
	if hook := testHookAfterRotate; hook != nil {
		hook()
	}

	size, err := writeSnapshot(ex.dir, snap)
	if err != nil {
		ex.metrics.snapshotErrs.Add(1)
		ex.wal.rearmSizeTrigger()
		return err
	}
	if hook := testHookAfterSnapshot; hook != nil {
		hook()
	}
	// Old segments are garbage now; a crash mid-delete just leaves some for
	// the next Open to clear. walFloor (the lowest live segment) keeps the
	// loop from re-unlinking every seq since the dawn of the log on each
	// compaction.
	for seq := ex.walFloor; seq < newSeq; seq++ {
		os.Remove(filepath.Join(ex.dir, segName(seq))) //nolint:errcheck // covered by the snapshot either way
	}
	ex.walFloor = newSeq
	// Only the fresh active segment remains replay-relevant (lingering
	// files a failed Remove left behind are garbage the snapshot covers,
	// exactly like a crash mid-delete — the next Open clears them).
	ex.walSegs.Store(1)
	ex.walSealedBytes.Store(0)
	ex.metrics.snapshots.Add(1)
	ex.metrics.snapshotBytes.Store(size)
	ex.metrics.snapshotNs.Store(int64(time.Since(start)))
	ex.metrics.snapshotStwNs.Store(int64(stw))
	return nil
}

// captureSnapshot collects the snapshot's content under the compaction
// locks (ex.mu + every job's closeMu held by the caller; j.mu taken per job
// here): per-job scalars and references to the retained rounds' record
// bytes. Nothing is copied or encoded — the references stay valid after the
// locks drop because history records are immutable while retained and
// Exchange.snapStreaming keeps evicted ones from being recycled.
func (ex *Exchange) captureSnapshot(jobs []*Job, cutSeq int64) (*snapCapture, error) {
	snap := &snapCapture{cutSeq: cutSeq, jobs: make([]snapJob, 0, len(jobs))}
	for _, j := range jobs {
		j.mu.Lock()
		for i, h := range j.holds {
			if h.rec == nil {
				// The round's encode failed at close (the log's sticky error):
				// there are no bytes to splice, and none to invent.
				j.mu.Unlock()
				return nil, fmt.Errorf("exchange: snapshotting job %q: round %d has no log record", j.id, j.baseRnd+1+i)
			}
			snap.recs = append(snap.recs, h.rec)
		}
		snap.jobs = append(snap.jobs, snapJob{
			job:       j,
			closed:    j.closed.Load(),
			round:     j.round,
			baseRound: j.baseRnd,
			draws:     j.src.n,
			auctRound: j.auct.Round(),
			recsEnd:   len(snap.recs),
		})
		j.mu.Unlock()
	}
	// Pending (buffered, unclosed) bids already incremented their node's
	// live counter, but their round record will land in the tail — which
	// replay re-counts. Capture counters net of pending so snapshot + tail
	// reproduces exactly what a record-by-record replay would. The whole
	// intake is frozen across both the pending scan AND the counter reads,
	// and every acceptance (registered counter and open-posture first-bid
	// registration alike) runs inside a shard critical section, so no bid
	// can slip between the two reads. The clamp below is pure defense.
	pending := make(map[int]int64)
	for _, j := range jobs {
		j.intake.lockAll()
	}
	for _, j := range jobs {
		j.intake.pendingByNodeLocked(pending)
	}
	ex.reg.Range(func(info *NodeInfo) bool {
		bids := info.Bids() - pending[info.ID]
		if bids < 0 {
			bids = 0
		}
		snap.nodes = append(snap.nodes, walSnapNode{
			ID:     info.ID,
			Meta:   info.Meta(),
			Bids:   bids,
			Banned: info.Blacklisted(),
		})
		return true
	})
	for _, j := range jobs {
		j.intake.unlockAll()
	}
	return snap, nil
}

// applySnapshot replays a snapshot into the (still private) exchange,
// exactly as if the deleted segments' records had been applied one by one.
// Replay runs before any reader exists, so the whole job set is built in
// one publish instead of a copy-per-job.
func (ex *Exchange) applySnapshot(snap *walSnapshot) error {
	for _, n := range snap.Nodes {
		ex.reg.restore(n.ID, n.Meta, n.Bids, n.Banned)
	}
	var ferr error
	ex.publishJobs(func(jobs map[string]*Job) {
		for i := range snap.Jobs {
			sj := &snap.Jobs[i]
			spec, err := sj.Spec.spec()
			if err != nil {
				ferr = fmt.Errorf("snapshot job %q: %w", sj.Spec.ID, err)
				return
			}
			if _, dup := jobs[spec.ID]; dup {
				ferr = fmt.Errorf("snapshot job %q duplicated", spec.ID)
				return
			}
			j, err := newJob(ex, spec.ID, spec)
			if err != nil {
				ferr = fmt.Errorf("snapshot job %q: %w", spec.ID, err)
				return
			}
			for k := range sj.History {
				wr := &sj.History[k]
				j.restoreRound(wr.outcome(j.id), wr.raw)
			}
			if len(sj.History) == 0 {
				j.round = sj.Round
				j.baseRnd = sj.BaseRound
			}
			j.src.fastForwardTo(sj.Draws)
			j.auct.Resume(sj.AuctRound)
			if sj.Closed {
				j.closed.Store(true)
			}
			jobs[spec.ID] = j
			ex.metrics.jobsCreated.Add(1)
		}
	})
	return ferr
}

// Open starts an exchange backed by a write-ahead outcome log in dir
// (created if absent). Recovery replays the snapshot (if one exists) and
// then every live segment in order: jobs come back with their specs,
// retained outcome history, contiguous round numbering and reconstructed
// rng position; the registry and blacklist are restored; a torn tail from a
// crash mid-append is truncated; segments and temp files orphaned by a
// crash mid-compaction are deleted. Timer-mode jobs resume their bid
// windows once replay completes.
func Open(dir string, opts Options) (*Exchange, error) {
	// A partitioned replica namespaces its WAL under the data dir so N
	// replicas can share one parent (one machine in tests, one volume in
	// small deployments) without their logs or dir locks colliding.
	if p := opts.Partition; p != nil && p.Local != "" {
		dir = filepath.Join(dir, "replica-"+p.Local)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exchange: creating data dir: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Exchange, error) {
		lock.Close() //nolint:errcheck // already failing
		return nil, err
	}
	// A leftover temp file is a snapshot that never committed.
	os.Remove(filepath.Join(dir, snapTmpName)) //nolint:errcheck // best-effort cleanup

	snap, err := readSnapshot(dir)
	if err != nil {
		return fail(err)
	}
	startSeq := int64(1)
	if snap != nil {
		startSeq = snap.CutSeq
	}
	segs, err := listSegments(dir)
	if err != nil {
		return fail(fmt.Errorf("exchange: listing wal segments: %w", err))
	}
	live := segs[:0]
	for _, seq := range segs {
		if seq < startSeq {
			// Covered by the snapshot: garbage from a crash between the
			// snapshot commit and the old-segment deletion.
			if err := os.Remove(filepath.Join(dir, segName(seq))); err != nil {
				return fail(fmt.Errorf("exchange: removing stale segment: %w", err))
			}
			continue
		}
		live = append(live, seq)
	}
	if len(live) == 0 {
		// Fresh dir (or the snapshot's tail segment was never written to and
		// lost): start an empty tail at the cut.
		path := filepath.Join(dir, segName(startSeq))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return fail(fmt.Errorf("exchange: creating wal: %w", err))
		}
		f.Close() //nolint:errcheck // reopened below
		live = append(live, startSeq)
	}
	for i, seq := range live {
		if want := startSeq + int64(i); seq != want {
			return fail(fmt.Errorf("exchange: wal segment %d missing (found %d)", want, seq))
		}
	}

	ex := New(opts)
	ex.dir = dir
	ex.walLock = lock
	closeFail := func(err error) (*Exchange, error) {
		ex.Close()
		lock.Close() //nolint:errcheck // already failing
		return nil, err
	}
	if snap != nil {
		if err := ex.applySnapshot(snap); err != nil {
			return closeFail(fmt.Errorf("exchange: replaying snapshot: %w", err))
		}
		ex.metrics.snapshotBytes.Store(snap.size)
	}

	// Scan every live segment first, then decide where the effective tail
	// is. Segments are preallocated to the rotation threshold, so bytes
	// past the last valid frame come in two flavors: all-zero fill (clean
	// preallocated space whose trim was not yet durable — the zero length
	// prefix is exactly why scanWAL stops there) and garbage (a torn frame
	// from a crash mid-append). A torn tail is normally only legal in the
	// last segment — but the rotation protocol creates (and fsyncs) the
	// successor segment BEFORE the writer's barrier fsyncs the retiring
	// one, so a power loss in that window leaves a torn segment followed
	// by one record-free successor (empty or still pure zero-fill). That
	// state is recoverable, not corrupt: the rotation never happened, so
	// the torn segment is the effective tail (truncate it, delete the
	// orphaned successors). A torn non-last segment followed by any
	// WRITTEN segment is impossible by the barrier ordering and stays a
	// hard error rather than a guess.
	type segScan struct {
		seq      int64
		recs     []walRecord
		valid    int64
		size     int64
		zeroTail bool // every byte past valid is zero (preallocated fill)
	}
	scans := make([]segScan, 0, len(live))
	for _, seq := range live {
		f, err := os.Open(filepath.Join(dir, segName(seq)))
		if err != nil {
			return closeFail(fmt.Errorf("exchange: opening wal segment %d: %w", seq, err))
		}
		recs, valid, err := scanWAL(f)
		var size int64
		zeroTail := true
		if err == nil {
			var st os.FileInfo
			if st, err = f.Stat(); err == nil {
				size = st.Size()
			}
		}
		if err == nil && size > valid {
			zeroTail, err = zeroFrom(f, valid)
		}
		f.Close() //nolint:errcheck // read-only scan
		if err != nil {
			return closeFail(fmt.Errorf("exchange: reading wal segment %d: %w", seq, err))
		}
		scans = append(scans, segScan{seq: seq, recs: recs, valid: valid, size: size, zeroTail: zeroTail})
	}
	tailIdx := len(scans) - 1
	for i, s := range scans[:len(scans)-1] {
		if s.size == s.valid || s.zeroTail {
			continue // clean non-last segment (exact or zero-filled prealloc)
		}
		for _, later := range scans[i+1:] {
			if len(later.recs) != 0 || (later.size != 0 && !later.zeroTail) {
				return closeFail(fmt.Errorf("exchange: wal segment %d is corrupt before its end", s.seq))
			}
		}
		tailIdx = i // crash mid-rotation: torn segment + record-free successors
		break
	}
	for _, orphan := range scans[tailIdx+1:] {
		if err := os.Remove(filepath.Join(dir, segName(orphan.seq))); err != nil {
			return closeFail(fmt.Errorf("exchange: removing orphaned segment %d: %w", orphan.seq, err))
		}
	}
	scans = scans[:tailIdx+1]
	live = live[:tailIdx+1]
	for _, s := range scans {
		for ri, rec := range s.recs {
			if aerr := ex.applyRecord(rec); aerr != nil {
				return closeFail(fmt.Errorf("exchange: replaying wal segment %d record %d: %w", s.seq, ri, aerr))
			}
		}
	}

	// Reopen the effective tail for appending: truncate the torn bytes (if
	// any), park the write offset at the end of the last valid frame, and
	// flock the segment for the exchange's lifetime — pre-rotation binaries
	// lock exchange.wal itself rather than exchange.lock, and without this
	// a version-skewed pair of processes (rolling upgrade, rollback) could
	// append to the same segment concurrently, interleaving frames that
	// read as corruption on the next replay.
	tailScan := scans[len(scans)-1]
	tailValid := tailScan.valid
	fresh := tailScan.size == 0 && tailValid == 0
	tail, serr := os.OpenFile(filepath.Join(dir, segName(tailScan.seq)), os.O_RDWR, 0o644)
	if serr == nil {
		if tailScan.size > tailValid {
			// Cuts torn garbage AND preallocated zero-fill alike; a
			// crash-reopened tail runs unpreallocated until its next
			// rotation (re-extending it here would make recovered file
			// sizes lie about logged bytes for the segment's whole life).
			serr = tail.Truncate(tailValid)
		}
		if serr == nil && fresh {
			// A brand-new tail (fresh dir, or a post-cut segment that was
			// never written) gets the full preallocation, like every
			// segment Compact creates.
			preallocate(tail, walPreallocBytes(opts))
		}
		if serr == nil {
			_, serr = tail.Seek(tailValid, io.SeekStart)
		}
		if serr == nil {
			serr = syscall.Flock(int(tail.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
		}
		if serr != nil {
			tail.Close() //nolint:errcheck // already failing
		}
	}
	if serr != nil {
		return closeFail(fmt.Errorf("exchange: preparing wal segment %d: %w", tailScan.seq, serr))
	}
	ex.finishReplay()

	threshold := opts.SnapshotBytes
	if threshold == 0 {
		threshold = defaultSnapshotBytes
	}
	ex.walSeq = live[len(live)-1]
	ex.walFloor = live[0]
	// Seed the WAL gauges from the scan: every live segment counts, the
	// sealed ones (all but the tail) by their valid bytes (size would
	// overcount a zero-filled preallocated tail) — the active tail's
	// valid prefix is the persister's starting size below.
	ex.walSegs.Store(int64(len(live)))
	sealed := int64(0)
	for _, s := range scans[:len(scans)-1] {
		sealed += s.valid
	}
	ex.walSealedBytes.Store(sealed)
	ex.compactCh = make(chan struct{}, 1)
	ex.compactDone = make(chan struct{})
	ex.wal = newPersister(tail, ex.walSeq, tailValid, opts.SyncInterval, threshold, func() {
		select {
		case ex.compactCh <- struct{}{}:
		default:
		}
	}, ex.walFailure)
	go ex.compactLoop()
	// Start the bid windows only now: a loop closing rounds mid-replay would
	// interleave fresh draws with the reconstruction of old ones.
	ex.mu.Lock()
	for _, j := range ex.table.Load().jobs {
		if j.spec.BidWindow > 0 && !j.closed.Load() {
			j.loopDone = make(chan struct{})
			go j.loop()
		}
	}
	ex.mu.Unlock()
	return ex, nil
}

// compactLoop runs background compaction for a durable exchange: the
// writer's size trigger and (when configured) the periodic interval both
// land here. Failures are counted in the metrics snapshot and retried on
// the next trigger; they never poison the log itself.
func (ex *Exchange) compactLoop() {
	defer close(ex.compactDone)
	var tick <-chan time.Time
	if ex.opts.SnapshotInterval > 0 {
		t := time.NewTicker(ex.opts.SnapshotInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ex.ctx.Done():
			return
		case <-ex.compactCh:
		case <-tick:
		}
		ex.Compact() //nolint:errcheck // counted in metrics; next trigger retries
	}
}

// applyRecord replays one log record into the (still private) exchange.
// Replay is single-threaded, before any client can reach the exchange, so
// it touches job state without locks.
func (ex *Exchange) applyRecord(rec walRecord) error {
	switch rec.Kind {
	case recJobCreated:
		if rec.Job == nil {
			return errors.New("job record without payload")
		}
		spec, err := rec.Job.spec()
		if err != nil {
			return err
		}
		j, err := newJob(ex, spec.ID, spec)
		if err != nil {
			return err
		}
		if _, dup := ex.table.Load().jobs[spec.ID]; dup {
			return fmt.Errorf("job %q created twice", spec.ID)
		}
		ex.publishJobs(func(jobs map[string]*Job) { jobs[spec.ID] = j })
		ex.metrics.jobsCreated.Add(1)
	case recRound:
		if rec.Round == nil {
			return errors.New("round record without payload")
		}
		j, ok := ex.table.Load().jobs[rec.Round.Job]
		if !ok {
			return fmt.Errorf("round for unknown job %q", rec.Round.Job)
		}
		j.restoreRound(rec.Round.outcome(j.id), rec.roundRaw)
		j.src.fastForwardTo(rec.Round.Draws)
		j.auct.Resume(rec.Round.Round)
		for _, id := range rec.Round.Bidders {
			info, _ := ex.reg.Register(id, "")
			info.bids.Add(1)
		}
	case recJobClosed:
		j, ok := ex.table.Load().jobs[rec.ID]
		if !ok {
			return fmt.Errorf("close for unknown job %q", rec.ID)
		}
		j.closed.Store(true)
	case recJobRemoved:
		if _, ok := ex.table.Load().jobs[rec.ID]; !ok {
			return fmt.Errorf("removal of unknown job %q", rec.ID)
		}
		ex.publishJobs(func(jobs map[string]*Job) { delete(jobs, rec.ID) })
	case recNode:
		if rec.Node == nil {
			return errors.New("node record without payload")
		}
		ex.reg.Register(rec.Node.ID, rec.Node.Meta)
	case recNodeBan:
		if rec.Node == nil {
			return errors.New("ban record without payload")
		}
		ex.reg.Register(rec.Node.ID, rec.Node.Meta)
		ex.reg.Blacklist(rec.Node.ID)
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// finishReplay settles derived state the log does not spell out: a job
// whose last persisted round hit MaxRounds crashed between its round record
// and its close record, so the close is reconstructed here; and every job's
// intake shards are aligned to its replayed collecting round.
func (ex *Exchange) finishReplay() {
	for _, j := range ex.table.Load().jobs {
		if !j.closed.Load() && j.spec.MaxRounds > 0 && j.round > j.spec.MaxRounds {
			j.closed.Store(true)
		}
		j.intake.setRound(j.round)
	}
}

// spec reconstructs the JobSpec (rule included) of a job record.
func (w *walJob) spec() (JobSpec, error) {
	rule, err := w.Rule.Build()
	if err != nil {
		return JobSpec{}, err
	}
	spec := JobSpec{
		ID: w.ID,
		Auction: auction.Config{
			Rule:    rule,
			K:       w.K,
			Payment: auction.PaymentRule(w.Payment),
			Psi:     w.Psi,
		},
		Seed:         w.Seed,
		BidWindow:    time.Duration(w.BidWindowNS),
		MaxRounds:    w.MaxRounds,
		MinBids:      w.MinBids,
		KeepOutcomes: w.KeepOutcomes,
		Equilibrium:  w.Equilibrium,
	}
	spec.setDefaults()
	return spec, nil
}

// walJobFromSpec serializes a JobSpec for a job record or a snapshot. An
// unserializable rule is refused (CreateJob rejects such jobs up front on a
// durable exchange, so this never fires for hosted jobs).
func walJobFromSpec(spec JobSpec) (walJob, error) {
	ruleSpec, err := auction.SpecForRule(spec.Auction.Rule)
	if err != nil {
		return walJob{}, err
	}
	return walJob{
		ID:           spec.ID,
		Rule:         ruleSpec,
		K:            spec.Auction.K,
		Payment:      int(spec.Auction.Payment),
		Psi:          spec.Auction.Psi,
		Seed:         spec.Seed,
		BidWindowNS:  int64(spec.BidWindow),
		MaxRounds:    spec.MaxRounds,
		MinBids:      spec.MinBids,
		KeepOutcomes: spec.KeepOutcomes,
		Equilibrium:  spec.Equilibrium,
	}, nil
}

// outcome reconstructs the RoundOutcome of a round record. Failed rounds
// keep a zero Outcome, exactly as closeRound published them.
func (w *walRound) outcome(jobID string) RoundOutcome {
	ro := RoundOutcome{
		JobID:   jobID,
		Round:   w.Round,
		NumBids: w.NumBids,
		Latency: time.Duration(w.LatencyNS),
	}
	if w.Err != "" {
		ro.Err = errors.New(w.Err)
		return ro
	}
	winners := make([]auction.Winner, len(w.Winners))
	for i, win := range w.Winners {
		winners[i] = auction.Winner{
			Bid: auction.Bid{
				NodeID:    win.NodeID,
				Qualities: win.Qualities,
				Payment:   win.BidPayment,
			},
			Score:   win.Score,
			Payment: win.Payment,
		}
	}
	if w.Winners == nil {
		winners = nil // ψ-FMore's zero-eligible outcome has nil Winners
	}
	ro.Outcome = auction.Outcome{
		Winners:          winners,
		Scores:           w.Scores,
		AggregatorProfit: w.Profit,
	}
	return ro
}

// fillWalRound populates one round record from a completed round — all of
// it but the replay fields, which logRound hands to the frame directly —
// reusing the winner slice rec arrives with (the job's scratch) and
// returning it, grown or not, for the next round.
func fillWalRound(rec *walRound, ro RoundOutcome) []walWinner {
	prev := rec.Winners
	*rec = walRound{
		Job:       ro.JobID,
		Round:     ro.Round,
		NumBids:   ro.NumBids,
		LatencyNS: int64(ro.Latency),
	}
	if ro.Err != nil {
		rec.Err = ro.Err.Error()
		return prev
	}
	rec.Scores = ro.Outcome.Scores
	rec.Profit = ro.Outcome.AggregatorProfit
	if ro.Outcome.Winners != nil {
		ws := prev[:0]
		for _, win := range ro.Outcome.Winners {
			ws = append(ws, walWinner{
				NodeID:     win.Bid.NodeID,
				Qualities:  win.Bid.Qualities,
				BidPayment: win.Bid.Payment,
				Score:      win.Score,
				Payment:    win.Payment,
			})
		}
		rec.Winners = ws
		return ws
	}
	return prev
}

// --- record hooks -----------------------------------------------------------
//
// Every mutation the exchange must survive goes through one of these. They
// no-op on an in-memory exchange (New); on a persistent one (Open) they
// enqueue a record for the writer goroutine, so none of them waits on disk.

func (ex *Exchange) logJobCreated(spec JobSpec) error {
	if ex.wal == nil {
		return nil
	}
	wj, err := walJobFromSpec(spec)
	if err != nil {
		// An unserializable rule cannot be recovered; refuse the job up
		// front rather than silently dropping it from the log.
		return fmt.Errorf("exchange: job %q is not persistable: %w", spec.ID, err)
	}
	ex.wal.append(walRecord{Kind: recJobCreated, Job: &wj})
	return nil
}

// logRound encodes one completed round — once — into a recycled job-owned
// buffer, appends it to the log, and returns the bytes for the history
// entry to keep (nil on an in-memory exchange, and after an encode failure,
// which sticks to the log like any other). The record is built in the
// job's scratch, reused across rounds. Callers hold closeMu.
func (j *Job) logRound(ro RoundOutcome, bidders []int) []byte {
	wal := j.ex.wal
	if wal == nil {
		return nil
	}
	sc := &j.walScratch
	sc.rec.Winners = sc.winners
	sc.winners = fillWalRound(&sc.rec, ro)
	rec, drawsAt, err := appendWalRound(j.takeRec(), &sc.rec)
	if err != nil {
		j.freeRecs = append(j.freeRecs, rec)
		wal.fail(fmt.Errorf("exchange: encoding wal record: %w", err))
		return nil
	}
	wal.appendRound(rec, drawsAt, bidders, j.src.n)
	return rec
}

func (ex *Exchange) logJobClosed(id string) {
	if ex.wal == nil {
		return
	}
	ex.wal.append(walRecord{Kind: recJobClosed, ID: id})
}

func (ex *Exchange) logJobRemoved(id string) {
	if ex.wal == nil {
		return
	}
	ex.wal.append(walRecord{Kind: recJobRemoved, ID: id})
}

func (ex *Exchange) logNode(id int, meta string) {
	if ex.wal == nil {
		return
	}
	ex.wal.append(walRecord{Kind: recNode, Node: &walNode{ID: id, Meta: meta}})
}

func (ex *Exchange) logNodeBan(id int) {
	if ex.wal == nil {
		return
	}
	ex.wal.append(walRecord{Kind: recNodeBan, Node: &walNode{ID: id}})
}
