package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fmore/internal/fault"
)

// Failpoints of the durability path. Each sits exactly where the real
// error would surface, so an injected EIO/ENOSPC/torn write exercises the
// identical handling code a failing disk would. All are dormant (one
// atomic load, zero allocations) unless armed by a test, the chaos harness,
// or FMORE_FAILPOINTS (see internal/fault).
var (
	// fpWrite guards the writer's batch write syscall. Torn configs model a
	// short write: the allowed prefix reaches the file, then the error
	// sticks — the classic torn-tail crash shape.
	fpWrite    = fault.New("wal/write")
	fpFsync    = fault.New("wal/fsync")    // the group-commit fdatasync
	fpRotate   = fault.New("wal/rotate")   // sealing the retiring segment at the barrier
	fpPrealloc = fault.New("wal/prealloc") // reserving the segment Rotate creates
	fpSnapshot = fault.New("wal/snapshot") // the snapshot tmp+rename commit
)

const (
	// queueDepth is the appender channel depth: appends block only if this
	// many records are already queued behind a slow device, which bounds
	// memory instead of growing an unbounded queue.
	queueDepth = 1024
	// writeBuffer bounds the writer-local batch: a batch that outgrows it
	// is written early (its fsync still waits for the commit).
	writeBuffer = 1 << 20
	// syncHold is the group-commit window: while nobody waits on
	// durability the writer holds each fsync this long. Back-to-back
	// fsyncs are not just slow — each blocking syscall also steals the
	// writer's scheduler slot, which on small machines stalls the
	// appending goroutines too.
	syncHold = 2 * time.Millisecond
	// defaultSegmentBytes is large enough that compaction is rare, small
	// enough that replay and disk usage stay bounded for a long-lived log.
	defaultSegmentBytes = 8 << 20
	// snapshotFactor scales the size trigger with the committed snapshot: a
	// segment retires once it holds this many snapshots' worth of log, so
	// while the snapshot holds its size, however large that is, a
	// compaction writes at most 1/snapshotFactor snapshot byte per log byte
	// it retires.
	snapshotFactor = 2
)

// Options configures a Log.
type Options struct {
	// SegmentBytes is the floor of the size trigger: Full signals once the
	// active segment reaches SegmentBytes or twice the committed snapshot,
	// whichever is larger, and a new segment is created with that much
	// reserved (a segment rotates just where it would first have to grow).
	// 0 means 8 MiB; negative disables the signal and reserves the default
	// (or twice the snapshot), so appends still never extend the file.
	SegmentBytes int64
	// OnFail, when set, is invoked exactly once with the log's first sticky
	// error, by whichever goroutine publishes it (the writer included, with
	// appenders possibly parked on a full queue), so it must never block.
	OnFail func(error)
}

// Stats is a point-in-time reading of the log's gauges and counters; it
// takes no lock and never touches the writer goroutine.
type Stats struct {
	Segments      int64 // live (replay-relevant) segments on disk
	Bytes         int64 // logical bytes across them, reservation excluded
	Fsyncs        int64 // group commits
	FsyncRecords  int64 // records those commits made durable (÷ Fsyncs = batch size)
	SnapshotBytes int64 // size of the committed snapshot file, 0 when none
}

// failure is the first sticky error and when it struck, published as one
// value so a reader can never see one without the other.
type failure struct {
	err  error
	unix int64
}

// Log owns a data dir: the active segment and its writer goroutine, the
// sealed segments and the snapshot behind it, and the dir lock. See the
// package comment for the contracts.
type Log struct {
	dir       string
	lock      *os.File // dir lock, held until Close
	f         *os.File // active segment; the writer's until it exits
	threshold int64    // floor of the size trigger, <= 0 when disabled
	prealloc  int64    // floor of a new segment's reservation
	onFail    func(error)

	fsyncs    atomic.Int64
	fsyncRecs atomic.Int64
	size      atomic.Int64 // active segment's logical bytes; the writer is its sole writer
	sealed    atomic.Int64 // bytes in the other live segments
	snapBytes atomic.Int64 // committed snapshot's file size; scales both floors

	// notified latches the size trigger per segment; atomic because Abort
	// re-arms it from outside the writer.
	notified atomic.Bool
	full     chan struct{}

	// bufs recycles frame buffers between the appenders (which build a
	// payload in one) and the writer (which returns it once batched).
	bufs sync.Pool

	// fail is NOT guarded by mu, and the writer never takes mu: appenders
	// hold it while blocked sending into a full channel, so a writer that
	// needed it — even once, to record an error — would deadlock against a
	// parked appender exactly when the disk misbehaves under load.
	fail atomic.Pointer[failure]

	mu     sync.Mutex // guards ch against send-after-close
	closed bool
	ch     chan message
	done   chan struct{}

	// Compaction state, written only by the Rotate → Cut → Wait →
	// WriteSnapshot → Prune sequence (or Abort), which callers run one at a
	// time; seq and floor are atomic for Stats.
	seq   atomic.Int64 // active (highest) segment
	floor atomic.Int64 // lowest live segment (deletion floor)
	next  *os.File     // segment Rotate prepared, until Cut hands it over
	rot   *rotation    // barrier Cut enqueued, until Wait collects it
}

// message is a sealed frame to append, a flush barrier, or a rotation
// barrier.
type message struct {
	rec    *bytes.Buffer
	flush  chan struct{}
	rotate *rotation
}

// rotation switches the writer onto segment f. done closes once the old
// segment is durable and the switch happened; retired (written by the
// writer before the close, read by Wait after it) is the sealed segment's
// final logical size.
type rotation struct {
	f       *os.File
	retired int64
	done    chan struct{}
}

var errEmptyRecord = errors.New("wal: appending an empty record")

// ErrRecordTooLarge is the sticky error of a log asked to append a payload
// the recovery scan would not read back.
var ErrRecordTooLarge = errors.New("wal: record exceeds the largest payload recovery accepts")

// start wraps an opened, positioned tail segment holding size logical bytes,
// behind a committed snapshot of snapBytes (0 when there is none), and
// launches the writer goroutine.
func start(dir string, lock, f *os.File, size, snapBytes int64, opts Options) *Log {
	l := &Log{
		dir:       dir,
		lock:      lock,
		f:         f,
		threshold: opts.SegmentBytes,
		prealloc:  reservation(opts),
		onFail:    opts.OnFail,
		full:      make(chan struct{}, 1),
		ch:        make(chan message, queueDepth),
		done:      make(chan struct{}),
	}
	if l.threshold == 0 {
		l.threshold = defaultSegmentBytes
	}
	l.size.Store(size)
	l.snapBytes.Store(snapBytes)
	l.bufs.New = func() any { return new(bytes.Buffer) }
	go l.run()
	return l
}

// reservation is the floor of the size a new segment is preallocated to.
func reservation(opts Options) int64 {
	if opts.SegmentBytes > 0 {
		return opts.SegmentBytes
	}
	return defaultSegmentBytes
}

// scaled is floor, or snapshotFactor times a snapshot of snapBytes when
// that is larger: the size trigger from Options.SegmentBytes, and a new
// segment's reservation from its floor.
func scaled(floor, snapBytes int64) int64 {
	return max(floor, snapshotFactor*snapBytes)
}

// Buf returns a pooled buffer with the frame header reserved: the caller
// writes one record's payload behind it, in place, and hands the buffer to
// Append. Building the payload where the frame will be sealed is what keeps
// a steady-state append free of allocations and copies.
func (l *Log) Buf() *bytes.Buffer {
	b := l.bufs.Get().(*bytes.Buffer)
	b.Reset()
	var pad [headerSize]byte
	b.Write(pad[:]) // Write to a Buffer cannot fail
	return b
}

// Append seals the frame of the payload written into b (a buffer from
// Buf, which Append takes back) and queues it for the writer. The caller
// may reuse whatever the payload was built from as soon as it returns.
// Errors are sticky and surface through Err and Sync.
func (l *Log) Append(b *bytes.Buffer) {
	frame := b.Bytes()
	if len(frame) <= headerSize {
		// A zero length is how a scan recognizes the end of the log.
		l.bufs.Put(b)
		l.Fail(errEmptyRecord)
		return
	}
	payload := frame[headerSize:]
	if len(payload) > maxRecord {
		// The scan reads such a length as damage, that is as the end of the
		// log: written, this record would hide itself and every record
		// behind it from recovery. The log ends here instead, loudly. The
		// buffer is left to the garbage collector, not to the pool.
		l.Fail(fmt.Errorf("%w: %d bytes, limit %d", ErrRecordTooLarge, len(payload), maxRecord))
		return
	}
	sealHeader(frame, uint32(len(payload)), crc32.ChecksumIEEE(payload))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		l.bufs.Put(b)
		return
	}
	// The send happens under mu so Close can never close the channel
	// between the closed-check and the send.
	l.ch <- message{rec: b}
}

// Sync blocks until every record appended so far is on disk and returns
// the sticky error.
func (l *Log) Sync() error {
	flushed := make(chan struct{})
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return l.Err()
	}
	l.ch <- message{flush: flushed}
	l.mu.Unlock()
	<-flushed
	return l.Err()
}

// Full signals, at most once per segment, that a commit left the active
// segment at or past the size trigger: Options.SegmentBytes, or twice the
// committed snapshot when that is larger. Abort re-arms it.
func (l *Log) Full() <-chan struct{} { return l.full }

// Err returns the log's sticky error, nil while healthy.
func (l *Log) Err() error {
	if f := l.fail.Load(); f != nil {
		return f.err
	}
	return nil
}

// FailedUnix is when the sticky error struck (Unix seconds), 0 while
// healthy.
func (l *Log) FailedUnix() int64 {
	if f := l.fail.Load(); f != nil {
		return f.unix
	}
	return 0
}

// Fail makes err the log's sticky error unless it already has one. Callers
// use it for a record they could not encode: the log must end there rather
// than continue past the gap.
func (l *Log) Fail(err error) {
	if l.fail.CompareAndSwap(nil, &failure{err: err, unix: time.Now().Unix()}) && l.onFail != nil {
		l.onFail(err)
	}
}

// Stats reads the gauges and counters.
func (l *Log) Stats() Stats {
	return Stats{
		Segments:      l.seq.Load() - l.floor.Load() + 1,
		Bytes:         l.sealed.Load() + l.size.Load(),
		Fsyncs:        l.fsyncs.Load(),
		FsyncRecords:  l.fsyncRecs.Load(),
		SnapshotBytes: l.snapBytes.Load(),
	}
}

// Close drains the queue, fsyncs, trims the segment's reservation, closes
// the file and releases the dir lock. It returns the sticky error — records
// that never became durable. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return l.Err()
	}
	l.closed = true
	close(l.ch)
	l.mu.Unlock()
	<-l.done
	// Tests (and operators) get to read "file size == bytes logged" on a
	// clean shutdown.
	l.f.Truncate(l.size.Load()) //nolint:errcheck // best-effort: recovery tolerates a zero tail
	if err := l.f.Close(); err != nil {
		l.Fail(err)
	}
	l.lock.Close() //nolint:errcheck // advisory lock dies with the fd either way
	return l.Err()
}

// run is the writer goroutine (package comment: Appending, Failure). It
// never exits before the channel closes. Write and fsync failures live in
// the local failed flag and are published through the lock-free Fail.
func (l *Log) run() {
	defer close(l.done)
	var flushes []chan struct{}
	var batch []byte  // frames coalesced since the last write syscall
	var pending int64 // records written or batched since the last fsync
	dirty := false
	failed := false
	flushBatch := func() {
		if len(batch) == 0 {
			return
		}
		if !failed && l.Err() == nil {
			allowed, ferr := fpWrite.Cut(len(batch))
			if allowed > 0 {
				if _, werr := l.f.Write(batch[:allowed]); werr != nil {
					if ferr == nil {
						ferr = werr
					}
				} else {
					dirty = true // even a torn prefix is on its way to disk
				}
			}
			if ferr != nil {
				l.Fail(ferr)
				failed = true
			}
		}
		batch = batch[:0]
	}
	settle := func() {
		flushBatch()
		if dirty {
			err := fpFsync.Fire()
			if err == nil {
				err = fdatasync(l.f)
			}
			if err != nil {
				l.Fail(err)
				failed = true
			} else {
				l.fsyncs.Add(1)
				l.fsyncRecs.Add(pending)
			}
			dirty = false
		}
		pending = 0
		for _, c := range flushes {
			close(c)
		}
		flushes = flushes[:0]
	}
	write := func(msg message) {
		if msg.rec != nil {
			// The Err check covers failures the appenders reported (Fail).
			if !failed && l.Err() == nil {
				b := msg.rec.Bytes()
				if len(batch) > 0 && len(batch)+len(b) > writeBuffer {
					flushBatch()
				}
				if !failed {
					// The frame is copied before the pooled buffer returns;
					// size counts logical bytes at batch time so the gauge
					// and the size trigger never lag the queue.
					batch = append(batch, b...)
					l.size.Add(int64(len(b)))
					pending++
				}
			}
			l.bufs.Put(msg.rec)
		}
		if msg.flush != nil {
			flushes = append(flushes, msg.flush)
		}
		if msg.rotate != nil {
			settle() // the retiring segment is durable before its successor is written
			// The trim is not re-fsynced: a crash that loses it leaves
			// zero-fill, which recovery reads as reservation.
			l.f.Truncate(l.size.Load()) //nolint:errcheck // best-effort
			err := fpRotate.Fire()
			if cerr := l.f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				l.Fail(err)
				failed = true
			}
			l.f = msg.rotate.f
			msg.rotate.retired = l.size.Load()
			l.size.Store(0)
			l.notified.Store(false)
			close(msg.rotate.done)
		}
	}
	commit := func() {
		settle()
		if l.threshold > 0 && l.size.Load() >= scaled(l.threshold, l.snapBytes.Load()) && l.notified.CompareAndSwap(false, true) {
			select {
			case l.full <- struct{}{}:
			default:
			}
		}
	}
	for msg := range l.ch {
		write(msg)
		if len(flushes) == 0 {
			// No durability waiter: hold the fsync while more records
			// trickle in.
			timer := time.NewTimer(syncHold)
		coalesce:
			for {
				select {
				case m, ok := <-l.ch:
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
		// queued, so the records racing in behind the Sync share its fsync
		// instead of forcing the next one.
	drain:
		for len(flushes) > 0 {
			select {
			case m, ok := <-l.ch:
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
