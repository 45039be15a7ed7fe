package wal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"fmore/internal/fault"
)

// frame returns payload as it sits in a segment.
func frame(payload []byte) []byte {
	out := make([]byte, headerSize, headerSize+len(payload))
	sealHeader(out, uint32(len(payload)), crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// record is the i-th test payload: distinct, and a few dozen bytes.
func record(i int) []byte {
	return fmt.Appendf(nil, "record-%04d-%s", i, strings.Repeat("x", i%17))
}

func records(from, to int) [][]byte {
	var out [][]byte
	for i := from; i < to; i++ {
		out = append(out, record(i))
	}
	return out
}

func mustOpen(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { l.Close() }) //nolint:errcheck // idempotent; tests that care call it themselves
	return l, rec
}

func appendAll(l *Log, payloads [][]byte) {
	for _, p := range payloads {
		b := l.Buf()
		b.Write(p)
		l.Append(b)
	}
}

// recovered flattens what Open handed back.
func recovered(rec *Recovery) [][]byte {
	var out [][]byte
	for _, seg := range rec.Segments {
		out = append(out, seg.Records...)
	}
	return out
}

func wantRecords(t *testing.T, rec *Recovery, want [][]byte) {
	t.Helper()
	if got := recovered(rec); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered %d records %q,\nwant %d %q", len(got), got, len(want), want)
	}
}

// writeLog builds a cleanly closed one-segment dir holding want and
// returns it with the segment's size.
func writeLog(t *testing.T, want [][]byte) (dir string, size int64) {
	t.Helper()
	dir = t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(l, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, fileSize(t, filepath.Join(dir, SegmentName))
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// cloneDir simulates a kill -9: every file is copied byte-for-byte into a
// fresh dir while the source log is still running.
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dir
}

func segments(t *testing.T, dir string) []int64 {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// compact runs the whole compaction sequence with payload as the document
// behind the cut.
func compact(t *testing.T, l *Log, payload string) int64 {
	t.Helper()
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	cut, ok := l.Cut()
	if !ok {
		t.Fatal("Cut on a closed log")
	}
	l.Wait()
	if err := l.WriteSnapshot(snapshotDoc(cut, payload)); err != nil {
		t.Fatal(err)
	}
	l.Prune()
	return cut
}

func snapshotDoc(cut int64, payload string) func(*bufio.Writer) {
	return func(w *bufio.Writer) { fmt.Fprintf(w, `{"cut_seq":%d,"state":%q}`, cut, payload) }
}

// tornTails are the shapes a crash mid-append leaves behind a segment's
// last whole frame. They seed FuzzScan too.
var tornTails = map[string][]byte{
	"torn header":    {0x20, 0, 0},                                             // 3 of 8 header bytes
	"torn payload":   {0x40, 0, 0, 0, 1, 2, 3, 4, 'p', 'a', 'r', 't'},          // promises 64 bytes, has 4
	"crc mismatch":   {4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, '{', '}', '{', '}'}, // whole, wrong checksum
	"huge length":    {0, 0, 0, 3, 9, 9, 9, 9},                                 // claims 48 MiB
	"over limit":     {0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5},                  // claims 4 GiB
	"zero fill":      make([]byte, 4096),                                       // preallocated, never written
	"zero then junk": append(make([]byte, 64), 7, 7, 7),                        // not reservation: damage
}

// TestRecoveryTruncatesTornTail: whatever a crash left behind the last
// whole frame, the log reopens with every complete record and the file cut
// back to exactly the last valid frame's end.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	want := records(0, 5)
	for name, tail := range tornTails {
		t.Run(name, func(t *testing.T) {
			dir, clean := writeLog(t, want)
			path := filepath.Join(dir, SegmentName)
			appendBytes(t, path, tail)
			l, rec := mustOpen(t, dir, Options{})
			wantRecords(t, rec, want)
			if got := fileSize(t, path); got != clean {
				t.Errorf("reopened tail is %d bytes, want it truncated to the %d logged", got, clean)
			}
			if st := l.Stats(); st.Bytes != clean || st.Segments != 1 {
				t.Errorf("stats after recovery = %+v, want %d bytes in 1 segment", st, clean)
			}
		})
	}
	t.Run("cut mid-record", func(t *testing.T) {
		dir, clean := writeLog(t, want)
		path := filepath.Join(dir, SegmentName)
		if err := os.Truncate(path, clean-5); err != nil {
			t.Fatal(err)
		}
		_, rec := mustOpen(t, dir, Options{})
		wantRecords(t, rec, want[:4]) // the cut destroyed the last record
		if got, want := fileSize(t, path), clean-int64(headerSize+len(want[4])); got != want {
			t.Errorf("reopened tail is %d bytes, want %d", got, want)
		}
	})
}

// TestScanNeverAllocatesFromAnUnverifiedLength: eight garbage bytes where
// a header should be used to cost a zeroed allocation of whatever length
// they claimed, up to 64 MiB per segment. A length the file cannot hold is
// a torn tail before anything is allocated.
func TestScanNeverAllocatesFromAnUnverifiedLength(t *testing.T) {
	want := records(0, 20)
	dir, clean := writeLog(t, want)
	if clean > 1<<10 {
		t.Fatalf("fixture grew to %d bytes", clean)
	}
	appendBytes(t, filepath.Join(dir, SegmentName), tornTails["huge length"])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, rec, err := Open(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck // test teardown
	wantRecords(t, rec, want)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("Open over a header claiming 48 MiB allocated %d bytes", grew)
	}
}

// TestRecoveryPreallocatedTailZeroFill is the kill -9 inside a
// preallocated-but-unwritten tail: the segment's physical size is the
// reservation, records occupy a logical prefix, everything past them is
// zero-fill. Recovery must read the records, take the zero tail as clean
// end-of-log, and trim the file to its logical size — a crash-reopened tail
// runs at its logical size (no re-preallocation), so recovered file sizes
// stay honest and a later rotation re-reserves.
func TestRecoveryPreallocatedTailZeroFill(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 64 << 10})
	want := records(0, 30)
	appendAll(l, want)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SegmentName)
	logical := l.Stats().Bytes
	if physical := fileSize(t, path); physical <= logical {
		t.Fatalf("tail not preallocated: physical %d <= logical %d bytes", physical, logical)
	}
	crash := cloneDir(t, dir) // kill -9: zero-fill and all
	_, rec := mustOpen(t, crash, Options{SegmentBytes: 64 << 10})
	wantRecords(t, rec, want)
	if got := fileSize(t, filepath.Join(crash, SegmentName)); got != logical {
		t.Errorf("recovered tail = %d bytes, want truncated to logical %d", got, logical)
	}
	// A clean close trims too.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != logical {
		t.Errorf("cleanly closed tail = %d bytes, want %d", got, logical)
	}
}

// TestRecoveryTornTailMidRotation models a power loss in the rotation
// window: the successor segment was created (durable) before the writer's
// barrier fsynced the retiring one, so the retiring segment has a torn tail
// while no longer being the last file. Open must treat the torn segment as
// the effective tail — truncate it, delete the orphaned record-free
// successor — and keep appending to it. A torn non-last segment followed by
// a WRITTEN successor is impossible by the barrier ordering and must stay a
// hard error.
func TestRecoveryTornTailMidRotation(t *testing.T) {
	want := records(0, 4)
	successors := map[string]struct {
		content []byte
		fatal   bool
	}{
		"empty successor":        {nil, false},
		"zero-filled successor":  {make([]byte, 4096), false}, // reserved, never written
		"written successor":      {[]byte{1, 2, 3}, true},
		"successor with records": {frame(record(9)), true},
	}
	for name, succ := range successors {
		t.Run(name, func(t *testing.T) {
			dir, clean := writeLog(t, want)
			appendBytes(t, filepath.Join(dir, SegmentName), tornTails["torn payload"])
			if err := os.WriteFile(filepath.Join(dir, segName(2)), succ.content, 0o644); err != nil {
				t.Fatal(err)
			}
			l, rec, err := Open(dir, Options{})
			if succ.fatal {
				if err == nil {
					l.Close() //nolint:errcheck // already failing
					t.Fatal("Open accepted a torn mid-chain segment with a written successor")
				}
				if got := fileSize(t, filepath.Join(dir, SegmentName)); got == clean {
					t.Error("the refused dir was truncated anyway")
				}
				return
			}
			if err != nil {
				t.Fatalf("reopen over mid-rotation crash: %v", err)
			}
			wantRecords(t, rec, want)
			if got := segments(t, dir); !reflect.DeepEqual(got, []int64{1}) {
				t.Errorf("segments after recovery = %v, want the orphaned successor deleted", got)
			}
			// The torn segment is the tail again: it takes the next record.
			appendAll(l, records(4, 5))
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec = mustOpen(t, dir, Options{})
			wantRecords(t, rec, records(0, 5))
		})
	}
}

// TestRecoveryWithASnapshot covers what a crash at each step of a
// compaction leaves in the dir besides segments.
func TestRecoveryWithASnapshot(t *testing.T) {
	// build leaves a dir as a kill right after the snapshot commit would:
	// snapshot at cut 2 in force, covered segment 1 not yet deleted, one
	// record in the tail.
	build := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		l, _, err := Open(dir, Options{SegmentBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(l, records(0, 3))
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		cut, _ := l.Cut()
		appendAll(l, records(3, 4))
		l.Wait()
		if err := l.WriteSnapshot(snapshotDoc(cut, "three records")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil { // no Prune: the crash came first
			t.Fatal(err)
		}
		return dir
	}
	snapPath := func(dir string) string { return filepath.Join(dir, SnapshotName) }

	t.Run("stale segments below the cut", func(t *testing.T) {
		dir := build(t)
		l, rec := mustOpen(t, dir, Options{})
		if string(rec.Snapshot) != `{"cut_seq":2,"state":"three records"}` {
			t.Errorf("snapshot payload = %s", rec.Snapshot)
		}
		wantRecords(t, rec, records(3, 4))
		if len(rec.Segments) != 1 || rec.Segments[0].Seq != 2 {
			t.Errorf("live segments = %+v, want only segment 2", rec.Segments)
		}
		if got := segments(t, dir); !reflect.DeepEqual(got, []int64{2}) {
			t.Errorf("segments after recovery = %v, want the covered one deleted", got)
		}
		if st := l.Stats(); st.SnapshotBytes != fileSize(t, snapPath(dir)) || st.Segments != 1 {
			t.Errorf("stats = %+v with a %d-byte snapshot", st, fileSize(t, snapPath(dir)))
		}
	})
	t.Run("tail segment lost with the crash", func(t *testing.T) {
		dir := build(t)
		for _, seq := range segments(t, dir) {
			os.Remove(filepath.Join(dir, segName(seq))) //nolint:errcheck // checked by the listing below
		}
		_, rec := mustOpen(t, dir, Options{})
		wantRecords(t, rec, nil)
		if got := segments(t, dir); !reflect.DeepEqual(got, []int64{2}) {
			t.Errorf("segments = %v, want an empty tail started at the cut", got)
		}
	})
	t.Run("leftover snapshot tmp", func(t *testing.T) {
		dir := build(t)
		tmp := filepath.Join(dir, snapTmpName)
		if err := os.WriteFile(tmp, []byte{0x10, 0, 0}, 0o644); err != nil {
			t.Fatal(err)
		}
		_, rec := mustOpen(t, dir, Options{})
		wantRecords(t, rec, records(3, 4))
		if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("a snapshot that never committed survived recovery (err=%v)", err)
		}
	})
	t.Run("missing segment", func(t *testing.T) {
		dir := build(t)
		if err := os.WriteFile(filepath.Join(dir, segName(4)), frame(record(7)), 0o644); err != nil {
			t.Fatal(err)
		}
		if l, _, err := Open(dir, Options{}); err == nil {
			l.Close() //nolint:errcheck // already failing
			t.Fatal("Open replayed across a gap in the segment chain")
		}
	})

	// A present-but-corrupt snapshot is an error, never "no snapshot":
	// segments it covered may already be gone.
	corruptions := map[string]func(raw []byte) []byte{
		"cut short":             func(raw []byte) []byte { return raw[:len(raw)-1] },
		"shorter than a header": func(raw []byte) []byte { return raw[:5] },
		"trailing bytes":        func(raw []byte) []byte { return append(raw, 0) },
		"bit flip":              func(raw []byte) []byte { raw[len(raw)-3] ^= 1; return raw },
		"no cut":                func([]byte) []byte { return frame([]byte(`{"state":"x"}`)) },
		"cut not first":         func([]byte) []byte { return frame([]byte(`{"state":"x","cut_seq":2}`)) },
		"cut not a number":      func([]byte) []byte { return frame([]byte(`{"cut_seq":"2"}`)) },
		"cut below one":         func([]byte) []byte { return frame([]byte(`{"cut_seq":0}`)) },
		"not a document":        func([]byte) []byte { return frame([]byte(`not json`)) },
	}
	for name, corrupt := range corruptions {
		t.Run("snapshot "+name, func(t *testing.T) {
			dir := build(t)
			raw, err := os.ReadFile(snapPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(snapPath(dir), corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if l, _, err := Open(dir, Options{}); err == nil {
				l.Close() //nolint:errcheck // already failing
				t.Fatal("Open accepted the snapshot")
			}
			if got := segments(t, dir); !reflect.DeepEqual(got, []int64{1, 2}) {
				t.Errorf("the refused Open changed the segments to %v", got)
			}
		})
	}
}

// TestSnapshotFrameOverflowRefused: a snapshot whose payload the frame's
// uint32 length cannot describe used to commit — truncated length and all —
// and was rejected by the next Open only after the segments it covered were
// gone. It must be refused before the rename instead: the error returned,
// the size trigger re-armed by the Abort, every segment kept.
func TestSnapshotFrameOverflowRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: -1})
	want := records(0, 6)
	appendAll(l, want)

	limit := maxSnapshotPayload
	maxSnapshotPayload = 512
	defer func() { maxSnapshotPayload = limit }()
	l.notified.Store(true) // as if the size trigger had fired this compaction
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	cut, _ := l.Cut()
	l.Wait()
	if err := l.WriteSnapshot(snapshotDoc(cut, strings.Repeat("s", 600))); err == nil {
		t.Fatal("committed a snapshot larger than its frame can describe")
	}
	l.Abort()
	if l.notified.Load() {
		t.Error("the size trigger was not re-armed")
	}
	if st := l.Stats(); st.SnapshotBytes != 0 || st.Segments != 2 {
		t.Errorf("stats after the refusal = %+v", st)
	}
	for _, name := range []string{SnapshotName, snapTmpName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s exists after the refusal (err=%v)", name, err)
		}
	}
	if got := segments(t, dir); !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Errorf("segments after the refusal = %v; want the covered one kept beside its successor", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, cloneDir(t, dir), Options{})
	wantRecords(t, rec, want)

	maxSnapshotPayload = limit
	compact(t, l, strings.Repeat("s", 600))
	if got := segments(t, dir); !reflect.DeepEqual(got, []int64{3}) {
		t.Errorf("segments after the retry = %v, want only the fresh tail", got)
	}
	if st := l.Stats(); st.SnapshotBytes != fileSize(t, filepath.Join(dir, SnapshotName)) || st.Segments != 1 || st.Bytes != 0 {
		t.Errorf("stats after the retry = %+v", st)
	}
}

// TestAbortRemovesAnUncutSegment: a compaction that fails before its cut
// (here: ENOSPC reserving the segment) leaves no orphan, and the retry
// reuses the sequence number.
func TestAbortRemovesAnUncutSegment(t *testing.T) {
	t.Cleanup(fault.DisableAll)
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: -1})
	appendAll(l, records(0, 3))
	if err := fault.Enable("wal/prealloc", fault.Config{Err: fault.ErrNoSpace, Nth: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Rotate under ENOSPC = %v", err)
	}
	l.Abort()
	if got := segments(t, dir); !reflect.DeepEqual(got, []int64{1}) {
		t.Errorf("segments after the abort = %v, want no orphan", got)
	}
	if l.Err() != nil {
		t.Errorf("a failed rotation stuck to the log: %v", l.Err())
	}
	if cut := compact(t, l, "retry"); cut != 2 {
		t.Errorf("retried compaction cut at %d, want 2", cut)
	}
}

// TestOpenRefusesSecondProcess: the dir carries an exclusive advisory
// lock; a second Open on a live data dir must fail fast instead of
// interleaving appends with the first.
func TestOpenRefusesSecondProcess(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if l2, _, err := Open(dir, Options{}); err == nil {
		l2.Close() //nolint:errcheck // already failing
		t.Fatal("second Open on a live data dir succeeded; want a lock error")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l3, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	l3.Close() //nolint:errcheck // test teardown
}

// TestCutSplitsTheLogInEnqueueOrder: records appended before Cut returns
// land below the cut, records appended after it at or above — with
// appenders running on both sides of it.
func TestCutSplitsTheLogInEnqueueOrder(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: -1})
	const writers, each = 4, 200
	var wg sync.WaitGroup
	var cutAt [writers]atomic.Int64 // per writer: how many it had appended when Cut returned
	var hold sync.RWMutex           // writers append under the read side; the cut takes the write side
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				hold.RLock()
				b := l.Buf()
				fmt.Fprintf(b, "w%d-%04d", w, i)
				l.Append(b)
				cutAt[w].Add(1)
				hold.RUnlock()
			}
		}()
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	hold.Lock()
	cut, _ := l.Cut()
	var below [writers]int64
	for w := range below {
		below[w] = cutAt[w].Load()
	}
	hold.Unlock()
	l.Wait()
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Segments) != 2 || rec.Segments[1].Seq != cut {
		t.Fatalf("live segments = %+v, want two with the cut at %d", rec.Segments, cut)
	}
	var seen [writers]int64
	for _, seg := range rec.Segments {
		for _, p := range seg.Records {
			var w, i int
			if _, err := fmt.Sscanf(string(p), "w%d-%d", &w, &i); err != nil {
				t.Fatal(err)
			}
			if int64(i) != seen[w] {
				t.Fatalf("writer %d: record %d follows %d", w, i, seen[w]-1)
			}
			seen[w]++
			if isBelow := seg.Seq < cut; isBelow != (int64(i) < below[w]) {
				t.Fatalf("writer %d record %d (of %d appended before the cut) is in segment %d", w, i, below[w], seg.Seq)
			}
		}
	}
	for w, n := range seen {
		if n != each {
			t.Errorf("writer %d: %d of %d records recovered", w, n, each)
		}
	}
}

// TestFirstErrorFreezesTheLog: after the first sticky error nothing more
// is written — a log with a gap would replay wrong, a log that ends early
// replays right — while appenders keep returning (the writer drains and
// discards, so nobody wedges on a full queue), OnFail fires exactly once
// with that first error, and Sync and Close report it.
func TestFirstErrorFreezesTheLog(t *testing.T) {
	t.Cleanup(fault.DisableAll)
	dir := t.TempDir()
	var fails atomic.Int64
	var first atomic.Value
	l, _, err := Open(dir, Options{SegmentBytes: -1, OnFail: func(err error) {
		fails.Add(1)
		first.Store(err)
	}})
	if err != nil {
		t.Fatal(err)
	}
	durable := records(0, 10)
	appendAll(l, durable)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.FailedUnix() != 0 {
		t.Error("FailedUnix is set on a healthy log")
	}

	// The next batch tears after 7 bytes; every later write would succeed.
	if err := fault.Enable("wal/write", fault.Config{Err: fault.ErrIO, Nth: 1, Torn: 7}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			appendAll(l, records(100, 100+queueDepth)) // 4× the queue: must not wedge
		}()
	}
	wg.Wait()
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync after the torn write = %v, want EIO", err)
	}
	l.Fail(errors.New("a later error"))
	if got, _ := first.Load().(error); fails.Load() != 1 || !errors.Is(got, syscall.EIO) || !errors.Is(l.Err(), syscall.EIO) {
		t.Errorf("OnFail ran %d times with %v; Err = %v", fails.Load(), got, l.Err())
	}
	if l.FailedUnix() == 0 {
		t.Error("FailedUnix = 0 after the failure")
	}
	crash := cloneDir(t, dir) // kill -9: torn prefix and all
	if err := l.Close(); !errors.Is(err, syscall.EIO) {
		t.Errorf("Close after the failure = %v, want the sticky EIO", err)
	}
	fault.DisableAll()
	_, rec := mustOpen(t, crash, Options{})
	wantRecords(t, rec, durable)
}

// TestRotationSealErrorSticks: an error sealing the retiring segment is a
// real log failure, not a compaction abort — the barrier still completes.
func TestRotationSealErrorSticks(t *testing.T) {
	t.Cleanup(fault.DisableAll)
	l, _ := mustOpen(t, t.TempDir(), Options{SegmentBytes: -1})
	appendAll(l, records(0, 3))
	if err := fault.Enable("wal/rotate", fault.Config{Err: fault.ErrNoSpace, Nth: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	l.Cut()
	l.Wait()
	if !errors.Is(l.Err(), syscall.ENOSPC) {
		t.Errorf("Err after a failed seal = %v, want ENOSPC", l.Err())
	}
}

// commit returns once the log has committed everything appended so far and
// judged the size trigger on it: the trigger is judged after a commit
// released its waiters, and the second Sync returns only once the first
// one's commit is over.
func commit(t *testing.T, l *Log) {
	t.Helper()
	for range 2 {
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}

// fired reports, and takes, a pending size-trigger signal.
func fired(l *Log) bool {
	select {
	case <-l.Full():
		return true
	default:
		return false
	}
}

// TestSizeTriggerSignalsOncePerSegment: Full fires when a commit leaves the
// active segment past the threshold, stays quiet until the rotation (or an
// Abort) re-arms it, and a disabled trigger never fires.
func TestSizeTriggerSignalsOncePerSegment(t *testing.T) {
	fill := func(l *Log) {
		appendAll(l, [][]byte{bytes.Repeat([]byte("f"), 2<<10)})
		commit(t, l)
	}
	l, _ := mustOpen(t, t.TempDir(), Options{SegmentBytes: 1 << 10})
	if fill(l); !fired(l) {
		t.Fatal("no signal past the threshold")
	}
	if fill(l); fired(l) {
		t.Error("second signal for the same segment")
	}
	l.Abort()
	if fill(l); !fired(l) {
		t.Error("no signal after the re-arm")
	}
	compact(t, l, "")
	if fill(l); !fired(l) {
		t.Error("no signal for the next segment")
	}
	off, _ := mustOpen(t, t.TempDir(), Options{SegmentBytes: -1})
	if fill(off); fired(off) {
		t.Error("a disabled trigger fired")
	}
}

// TestSnapshotTriggerScalesWithTheSnapshot: behind a committed snapshot of
// B bytes, the size trigger sits at max(SegmentBytes, 2B), on either side
// of the crossover. Full stays quiet at every commit below it, signals at
// the commit that reaches it exactly, signals once, and re-arms after an
// Abort. The reservation follows the same threshold: a segment Rotate
// creates, and the fresh tail of a log reopened behind that snapshot,
// whose trigger is the snapshot's too.
func TestSnapshotTriggerScalesWithTheSnapshot(t *testing.T) {
	// approach grows the active segment, one committed frame of at most
	// 1 KiB at a time, to exactly want bytes.
	approach := func(t *testing.T, l *Log, want int64) {
		t.Helper()
		for left := want - l.Stats().Bytes; left > 0; left = want - l.Stats().Bytes {
			if fired(l) {
				t.Fatalf("Full at %d bytes, below the %d-byte trigger", want-left, want)
			}
			n := left // the frame that lands on want
			if left > 1<<10 {
				n = min(1<<10, left-2*headerSize) // leaves room for one more frame
			}
			appendAll(l, [][]byte{bytes.Repeat([]byte("a"), int(n-headerSize))})
			commit(t, l)
		}
		if !fired(l) {
			t.Fatalf("no signal at the %d-byte trigger", want)
		}
	}
	more := func(t *testing.T, l *Log) {
		t.Helper()
		appendAll(l, records(0, 3))
		commit(t, l)
	}
	cases := []struct {
		name     string
		segment  int64
		snapshot int  // bytes of state in the snapshot document
		scaled   bool // twice the snapshot is the larger
	}{
		{"segment above twice the snapshot", 8 << 10, 1 << 10, false},
		{"twice the snapshot above the segment", 4 << 10, 6 << 10, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{SegmentBytes: tc.segment}
			l, _, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close() //nolint:errcheck // closed below; idempotent
			state := strings.Repeat("s", tc.snapshot)
			compact(t, l, state)
			b := l.Stats().SnapshotBytes
			want := max(tc.segment, 2*b)
			if (2*b > tc.segment) != tc.scaled {
				t.Fatalf("a %d-byte snapshot is on the wrong side of the crossover", b)
			}

			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
			segs := segments(t, dir)
			if got := fileSize(t, filepath.Join(dir, segName(segs[len(segs)-1]))); got != want {
				t.Errorf("Rotate reserved %d bytes, want the %d-byte trigger", got, want)
			}
			l.Abort()

			approach(t, l, want)
			if more(t, l); fired(l) {
				t.Error("second signal for the same crossing")
			}
			l.Abort()
			if more(t, l); !fired(l) {
				t.Error("no signal after the re-arm")
			}

			compact(t, l, state) // same size: the cut keeps its digit count
			if got := l.Stats().SnapshotBytes; got != b {
				t.Fatalf("second snapshot is %d bytes, want %d", got, b)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l, _ = mustOpen(t, dir, opts)
			segs = segments(t, dir)
			if got := fileSize(t, filepath.Join(dir, segName(segs[len(segs)-1]))); got != want {
				t.Errorf("reopened fresh tail reserved %d bytes, want the %d-byte trigger", got, want)
			}
			approach(t, l, want)
		})
	}
}

// TestAppendRefusesAnEmptyRecord: a zero length is how a scan recognizes
// the end of the log, so a frame with no payload must never be written.
func TestAppendRefusesAnEmptyRecord(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	l.Append(l.Buf())
	if err := l.Sync(); !errors.Is(err, errEmptyRecord) {
		t.Errorf("Sync after an empty append = %v", err)
	}
}

// TestAppendRefusesOversizedRecord: Append and the recovery scan agree on
// the largest record. The scan reads a length over maxRecord as the end of
// the log, so such a record, written, would take every record behind it —
// acknowledged and synced ones included — out of recovery. The log refuses
// it before it is queued and ends there, loudly: what was synced before
// comes back and nothing behind the refusal is written.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	durable := records(0, 3)
	appendAll(l, durable)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	b := l.Buf()
	b.Grow(maxRecord + 1) // one allocation, not a doubling series
	for chunk := bytes.Repeat([]byte("x"), 1<<20); b.Len() <= headerSize+maxRecord; {
		b.Write(chunk[:min(len(chunk), headerSize+maxRecord+1-b.Len())])
	}
	size := b.Len() - headerSize
	l.Append(b)
	if err := l.Sync(); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("Sync after a %d-byte append = %v, want ErrRecordTooLarge", size, err)
	}
	appendAll(l, records(3, 6)) // behind the refusal: never written
	if err := l.Close(); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("Close = %v, want the sticky ErrRecordTooLarge", err)
	}
	_, rec := mustOpen(t, dir, Options{})
	wantRecords(t, rec, durable)
}

// TestCloseIsIdempotentAndFinal: appends and syncs after Close are dropped
// without blocking, and a second Close reports what the first did.
func TestCloseIsIdempotentAndFinal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendAll(l, records(0, 2))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	appendAll(l, records(2, 3))
	if err := l.Sync(); err != nil {
		t.Error(err)
	}
	if _, ok := l.Cut(); ok {
		t.Error("Cut succeeded on a closed log")
	}
	if err := l.Close(); err != nil {
		t.Error(err)
	}
	_, rec := mustOpen(t, dir, Options{})
	wantRecords(t, rec, records(0, 2))
}

// FuzzScan feeds arbitrary bytes to the segment scan — whatever a crash, a
// bad disk or another program left where a segment should be: it never
// panics, never allocates past the file size, accepts a prefix that is
// exactly the concatenation of the frames of the payloads it returns, and
// scanning that prefix again returns the same payloads. The seeds are the
// crash matrix's torn tails. The bytes it reads are on disk, so CI fuzzes
// it twice as long as the rest.
//
//ci:fuzztime 20s
func FuzzScan(f *testing.F) {
	var clean []byte
	for _, p := range records(0, 6) {
		clean = append(clean, frame(p)...)
	}
	f.Add(clean)
	f.Add([]byte{})
	for _, tail := range tornTails {
		f.Add(tail)
		f.Add(append(bytes.Clone(clean), tail...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		payloads, valid := scan(bytes.NewReader(b), int64(len(b)))
		if valid < 0 || valid > int64(len(b)) {
			t.Fatalf("valid = %d of %d bytes", valid, len(b))
		}
		var again []byte
		total := 0
		for _, p := range payloads {
			again = append(again, frame(p)...)
			total += len(p)
		}
		if total > len(b) {
			t.Fatalf("%d payload bytes out of a %d-byte segment", total, len(b))
		}
		if !bytes.Equal(again, b[:valid]) {
			t.Fatalf("re-framing the payloads gives %x, the valid prefix is %x", again, b[:valid])
		}
		if p2, v2 := scan(bytes.NewReader(b[:valid]), valid); v2 != valid || !reflect.DeepEqual(p2, payloads) {
			t.Fatalf("rescanning the valid prefix: %d bytes, %d payloads; first scan %d, %d", v2, len(p2), valid, len(payloads))
		}
	})
}

// BenchmarkLogAppend is the "WAL encode → fdatasync" rung on its own: one
// pooled Buf + Append of a 2 KiB payload per op, the writer group-committing
// behind it. 0 allocs/op in steady state.
func BenchmarkLogAppend(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{SegmentBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close() //nolint:errcheck // benchmark teardown
	payload := bytes.Repeat([]byte("r"), 2<<10)
	for i := 0; i < 2*queueDepth; i++ { // warm the buffer pool
		buf := l.Buf()
		buf.Write(payload)
		l.Append(buf)
	}
	if err := l.Sync(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(headerSize + len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := l.Buf()
		buf.Write(payload)
		l.Append(buf)
	}
	b.StopTimer()
	if err := l.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLogSync is the durability wait: one record, then wait for
// it to be on disk.
func BenchmarkLogSync(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{SegmentBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close() //nolint:errcheck // benchmark teardown
	payload := bytes.Repeat([]byte("r"), 2<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := l.Buf()
		buf.Write(payload)
		l.Append(buf)
		if err := l.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}
