package wal

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// snapshotCutKey is the one member of the snapshot document the log owns.
// The caller's encoder emits it first, with the value Cut returned; Open
// reads it back. Everything else in the payload is opaque here.
const snapshotCutKey = "cut_seq"

// maxSnapshotPayload is the largest payload the snapshot's frame header can
// describe (a uint32 length). A variable only so a test can lower it.
var maxSnapshotPayload int64 = math.MaxUint32

// snapWriteBuffer sizes the buffered writer the snapshot streams through:
// with payload pieces of a few KiB each, this turns thousands of small
// writes into a few dozen CRC updates and write syscalls.
const snapWriteBuffer = 256 << 10

// Rotate is step 1 of a compaction (package comment: Compaction): it
// creates the next segment, reserves its space — the size trigger as the
// committed snapshot sets it now — and makes both durable. The writer keeps
// appending to the current segment until Cut.
func (l *Log) Rotate() error {
	path := filepath.Join(l.dir, segName(l.seq.Load()+1))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	l.next = f
	// Preallocate before the fsync so the reservation is durable with the
	// file.
	if err := fpPrealloc.Fire(); err != nil {
		return fmt.Errorf("wal: preallocating segment: %w", err)
	}
	preallocate(f, scaled(l.prealloc, l.snapBytes.Load()))
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := fsyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	return nil
}

// Cut is step 2: it enqueues the rotation barrier and returns the cut, the
// sequence number of the segment Rotate prepared. Every record appended
// before Cut returns lands in a segment below the cut, every later one at
// or above it. ok is false when the log is already closed.
func (l *Log) Cut() (cut int64, ok bool) {
	rot := &rotation{f: l.next, done: make(chan struct{})}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, false
	}
	l.ch <- message{rotate: rot}
	l.next, l.rot = nil, rot
	return l.seq.Load() + 1, true
}

// Wait is step 3: it blocks until the writer has passed the barrier — the
// segments below the cut are durable and sealed, appends land in the new
// one.
func (l *Log) Wait() {
	<-l.rot.done
	// One more live segment, and the retired tail's bytes move from the
	// active size into the sealed total.
	l.seq.Add(1)
	l.sealed.Add(l.rot.retired)
	l.rot = nil
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

// WriteSnapshot is step 4: it makes the state the caller captured at the
// cut durable. encode streams the document, "cut_seq" first; write errors
// stick to the writer it is handed and surface at the flush. A crash or a
// failure anywhere before the rename leaves the previous snapshot (or none)
// in force, with every segment it needs still on disk.
func (l *Log) WriteSnapshot(encode func(*bufio.Writer)) error {
	if err := fpSnapshot.Fire(); err != nil {
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	tmp := filepath.Join(l.dir, snapTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating snapshot: %w", err)
	}
	var hdr [headerSize]byte
	_, werr := f.Write(hdr[:]) // placeholder, patched below
	payload := &snapPayload{f: f}
	if werr == nil {
		bw := bufio.NewWriterSize(payload, snapWriteBuffer)
		encode(bw)
		werr = bw.Flush()
	}
	if werr == nil {
		sealHeader(hdr[:], uint32(payload.n), payload.crc) // n <= maxSnapshotPayload
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
		return fmt.Errorf("wal: writing snapshot: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, SnapshotName)); err != nil {
		return fmt.Errorf("wal: committing snapshot: %w", err)
	}
	l.snapBytes.Store(headerSize + payload.n)
	return fsyncDir(l.dir)
}

// Prune is step 5: it deletes the segments the committed snapshot covers.
// A crash mid-delete just leaves some for the next Open to clear, and so
// does a failed Remove. The floor keeps the loop from re-unlinking every
// seq since the dawn of the log on each compaction.
func (l *Log) Prune() {
	for seq := l.floor.Load(); seq < l.seq.Load(); seq++ {
		os.Remove(filepath.Join(l.dir, segName(seq))) //nolint:errcheck // covered by the snapshot either way
	}
	// Only the fresh active segment remains replay-relevant.
	l.floor.Store(l.seq.Load())
	l.sealed.Store(0)
}

// Abort ends a compaction that failed, at whatever step: a barrier still
// in flight is waited for (after Cut there is nothing to undo), a segment
// Rotate prepared and Cut never handed to the writer is removed, and the
// size trigger is re-armed — without that, one transient error would
// disable Full for the rest of the segment's life.
func (l *Log) Abort() {
	if l.rot != nil {
		l.Wait()
	}
	if l.next != nil {
		l.next.Close()           //nolint:errcheck // already failing
		os.Remove(l.next.Name()) //nolint:errcheck // best-effort cleanup
		l.next = nil
	}
	l.notified.Store(false)
}
