package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
)

// File names of a data dir (package comment: On disk).
const (
	SegmentName  = "exchange.wal" // segment 1
	SnapshotName = "exchange.snap"
	segPrefix    = "exchange-" // rotated segments: exchange-NNNNNN.wal
	segSuffix    = ".wal"
	snapTmpName  = "exchange.snap.tmp"
	lockName     = "exchange.lock"
)

// segName returns the file name of a log segment.
func segName(seq int64) string {
	if seq == 1 {
		return SegmentName
	}
	return fmt.Sprintf("%s%06d%s", segPrefix, seq, segSuffix)
}

// parseSegName inverts segName; ok is false for any other file name.
func parseSegName(name string) (seq int64, ok bool) {
	if name == SegmentName {
		return 1, true
	}
	n, _ := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &seq)
	return seq, n == 1 && seq >= 2 && name == segName(seq)
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
	return errors.Join(d.Sync(), d.Close())
}

// lockDir takes the data dir's exclusive advisory lock for the log's
// lifetime (released when the fd closes), failing fast when it is held.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("wal: data dir %s is locked by another process: %w", dir, err)
	}
	return f, nil
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

// readSnapshot loads and verifies the data dir's snapshot and reads the
// cut back out of it; a dir that has none yields a nil payload and cut 1.
func readSnapshot(dir string) (payload []byte, cut int64, err error) {
	f, err := os.Open(filepath.Join(dir, SnapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 1, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close() //nolint:errcheck // only read
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	payload, err = readFrame(f, st.Size(), maxSnapshotPayload)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: snapshot is corrupt: %w", err)
	}
	if headerSize+int64(len(payload)) != st.Size() {
		return nil, 0, errors.New("wal: snapshot is corrupt: bytes past the end of its frame")
	}
	// cut_seq is the document's first member, spelled like this, in
	// everything that ever wrote one; reading it back must not cost a parse
	// of the whole snapshot.
	rest, ok := bytes.CutPrefix(payload, []byte(`{"`+snapshotCutKey+`":`))
	end := bytes.IndexAny(rest, ",}")
	if !ok || end < 0 {
		return nil, 0, fmt.Errorf("wal: snapshot does not begin with its %s", snapshotCutKey)
	}
	if cut, err = strconv.ParseInt(string(rest[:end]), 10, 64); err != nil || cut < 1 {
		return nil, 0, fmt.Errorf("wal: snapshot has invalid cut %q", rest[:end])
	}
	return payload, cut, nil
}

// Recovery is what Open found on disk, for the caller to replay: the
// snapshot first, then every record of every live segment, in order.
type Recovery struct {
	// Snapshot is the verified snapshot payload, nil when the dir has none.
	Snapshot []byte
	// Segments are the live segments, oldest first.
	Segments []Segment
}

// Segment is one live segment's records, in append order.
type Segment struct {
	Seq     int64
	Records [][]byte

	valid    int64 // end of the last valid frame
	size     int64 // file size
	zeroTail bool  // every byte past valid, if any, is zero (preallocated fill)
}

func scanSegment(dir string, seq int64) (Segment, error) {
	s := Segment{Seq: seq, zeroTail: true}
	f, err := os.Open(filepath.Join(dir, segName(seq)))
	if err != nil {
		return s, err
	}
	defer f.Close() //nolint:errcheck // only read
	st, err := f.Stat()
	if err != nil {
		return s, err
	}
	s.size = st.Size()
	s.Records, s.valid = scan(f, s.size)
	if s.size > s.valid {
		s.zeroTail, err = zeroFrom(f, s.valid)
	}
	return s, err
}

// Open locks dir (created if absent), recovers what a previous process —
// cleanly closed or killed at any instant — left in it (package comment:
// Recovery), and starts a log appending to its tail. Every payload that
// survived is returned for the caller to replay; a caller that cannot
// replay them should Close the log and fail.
func Open(dir string, opts Options) (_ *Log, _ *Recovery, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating data dir: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			lock.Close() //nolint:errcheck // already failing
		}
	}()
	os.Remove(filepath.Join(dir, snapTmpName)) //nolint:errcheck // best-effort cleanup

	snap, startSeq, err := readSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: listing segments: %w", err)
	}
	// Scan every live segment first, then decide where the effective tail
	// is.
	var scans []Segment
	for _, seq := range segs {
		if seq < startSeq {
			if err := os.Remove(filepath.Join(dir, segName(seq))); err != nil {
				return nil, nil, fmt.Errorf("wal: removing stale segment: %w", err)
			}
			continue
		}
		if want := startSeq + int64(len(scans)); seq != want {
			return nil, nil, fmt.Errorf("wal: segment %d missing (found %d)", want, seq)
		}
		s, err := scanSegment(dir, seq)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reading segment %d: %w", seq, err)
		}
		scans = append(scans, s)
	}
	if len(scans) == 0 {
		// Fresh dir (or the snapshot's tail segment was never written to and
		// lost): an empty tail at the cut, created below.
		scans = []Segment{{Seq: startSeq}}
	}
	tailIdx := len(scans) - 1
	written := func(s Segment) bool { return len(s.Records) > 0 || !s.zeroTail }
	for i := range scans[:tailIdx] {
		if scans[i].zeroTail {
			continue // clean non-last segment (exact or zero-filled prealloc)
		}
		if slices.ContainsFunc(scans[i+1:], written) {
			return nil, nil, fmt.Errorf("wal: segment %d is corrupt before its end", scans[i].Seq)
		}
		tailIdx = i // crash mid-rotation: torn segment + record-free successors
		break
	}
	for _, orphan := range scans[tailIdx+1:] {
		if err := os.Remove(filepath.Join(dir, segName(orphan.Seq))); err != nil {
			return nil, nil, fmt.Errorf("wal: removing orphaned segment %d: %w", orphan.Seq, err)
		}
	}
	scans = scans[:tailIdx+1]

	// Open the effective tail for appending, write offset parked at the end
	// of its last valid frame.
	tail := &scans[tailIdx]
	f, err := os.OpenFile(filepath.Join(dir, segName(tail.Seq)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening segment %d: %w", tail.Seq, err)
	}
	var snapBytes int64
	if snap != nil {
		snapBytes = headerSize + int64(len(snap))
	}
	if tail.size == 0 {
		// A brand-new tail (fresh dir, or a post-cut segment that was never
		// written) gets the full reservation, like every segment Rotate
		// creates.
		preallocate(f, scaled(reservation(opts), snapBytes))
	} else if tail.size > tail.valid {
		// Cuts torn garbage AND preallocated zero-fill alike.
		err = f.Truncate(tail.valid)
	}
	if err == nil {
		_, err = f.Seek(tail.valid, io.SeekStart)
	}
	if err == nil {
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	}
	if err != nil {
		f.Close() //nolint:errcheck // already failing
		return nil, nil, fmt.Errorf("wal: preparing segment %d: %w", tail.Seq, err)
	}

	l := start(dir, lock, f, tail.valid, snapBytes, opts)
	l.seq.Store(tail.Seq)
	l.floor.Store(scans[0].Seq)
	// Seed the byte gauge from the scan: the sealed segments (all but the
	// tail) count by their valid bytes — size would overcount a zero-filled
	// reservation.
	for _, s := range scans[:tailIdx] {
		l.sealed.Add(s.valid)
	}
	return l, &Recovery{Snapshot: snap, Segments: scans}, nil
}
