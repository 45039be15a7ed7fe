//go:build linux

package wal

import (
	"os"
	"syscall"
)

// fdatasync flushes f's data (and the metadata needed to read it back —
// size, extent allocations) without forcing the file's mtime/ctime into
// the journal the way File.Sync does. For a CRC-framed log the timestamps
// carry no recovery information, so journaling them on every group commit
// is pure overhead; combined with segment preallocation the common-case
// commit is a data-only flush.
func fdatasync(f *os.File) error {
	return syscall.Fdatasync(int(f.Fd()))
}

// preallocate reserves size bytes for f up front so steady-state appends
// never extend the file. Fallocate keeps the reported file size AND
// reserves extents (writes only flip unwritten extents, no allocation in
// the fsync path); filesystems without it fall back to a sparse Truncate,
// which still pins the size so fdatasync skips i_size updates. Best-effort
// either way: recovery tolerates both exact-sized and zero-filled tails.
func preallocate(f *os.File, size int64) {
	if err := syscall.Fallocate(int(f.Fd()), 0, 0, size); err != nil {
		f.Truncate(size) //nolint:errcheck // best-effort fallback
	}
}
