//go:build !linux

package wal

import "os"

// fdatasync falls back to a full File.Sync where the data-only flush is
// not available; the durable contract is identical, only the per-commit
// metadata journaling cost differs.
func fdatasync(f *os.File) error {
	return f.Sync()
}

// preallocate extends f to size with a sparse truncate so steady-state
// appends never move the file size. Best-effort: recovery tolerates both
// exact-sized and zero-filled tails.
func preallocate(f *os.File, size int64) {
	f.Truncate(size) //nolint:errcheck // best-effort
}
