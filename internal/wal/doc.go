// Package wal is a segmented, CRC-framed write-ahead log with a snapshot:
// the only code that knows what a data dir looks like on disk. Payloads go
// in and come out as opaque bytes — what a record or a snapshot means, and
// how it replays, is the caller's (internal/exchange keeps its auction
// history in one Log).
//
// # On disk
//
//	exchange.lock        advisory flock, held from Open to Close
//	exchange.wal         segment 1 (the pre-rotation single-file name, so
//	                     data dirs older than rotation open unchanged)
//	exchange-NNNNNN.wal  segment N >= 2
//	exchange.snap        the snapshot
//	exchange.snap.tmp    a snapshot that has not committed
//
// A segment is a run of frames and the snapshot is exactly one:
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// The snapshot's payload is a JSON document whose first member, "cut_seq",
// is the log's: the first segment the snapshot does not cover. The state
// of the log is the snapshot plus every segment from the cut on; segments
// below the cut are garbage.
//
// # Appending
//
// Append never waits for the disk: the caller builds a payload in a pooled
// buffer (Buf), Append seals the header in place and hands the frame to the
// writer goroutine over a bounded channel; the writer coalesces whatever is
// queued into one write syscall and settles it with one fdatasync (data
// plus size, not timestamps; plain Sync off Linux). Group commit is
// adaptive. While nobody waits on durability the writer holds each commit
// open for a fixed 2 ms: the hold delays nobody, it turns a trickle of
// records into one fsync instead of one each, and it is the crash-loss
// cap — a kill -9 loses at most that window plus one fsync of
// acknowledged-but-unflushed records, and never tears what an earlier fsync
// settled. The moment a Sync or Close is waiting, the writer instead
// commits as soon as the queue is momentarily empty, so records racing in
// behind the waiter share its fsync and a synced record is durable as fast
// as the disk allows.
//
// The size trigger (Full) fires once the active segment reaches
// Options.SegmentBytes or twice the committed snapshot, whichever is
// larger, so a compaction writes at most half a snapshot byte per log byte
// it retires while the snapshot holds its size. Segments are created with
// that same size reserved — by Rotate, and for a fresh tail by Open, from
// the snapshot committed when they do (preallocate has the how and the
// why) — and trimmed to their logical size when sealed or cleanly closed;
// only a crash leaves zero-fill on disk. Rotate runs before its
// compaction's snapshot is written, so a segment whose new snapshot came
// out larger grows past its reservation by twice the difference before it
// retires.
//
// # Compaction, in crash-safe order
//
// A compaction replaces everything below a cut with one snapshot. The
// caller drives it step by step, because only the caller knows what must
// stand still while its state is captured:
//
//  1. Rotate creates the next segment, reserves its space and fsyncs file
//     and dir.
//  2. Cut sends the rotation barrier down the channel appends take, so the
//     split is exactly enqueue order: a caller that holds its own writers
//     still across Cut and the capture of its state has a snapshot of
//     precisely "everything below the cut".
//  3. The writer reaches the barrier: it fsyncs and trims the retiring
//     segment, and only then writes to the new one (Wait returns). A crash
//     between here and step 4 replays old segments plus new tail, which
//     only works if no old record was lost.
//  4. WriteSnapshot streams the payload to exchange.snap.tmp behind a
//     placeholder header, patches in the streamed length and CRC, fsyncs,
//     renames over exchange.snap — the commit point — and fsyncs the dir.
//     A payload the uint32 length cannot describe is refused before it.
//  5. Prune deletes the segments below the cut.
//
// A kill between any two steps leaves either the previous snapshot (or
// none) with every segment it needs, or the new snapshot with its tail. A
// failure at any step is ended with Abort; a rotation that already happened
// simply stands (more segments, same state).
//
// # Recovery
//
// Open takes the lock (two processes appending to one log would interleave
// frames and read as corruption), then sorts what a crash may have left:
// exchange.snap.tmp is deleted; the snapshot must verify — a corrupt one is
// an error, never "no snapshot", because segments it covers may already be
// gone; segments below its cut are deleted; the rest must be consecutive.
// Every live segment is scanned to the first frame that does not verify —
// a length of zero, beyond what is left of the file, or over 64 MiB; a
// short read; a checksum mismatch — and what lies behind that point decides:
//
//   - all zero: reservation whose trim was not durable. Clean end of segment.
//   - anything else in the last segment: a torn append. Truncated.
//   - anything else in an earlier segment, every later one record-free
//     (empty or pure zero-fill): a power loss between steps 1 and 3 — the
//     rotation never happened. The torn segment is the tail; the orphaned
//     successors are deleted.
//   - anything else in an earlier segment, any later one written:
//     impossible by the barrier's ordering. An error, not a guess.
//
// The tail is truncated to its last valid frame (a crash-reopened tail
// runs unpreallocated until its next rotation, so file sizes stay honest),
// flocked — binaries older than exchange.lock lock exchange.wal itself, and
// without this a version-skewed pair could append to one segment — and
// appending resumes. A frame is valid by length and checksum alone: a
// payload that verifies but means nothing to the caller is the caller's to
// refuse, and recovery never destroys a frame that verified.
//
// # Failure
//
// The first error on the live log — a failed write, fdatasync, segment
// seal or file close, a record Append refuses because the recovery scan
// would not read it back (empty, or over the 64 MiB record bound:
// ErrRecordTooLarge), or one the caller reports with Fail because it could
// not encode a record — is sticky. From then on the writer writes nothing:
// a log that ends early replays correctly, a log with a gap does not. It
// keeps draining its queue, so appenders never wedge on a full channel.
// The error and its time are published as one atomic value; Options.OnFail
// runs exactly once, with that first error; Err, Sync and Close return it
// for as long as the process lives. Errors of a compaction step are not
// sticky: they are returned, and Abort cleans up.
package wal
