package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// headerSize is the frame header: uint32 LE payload length, uint32 LE
// CRC-32 (IEEE) of the payload. Segments and the snapshot share it.
const headerSize = 8

// maxRecord bounds one segment record's payload. Real records stay far
// below it; the scan reads a length above it as damage, as every earlier
// version of this log read it, so Append refuses to write one
// (ErrRecordTooLarge).
const maxRecord = 64 << 20

// Why a frame did not verify. A segment scan reads every one of them as
// "the log ends here"; the snapshot, which has no tail to fall back on,
// reports them.
var (
	errTorn        = errors.New("frame is cut short")
	errFrameLength = errors.New("frame length is zero or larger than what is left of the file")
	errChecksum    = errors.New("frame payload failed its checksum")
)

// sealHeader writes the header of an n-byte payload with checksum sum into
// hdr[:headerSize]. It is the only writer of frame headers.
func sealHeader(hdr []byte, n uint32, sum uint32) {
	binary.LittleEndian.PutUint32(hdr[0:4], n)
	binary.LittleEndian.PutUint32(hdr[4:8], sum)
}

// readFrame reads and verifies the frame at r's position — the only
// verifier of frame headers. remaining is how many bytes the file still
// holds from there, limit the largest payload the caller accepts. The
// length is checked against both before anything is allocated, so garbage
// where a header should be can never cost more memory than the file is
// long.
func readFrame(r io.Reader, remaining, limit int64) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, errTorn
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if n == 0 || n > limit || n > remaining-headerSize {
		return nil, errFrameLength
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTorn
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errChecksum
	}
	return payload, nil
}

// scan reads the frames of a size-byte segment until its end or the first
// frame that does not verify, and returns their payloads with the offset
// of the last valid frame's end. Everything past that offset is either
// preallocated zero-fill (a zero length is exactly where the scan stops) or
// a write a crash tore; Open tells the two apart.
func scan(r io.Reader, size int64) (payloads [][]byte, valid int64) {
	br := bufio.NewReader(r)
	for {
		payload, err := readFrame(br, size-valid, maxRecord)
		if err != nil {
			return payloads, valid
		}
		payloads = append(payloads, payload)
		valid += headerSize + int64(len(payload))
	}
}
