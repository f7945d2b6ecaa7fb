// Package durable gives one bohrd site crash-safe state: a per-site
// write-ahead log of acknowledged ingest records plus periodic snapshots
// of the applied state, with a recovery path that loads the newest valid
// snapshot and replays the WAL tail through the at-least-once offset
// dedupe — so replay is exactly-once, and nothing a client has seen
// acknowledged is lost by a kill -9.
//
// The WAL reuses the ingest wire codec for payloads (one frame = the
// EncodeBatch rendering of one acknowledged push), framed with a length
// and a CRC32C so a torn tail — the half-written frame a crash mid-write
// leaves behind — is detected and truncated, never mis-replayed.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// frameHeaderLen is the fixed frame prefix: uint32 payload length +
// uint32 CRC32C of the payload, both little-endian.
const frameHeaderLen = 8

// MaxFramePayload bounds one frame's payload. The largest legitimate
// payload is one pushed batch (the HTTP endpoint caps request bodies at
// 8 MiB), so anything above this is a corrupt length field, not data —
// the cap is what keeps a garbage length from provoking a huge
// allocation during recovery.
const MaxFramePayload = 16 << 20

// ErrTornFrame reports a frame that cannot be whole: a truncated header
// or payload, an impossible length, or a checksum mismatch. Recovery
// treats it as the torn tail of the log and truncates there.
var ErrTornFrame = errors.New("durable: torn or corrupt frame")

// castagnoli is the CRC32C table (the polynomial storage systems use;
// hardware-accelerated by hash/crc32 where available).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame appends one framed payload to dst and returns the extended
// slice: [uint32 len][uint32 crc32c(payload)][payload].
func EncodeFrame(dst, payload []byte) []byte {
	hdr := frameHeader(payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// frameHeader is the length and checksum that precede payload in its frame.
func frameHeader(payload []byte) (hdr [frameHeaderLen]byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return hdr
}

// DecodeFrame reads one frame from the head of data, returning the
// payload (aliasing data — copy it to retain) and the bytes after the
// frame. Any impossibility — short header, length over MaxFramePayload,
// truncated payload, checksum mismatch — is ErrTornFrame; DecodeFrame
// never panics on arbitrary input.
func DecodeFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameHeaderLen {
		return nil, nil, fmt.Errorf("%w: %d header bytes of %d", ErrTornFrame, len(data), frameHeaderLen)
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n > MaxFramePayload {
		return nil, nil, fmt.Errorf("%w: length %d over cap %d", ErrTornFrame, n, MaxFramePayload)
	}
	if uint64(len(data)-frameHeaderLen) < uint64(n) {
		return nil, nil, fmt.Errorf("%w: %d payload bytes of %d", ErrTornFrame, len(data)-frameHeaderLen, n)
	}
	payload = data[frameHeaderLen : frameHeaderLen+int(n)]
	want := binary.LittleEndian.Uint32(data[4:8])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrTornFrame, got, want)
	}
	return payload, data[frameHeaderLen+int(n):], nil
}
