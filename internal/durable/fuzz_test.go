package durable

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzWALFrame throws arbitrary bytes at the frame codec and the WAL
// tail scanner. Three properties must hold for every input:
//
//  1. DecodeFrame never panics, and any frame it accepts re-encodes to
//     exactly the bytes it consumed.
//  2. Any payload encodes to a frame that decodes back byte-identically
//     with nothing left over.
//  3. A WAL holding known-good frames with the input appended as a torn
//     tail recovers every intact frame and never invents or reorders
//     records — garbage is truncated, not mis-replayed.
func FuzzWALFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello"))
	f.Add(EncodeFrame(nil, []byte("payload bytes")))
	f.Add(EncodeFrame(nil, []byte("ab"))[:5])
	flipped := EncodeFrame(nil, []byte("xyz"))
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	f.Add(make([]byte, 64))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: decode total, accepted prefixes re-encode exactly.
		payload, rest, err := DecodeFrame(data)
		if err == nil {
			consumed := len(data) - len(rest)
			re := EncodeFrame(nil, payload)
			if !bytes.Equal(re, data[:consumed]) {
				t.Fatalf("accepted frame does not re-encode to its input: %x vs %x",
					re, data[:consumed])
			}
		}

		// Property 2: encode/decode round-trip.
		if n := len(data); n > 0 && n <= MaxFramePayload {
			frame := EncodeFrame(nil, data)
			got, tail, err := DecodeFrame(frame)
			if err != nil {
				t.Fatalf("round-trip decode failed: %v", err)
			}
			if len(tail) != 0 || !bytes.Equal(got, data) {
				t.Fatalf("round-trip mismatch: %d tail bytes, payload equal=%v",
					len(tail), bytes.Equal(got, data))
			}
		}

		// Property 3: torn tails truncate, intact frames survive.
		dir := t.TempDir()
		w, _, err := OpenWAL(dir, WALConfig{})
		if err != nil {
			t.Fatalf("opening wal: %v", err)
		}
		want := [][]byte{[]byte("frame-1"), []byte("frame-2"), []byte("frame-3")}
		for _, p := range want {
			if _, err := w.Append(context.Background(), p); err != nil {
				t.Fatalf("appending: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("closing wal: %v", err)
		}
		seg := filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", 1))
		fh, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatalf("opening segment: %v", err)
		}
		if _, err := fh.Write(data); err != nil {
			t.Fatalf("appending garbage: %v", err)
		}
		fh.Close()
		w2, scan, err := OpenWAL(dir, WALConfig{})
		if err != nil {
			t.Fatalf("reopening torn wal: %v", err)
		}
		defer w2.Close()
		if scan.Frames < len(want) {
			t.Fatalf("scan lost intact frames: %d < %d", scan.Frames, len(want))
		}
		var got [][]byte
		if err := w2.Replay(0, func(seq uint64, p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		}); err != nil {
			t.Fatalf("replaying recovered wal: %v", err)
		}
		if len(got) < len(want) {
			t.Fatalf("replay lost frames: %d < %d", len(got), len(want))
		}
		for i, p := range want {
			if !bytes.Equal(got[i], p) {
				t.Fatalf("frame %d mis-replayed: %q vs %q", i+1, got[i], p)
			}
		}
	})
}

// unframe is the fuzz input form of a snapshot image: its frames'
// payloads, each behind a one-byte length, checksums dropped. reframe
// turns any bytes read that way back into an image whose frames all
// pass their CRC, so the fuzzer's mutations reach the block parsers
// instead of dying at the checksum.
func unframe(t testing.TB, image []byte) []byte {
	var out []byte
	for rest := image[len(snapMagic):]; len(rest) > 0; {
		payload, after, err := DecodeFrame(rest)
		if err != nil || len(payload) > 255 {
			t.Fatalf("seed frame: %d bytes, %v", len(payload), err)
		}
		out = append(append(out, byte(len(payload))), payload...)
		rest = after
	}
	return out
}

func reframe(data []byte) []byte {
	var out []byte
	for len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		out = EncodeFrame(out, data[1:1+n])
		data = data[1+n:]
	}
	return out
}

// FuzzSnapshotImage throws arbitrary bytes at the snapshot decoder, raw
// and re-framed with valid checksums. It must never panic, must never
// allocate more than a constant multiple of its input (every count in
// the format is checked against the bytes that remain before anything
// is made for it), and whatever it accepts must encode to an image that
// decodes to the same state.
func FuzzSnapshotImage(f *testing.F) {
	restore := setFrameCap(200) // seed payloads must fit unframe's length byte
	image := encodeImage(f, sampleState(4, 12))
	restore()
	seed := unframe(f, image)
	if _, err := decodeImage(reframe(seed)); err != nil {
		f.Fatalf("seed does not survive unframe/reframe: %v", err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(image[len(snapMagic):])
	f.Add(unframe(f, encodeImage(f, &State{})))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reframe(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := decodeImage(in)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(in)+64<<10); got > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(in), got, limit)
			}
			if err != nil {
				continue
			}
			again, err := decodeImage(encodeImage(t, st)[len(snapMagic):])
			if err != nil {
				t.Fatalf("accepted image does not re-encode: %v", err)
			}
			if dumpState(again) != dumpState(st) {
				t.Fatal("accepted image re-encodes to a different state")
			}
		}
	})
}
