package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshot files are snap-<wal seq, 16 digits>.snap: a magic line, then
// a sequence of CRC frames holding one stream of values — uvarints,
// strings (uvarint length + bytes) and raw little-endian float64s — cut
// between values wherever a frame would pass the cap, so neither a site
// nor the image has a size ceiling. imageCodec.state is the layout: a
// header, per dataset and site a record block (n, n keys, n values)
// ending its frame, then the number of frames so far in a trailer frame.
// The CRCs catch a bit-rotted snapshot and the trailer a truncated one.
const (
	snapMagic       = "BOHRSNAP3\n"
	snapMagicFamily = "BOHRSNAP"
	snapPrefix      = "snap-"
	snapSuffix      = ".snap"
)

// ErrSnapshotFormat reports a snapshot in a format this build does not
// read. Recovery stops on it: the WAL prefix it covers is already pruned.
var ErrSnapshotFormat = errors.New("durable: unsupported snapshot format")

// frameCap is the payload size frames are cut at. A variable only so a
// test can make a small state span many frames.
var frameCap = MaxFramePayload

func snapName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix)
}

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(snapPrefix):len(name)-len(snapSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// imageCodec carries a State to or from its value stream. One walk,
// state, describes the layout; each value method writes its argument
// when enc is set and reads into it otherwise, so the two directions
// cannot drift apart. Encoding hands each frame to w as it is cut, so
// only one payload, in a buffer kept between checkpoints, is ever held.
// The first failure sticks: later writes are dropped and later reads yield
// zeros.
type imageCodec struct {
	enc    bool
	buf    []byte    // encoding: the payload being built
	w      io.Writer // encoding: where the magic line and finished frames go
	size   int64     // encoding: bytes handed to w
	data   []byte    // decoding: the frames not yet opened
	p      []byte    // decoding: what is left of the open frame's payload
	s      string    // decoding: that payload, for strings to be cut from
	frames uint64    // frames written or opened
	err    error
}

func (c *imageCodec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("frame %d: "+format, append([]any{c.frames}, args...)...)
	}
	c.data, c.p = nil, nil
}

// write, encoding, hands bytes to w; nothing follows a failure.
func (c *imageCodec) write(b []byte) {
	if c.err != nil {
		return
	}
	n, err := c.w.Write(b)
	if c.size += int64(n); err != nil {
		c.fail("%w", err)
	}
}

// flush, encoding, ends the payload being built, if any: it goes out as a
// frame and the next one starts.
func (c *imageCodec) flush() {
	if c.enc && len(c.buf) > 0 {
		hdr := frameHeader(c.buf)
		c.write(hdr[:])
		c.write(c.buf)
		c.buf, c.frames = c.buf[:0], c.frames+1
	}
}

// room, encoding, starts another frame unless this one takes n more
// bytes — no value is split across frames — and, decoding, opens the next
// frame once the open one is used up.
func (c *imageCodec) room(n int) {
	if c.enc {
		if n > frameCap {
			c.fail("value of %d bytes over frame cap %d", n, frameCap)
		}
		if len(c.buf)+n > frameCap {
			c.flush()
		}
		return
	}
	if len(c.p) > 0 || c.err != nil {
		return
	}
	p, rest, err := DecodeFrame(c.data)
	if err != nil {
		c.fail("%w", err)
		return
	}
	c.data, c.p, c.s, c.frames = rest, p, string(p), c.frames+1
}

func (c *imageCodec) uvarint(v *uint64) {
	c.room(binary.MaxVarintLen64)
	if c.enc {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	x, n := binary.Uvarint(c.p)
	if n <= 0 {
		c.fail("bad uvarint")
		x, n = 0, 0
	}
	*v, c.p = x, c.p[n:]
}

// sized carries a slice's length and, decoding, makes the slice — once
// the length is checked against the bytes the file has left, of which an
// item takes at least min.
func sized[T any](c *imageCodec, s *[]T, min int) {
	n := uint64(len(*s))
	c.uvarint(&n)
	if !c.enc && n > uint64((len(c.p)+len(c.data))/min) {
		c.fail("length %d over the bytes left", n)
	} else if !c.enc && n > 0 {
		*s = make([]T, n)
	}
}

// str, decoding, cuts the string out of the one copy made of its frame.
func (c *imageCodec) str(s *string) {
	if c.enc {
		c.room(binary.MaxVarintLen64 + len(*s))
		c.buf = append(binary.AppendUvarint(c.buf, uint64(len(*s))), *s...)
		return
	}
	var n uint64
	if c.uvarint(&n); n > uint64(len(c.p)) {
		c.fail("string of %d bytes, %d left in its frame", n, len(c.p))
		n = 0
	}
	at := len(c.s) - len(c.p)
	*s, c.p = c.s[at:at+int(n)], c.p[n:]
}

func (c *imageCodec) f64(v *float64) {
	c.room(8)
	if c.enc {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
	} else if len(c.p) < 8 {
		c.fail("float64 with %d bytes left in its frame", len(c.p))
	} else {
		*v, c.p = math.Float64frombits(binary.LittleEndian.Uint64(c.p)), c.p[8:]
	}
}

func (c *imageCodec) state(st *State) {
	c.uvarint(&st.WalSeq)
	batches := uint64(st.IngestBatches)
	if c.uvarint(&batches); !c.enc {
		st.IngestBatches = int(batches)
	}
	sized(c, &st.Sources, 3)
	for i := range st.Sources {
		so := &st.Sources[i]
		c.str(&so.Source)
		c.uvarint(&so.Watermark)
		sized(c, &so.Above, 1)
		for j := range so.Above {
			c.uvarint(&so.Above[j])
		}
	}
	sized(c, &st.Datasets, 2)
	c.flush()
	for i := range st.Datasets {
		ds := &st.Datasets[i]
		c.str(&ds.Name)
		sized(c, &ds.Records, 1)
		for j := range ds.Records {
			sized(c, &ds.Records[j], 9)
			recs := ds.Records[j]
			for k := range recs {
				c.str(&recs[k].Key)
			}
			for k := range recs {
				c.f64(&recs[k].Val)
			}
			c.flush()
		}
	}
	// The trailer is alone in the last frame and counts those before it.
	c.flush()
	n, left := c.frames, len(c.p)
	c.uvarint(&n)
	if !c.enc && (left != 0 || n != c.frames-1 || len(c.p)+len(c.data) != 0) {
		c.fail("bad trailer: %w", ErrTornFrame)
	}
	c.flush()
}

// encode writes the snapshot file for st to w — the magic line, then each
// frame as it is cut — and returns the bytes written.
func (c *imageCodec) encode(w io.Writer, st *State) (int64, error) {
	c.enc, c.w, c.buf, c.size, c.frames, c.err = true, w, c.buf[:0], 0, 0, nil
	c.write([]byte(snapMagic))
	c.state(st)
	c.enc, c.w = false, nil
	return c.size, c.err
}

// decodeImage reads the frames after the magic line back into a State.
func decodeImage(data []byte) (*State, error) {
	c, st := imageCodec{data: data}, &State{}
	c.state(st)
	return st, c.err
}

// writeFile persists st atomically and returns the file's size: stream
// the frames to a temp file, fsync it, rename into place, fsync the
// directory. A crash or a failure at any point — a write error, a value
// no frame can hold — leaves either the old set of snapshots or the old
// set plus a complete new one — never a visible partial file. A failed
// directory fsync fails the call: the rename may not survive a power
// loss, so the caller must prune nothing the new file covers.
func (c *imageCodec) writeFile(dir string, st *State) (int64, error) {
	final := filepath.Join(dir, snapName(st.WalSeq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("durable: snapshot create: %w", err)
	}
	size, err := c.encode(f, st)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("durable: snapshot write: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, fmt.Errorf("durable: snapshot dir sync: %w", err)
	}
	return size, nil
}

// readSnapshotFile loads and validates one snapshot file.
func readSnapshotFile(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	if !bytes.HasPrefix(data, []byte(snapMagic)) {
		if line, _, _ := bytes.Cut(data, []byte("\n")); bytes.HasPrefix(line, []byte(snapMagicFamily)) {
			return nil, fmt.Errorf("durable: snapshot %s: %w: file is %q, not %q", name, ErrSnapshotFormat, line, snapMagic)
		}
		return nil, fmt.Errorf("durable: snapshot %s: bad magic", name)
	}
	st, err := decodeImage(data[len(snapMagic):])
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: %w", name, err)
	}
	return st, nil
}

// loadLatestSnapshot returns the newest valid snapshot in dir, or nil
// if none exists. Corrupt snapshots are skipped with their names
// reported — whether the WAL still holds what they covered is for
// Replay's gap check to say — but one in another format stops the load.
func loadLatestSnapshot(dir string) (st *State, skipped []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: snapshot scan: %w", err)
	}
	type cand struct {
		name string
		seq  uint64
	}
	var cands []cand
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSnapName(e.Name()); ok {
			cands = append(cands, cand{e.Name(), seq})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq > cands[j].seq })
	for _, c := range cands {
		st, err := readSnapshotFile(filepath.Join(dir, c.name))
		if errors.Is(err, ErrSnapshotFormat) {
			return nil, skipped, err
		}
		if err != nil {
			skipped = append(skipped, c.name)
			continue
		}
		return st, skipped, nil
	}
	return nil, skipped, nil
}

// pruneSnapshots removes snapshots older than keepSeq (the newest one
// always stays, as do any newer — there should be none).
func pruneSnapshots(dir string, keepSeq uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("durable: snapshot prune: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSnapName(e.Name()); ok && seq < keepSeq {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("durable: snapshot prune: %w", err)
			}
		}
	}
	return nil
}
