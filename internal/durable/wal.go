package durable

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// segPrefix/segSuffix name WAL segment files: wal-<first frame seq,
// 16 digits>.seg. Frames are numbered 1.. contiguously across segments,
// so a segment's name plus its frame count determines every seq in it.
const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

// DefaultSegmentBytes is the rotation threshold: large enough that steady
// ingest rarely rotates, small enough that snapshot pruning reclaims space
// promptly.
const DefaultSegmentBytes = 4 << 20

// WALConfig tunes the log.
type WALConfig struct {
	// Fsync makes Append wait for the group-commit fsync before
	// returning — the durability acknowledgement. Off, Append returns
	// after the buffered OS write (fast, loses the tail on power/OS
	// failure but not on process death).
	Fsync bool
	// segmentBytes rotates to a new segment file once the live one
	// exceeds this size (0 = DefaultSegmentBytes): a hook for the
	// package's tests, which rotate after a few frames.
	segmentBytes int64
}

func (cfg WALConfig) withDefaults() WALConfig {
	if cfg.segmentBytes <= 0 {
		cfg.segmentBytes = DefaultSegmentBytes
	}
	return cfg
}

// WALScan summarizes what opening the log found on disk.
type WALScan struct {
	// Segments is how many segment files the log has after the scan.
	Segments int
	// Frames is the total number of valid frames.
	Frames int
	// LastSeq is the last valid frame's sequence number (0 = empty log).
	LastSeq uint64
	// TruncatedBytes is how many torn-tail bytes were cut from the live
	// segment (0 = clean shutdown).
	TruncatedBytes int64
	// DroppedSegments counts segments discarded because they sat after a
	// corrupt frame — unreachable without trusted sequencing. Non-zero
	// means real corruption, not just a torn tail.
	DroppedSegments int
}

// WAL is the append-only, CRC-framed, segment-rotated write-ahead log.
// Append is safe for concurrent use; concurrent appenders share fsyncs
// through leader-based group commit (the first waiter syncs for
// everyone at or below the captured position).
type WAL struct {
	dir string
	cfg WALConfig

	mu       sync.Mutex // guards the fields below
	f        *os.File   // live segment
	size     int64      // live segment's byte size
	seq      uint64     // last assigned frame seq
	firstSeq uint64     // live segment's first frame seq
	err      error      // sticky write/rotation failure
	closed   bool
	// frame is the buffer every append builds its frame in: header and
	// payload, handed to one Write. It keeps the capacity of the largest
	// frame so far (at most MaxFramePayload plus the header).
	frame []byte
	// newName: the live segment's directory entry is not known durable
	// yet; the first fsync that makes a frame in it durable syncs the
	// directory too.
	newName bool

	// Group-commit state. Lock ordering: w.mu may be taken while holding
	// nothing; syncMu may be taken while holding w.mu (rotation advances
	// syncedSeq); never the reverse — the sync leader releases syncMu
	// before capturing (f, seq) under w.mu.
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedSeq uint64
	syncing   bool
	syncErr   error
}

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, firstSeq, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

// syncDir fsyncs a directory, making the entries created or renamed in
// it durable. A variable only so a test can make it fail.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	return err
}

// segmentFiles lists the directory's WAL segments in first-seq order:
// os.ReadDir returns entries sorted by name, and the zero-padded names
// sort as their seqs do.
func segmentFiles(dir string) ([]string, []uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegName(e.Name()); ok {
			names = append(names, e.Name())
			seqs = append(seqs, first)
		}
	}
	return names, seqs, nil
}

// OpenWAL opens (or creates) the log in dir, scanning every segment:
// frames are validated in order, the first torn or corrupt frame
// truncates the log there (the bytes are physically cut from the file,
// and any later segments — unreachable without trusted sequencing — are
// dropped), and appending resumes after the last valid frame.
func OpenWAL(dir string, cfg WALConfig) (*WAL, *WALScan, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: wal dir: %w", err)
	}
	names, seqs, err := segmentFiles(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: wal scan: %w", err)
	}
	scan := &WALScan{}
	// The log need not start at seq 1: snapshot pruning removes fully
	// covered segments, so the oldest surviving segment anchors the
	// sequencing check.
	next := uint64(1) // seq the next frame should carry
	if len(seqs) > 0 {
		next = seqs[0]
	}
	lastGood := -1 // index of the last segment kept
	for i, name := range names {
		if seqs[i] != next {
			return nil, nil, fmt.Errorf("durable: wal segment %s breaks sequencing (expected first seq %d)", name, next)
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: wal read: %w", err)
		}
		good := 0 // valid prefix length in bytes
		rest := data
		for len(rest) > 0 {
			payload, after, err := DecodeFrame(rest)
			if err != nil || len(payload) == 0 {
				// A zero-length payload decodes (CRC of "" is 0), but the
				// WAL never writes one — an all-zero torn block reads as
				// exactly that, so treat it as torn too.
				break
			}
			next++
			scan.Frames++
			good = len(data) - len(after)
			rest = after
		}
		if good < len(data) {
			// Torn tail: cut it. Anything in later segments is
			// unreachable (their names would break sequencing) — drop
			// them rather than replay frames with untrusted seqs.
			scan.TruncatedBytes += int64(len(data) - good)
			if err := os.Truncate(path, int64(good)); err != nil {
				return nil, nil, fmt.Errorf("durable: wal truncate: %w", err)
			}
			for _, later := range names[i+1:] {
				scan.DroppedSegments++
				if err := os.Remove(filepath.Join(dir, later)); err != nil {
					return nil, nil, fmt.Errorf("durable: wal drop segment: %w", err)
				}
			}
			lastGood = i
			break
		}
		lastGood = i
	}
	scan.LastSeq = next - 1

	w := &WAL{dir: dir, cfg: cfg, seq: scan.LastSeq}
	w.syncCond = sync.NewCond(&w.syncMu)
	w.syncedSeq = scan.LastSeq // everything scanned is on disk already
	if lastGood >= 0 {
		path := filepath.Join(dir, names[lastGood])
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: wal open segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("durable: wal stat: %w", err)
		}
		w.f, w.size, w.firstSeq = f, st.Size(), seqs[lastGood]
		scan.Segments = lastGood + 1
	} else {
		if err := w.newSegmentLocked(1); err != nil {
			return nil, nil, err
		}
		scan.Segments = 1
	}
	return w, scan, nil
}

// newSegmentLocked creates the segment whose first frame will be
// firstSeq and switches to it. Its name is made durable by the first
// fsync of a frame in it (syncLocked, waitSynced): an empty segment lost
// to a power loss loses no acked frame. Caller holds w.mu (or owns w
// exclusively).
func (w *WAL) newSegmentLocked(firstSeq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(firstSeq)),
		os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("durable: wal new segment: %w", err)
	}
	w.f, w.size, w.firstSeq, w.newName = f, 0, firstSeq, true
	return nil
}

// syncLocked fsyncs the live segment and, once per segment, the
// directory holding its name, so the frames in it outlast a power loss.
// Caller holds w.mu.
func (w *WAL) syncLocked() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	if w.newName {
		if err := syncDir(w.dir); err != nil {
			return fmt.Errorf("dir sync: %w", err)
		}
		w.newName = false
	}
	return nil
}

// rotateLocked seals the live segment — fsyncing it so every frame in it
// is durable before the file is abandoned, and advancing the synced
// position accordingly — then opens the next one. Caller holds w.mu.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return fmt.Errorf("durable: wal rotate sync: %w", err)
	}
	w.syncMu.Lock()
	if w.seq > w.syncedSeq {
		w.syncedSeq = w.seq
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("durable: wal rotate close: %w", err)
	}
	return w.newSegmentLocked(w.seq + 1)
}

// Append writes one payload as the next frame and returns its sequence
// number. With Fsync on, Append returns only once the frame is on disk;
// concurrent appenders share fsyncs (group commit). Errors are sticky:
// a WAL that failed to write refuses further appends.
func (w *WAL) Append(ctx context.Context, payload []byte) (uint64, error) {
	return w.appendFrame(ctx, func(dst []byte) []byte { return append(dst, payload...) })
}

// appendFrame is Append with the payload rendered by encode, which
// appends it to the dst it is given and returns the result. encode runs
// under w.mu, straight into the WAL's frame buffer, so a steady-state
// append allocates nothing; it must not call back into the WAL.
func (w *WAL) appendFrame(ctx context.Context, encode func(dst []byte) []byte) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, fmt.Errorf("durable: wal closed")
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	frame := encode(append(w.frame[:0], make([]byte, frameHeaderLen)...))
	payload := frame[frameHeaderLen:]
	if len(payload) == 0 || len(payload) > MaxFramePayload {
		w.mu.Unlock()
		if len(payload) == 0 {
			return 0, fmt.Errorf("durable: wal append: empty payload")
		}
		return 0, fmt.Errorf("durable: wal append: payload %d over cap %d", len(payload), MaxFramePayload)
	}
	w.frame = frame
	hdr := frameHeader(payload)
	copy(frame, hdr[:])
	if w.size >= w.cfg.segmentBytes {
		if err := w.rotateLocked(); err != nil {
			w.err = err
			w.mu.Unlock()
			return 0, err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		w.err = fmt.Errorf("durable: wal write: %w", err)
		err = w.err
		w.mu.Unlock()
		return 0, err
	}
	w.size += int64(len(frame))
	w.seq++
	seq := w.seq
	w.mu.Unlock()

	if !w.cfg.Fsync {
		return seq, nil
	}
	return seq, w.waitSynced(seq)
}

// waitSynced blocks until frame seq is fsynced, electing the first
// waiter as the leader that syncs for the whole group: it captures the
// live file and the latest assigned seq together under w.mu (so a
// rotation between capture points cannot mark unsynced frames synced —
// rotation itself syncs the file it abandons), fsyncs once (and the
// directory, the first time for a segment), publishes the new synced
// position, and wakes everyone.
func (w *WAL) waitSynced(seq uint64) error {
	w.syncMu.Lock()
	for {
		if w.syncErr != nil {
			err := w.syncErr
			w.syncMu.Unlock()
			return err
		}
		if w.syncedSeq >= seq {
			w.syncMu.Unlock()
			return nil
		}
		if w.syncing {
			w.syncCond.Wait()
			continue
		}
		w.syncing = true
		w.syncMu.Unlock()

		w.mu.Lock()
		f, upto, newName := w.f, w.seq, w.newName
		w.mu.Unlock()
		err := f.Sync()
		if err == nil && newName {
			if err = syncDir(w.dir); err == nil {
				w.mu.Lock()
				if w.f == f {
					w.newName = false
				}
				w.mu.Unlock()
			}
		}

		w.syncMu.Lock()
		w.syncing = false
		if err != nil {
			w.syncErr = fmt.Errorf("durable: wal fsync: %w", err)
		} else if upto > w.syncedSeq {
			w.syncedSeq = upto
		}
		w.syncCond.Broadcast()
	}
}

// Seq returns the last assigned frame sequence number.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// SyncedSeq returns the last frame known durable (equals Seq after any
// successful Fsync-mode Append; advisory when Fsync is off).
func (w *WAL) SyncedSeq() uint64 {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.syncedSeq
}

// ErrLogGap reports that the log no longer holds the frame replay has to
// start at: a snapshot other than the one recovery loaded had it pruned.
var ErrLogGap = errors.New("durable: wal does not reach back to the replay point")

// Replay re-reads the log from disk and hands every frame with seq >
// from to fn, in order; a log whose oldest surviving frame is past
// from+1 is ErrLogGap. The log must have been opened by OpenWAL (which
// truncated any torn tail), so corruption here means the files changed
// underneath us — it returns ErrTornFrame-wrapped rather than guessing.
func (w *WAL) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	names, seqs, err := segmentFiles(w.dir)
	if err != nil {
		return fmt.Errorf("durable: wal replay: %w", err)
	}
	next := uint64(0)
	for i, name := range names {
		if next == 0 {
			next = seqs[i]
			if next > from+1 {
				return fmt.Errorf("%w: oldest segment %s starts at frame %d, replay starts at %d", ErrLogGap, name, next, from+1)
			}
		} else if seqs[i] != next {
			return fmt.Errorf("durable: wal replay: segment %s breaks sequencing (expected %d)", name, next)
		}
		data, err := os.ReadFile(filepath.Join(w.dir, name))
		if err != nil {
			return fmt.Errorf("durable: wal replay: %w", err)
		}
		rest := data
		for len(rest) > 0 {
			payload, after, err := DecodeFrame(rest)
			if err != nil || len(payload) == 0 {
				return fmt.Errorf("durable: wal replay: segment %s seq %d: %w", name, next, ErrTornFrame)
			}
			if next > from {
				if err := fn(next, payload); err != nil {
					return err
				}
			}
			next++
			rest = after
		}
	}
	return nil
}

// Prune removes segments every frame of which is at or below upTo —
// they are fully covered by a snapshot and will never be replayed. The
// live segment always survives.
func (w *WAL) Prune(upTo uint64) error {
	w.mu.Lock()
	live := w.firstSeq
	w.mu.Unlock()
	names, seqs, err := segmentFiles(w.dir)
	if err != nil {
		return fmt.Errorf("durable: wal prune: %w", err)
	}
	for i, name := range names {
		if seqs[i] >= live {
			break // the live segment and anything after it stay
		}
		// Segment i's last frame is seqs[i+1]-1 (segments are contiguous
		// and a non-live segment always has a successor).
		if i+1 < len(seqs) && seqs[i+1]-1 <= upTo {
			if err := os.Remove(filepath.Join(w.dir, name)); err != nil {
				return fmt.Errorf("durable: wal prune: %w", err)
			}
		}
	}
	return nil
}

// Close fsyncs (in Fsync mode) and closes the live segment. Further
// appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.cfg.Fsync {
		if err := w.syncLocked(); err != nil {
			w.f.Close()
			return fmt.Errorf("durable: wal close sync: %w", err)
		}
		w.syncMu.Lock()
		if w.seq > w.syncedSeq {
			w.syncedSeq = w.seq
		}
		w.syncCond.Broadcast()
		w.syncMu.Unlock()
	}
	return w.f.Close()
}
