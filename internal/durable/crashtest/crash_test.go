package crashtest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bohr/internal/durable"
)

// bohrdBin is the bohrd binary TestMain builds once for every trial.
var bohrdBin string

func TestMain(m *testing.M) {
	os.Exit(runMain(m))
}

func runMain(m *testing.M) int {
	dir, err := os.MkdirTemp("", "crashtest-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "bohrd")
	if out, err := exec.Command("go", "build", "-o", bin, "bohr/cmd/bohrd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building bohrd: %v\n%s", err, out)
		return 1
	}
	bohrdBin = bin
	return m.Run()
}

// TestCrashRecovery runs seeded kill-restart trials against a child
// bohrd. Trial modes rotate by seed:
//
//   - quiesce: stream everything, wait until applied, pin the query,
//     SIGKILL, restart, and require the pinned query to answer
//     byte-identically — the recovered process is indistinguishable
//     from one that never crashed.
//   - midstream: SIGKILL right after a seeded ack boundary, while acked
//     batches are still buffered ahead of the applier — the window only
//     the WAL covers. Restart, resend the unacked tail, and require
//     exact per-url counts.
//   - racy: SIGKILL at a seeded wall-clock moment while the client is
//     streaming, so the kill lands mid-request and the client cannot
//     know the last batch's fate. At-least-once resend from the last
//     ack must still yield exact counts.
//
// A seeded subset of trials also appends a torn tail (zeros, random
// garbage, or a truncated valid frame) to the newest WAL segment before
// restarting. Every trial asserts the recovered watermark covers every
// acked offset: zero acked loss. One more trial stops the daemon with an
// interrupt instead of a kill (runInterruptTrial).
func TestCrashRecovery(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 6
	}
	for i := 0; i < trials; i++ {
		seed := int64(i + 1)
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			runTrial(t, seed)
		})
	}
	t.Run("interrupt", func(t *testing.T) {
		t.Parallel()
		runInterruptTrial(t)
	})
}

// runInterruptTrial is the shutdown-snapshot path end to end: stream, wait
// until applied, pin the query, interrupt the daemon (no cadence snapshot,
// so only the shutdown snapshot covers the stream) and restart it. The
// daemon must exit cleanly, and the restart must replay 0 WAL frames and
// answer the pinned query byte-identically.
func runInterruptTrial(t *testing.T) {
	ctx := context.Background()
	dataDir := t.TempDir()
	var stderr1, stderr2 bytes.Buffer
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("first daemon stderr:\n%s", stderr1.String())
			t.Logf("second daemon stderr:\n%s", stderr2.String())
		}
	})
	d1, err := StartDaemon(ctx, DaemonConfig{Bin: bohrdBin, DataDir: dataDir, Stderr: &stderr1})
	if err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	defer d1.Kill()
	st := &Stream{Base: d1.Base, Source: "interrupt", BatchSize: 6}
	const total = 60
	if acked, err := st.SendRange(ctx, 1, total); err != nil || acked != total {
		t.Fatalf("streaming: acked %d/%d: %v", acked, total, err)
	}
	if err := WaitApplied(ctx, d1.Base, st.Source, total, 30*time.Second); err != nil {
		t.Fatalf("quiescing: %v", err)
	}
	before, _, err := PinnedQuery(ctx, d1.Base)
	if err != nil {
		t.Fatalf("pinned query before the interrupt: %v", err)
	}
	if err := d1.Interrupt(30 * time.Second); err != nil {
		t.Fatalf("interrupted daemon: %v", err)
	}

	d2, err := StartDaemon(ctx, DaemonConfig{Bin: bohrdBin, DataDir: dataDir, Stderr: &stderr2})
	if err != nil {
		t.Fatalf("restarting daemon: %v", err)
	}
	defer d2.Kill()
	if wm, err := SourceWatermark(ctx, d2.Base, st.Source); err != nil || wm != total {
		t.Fatalf("recovered watermark %d, want %d: %v", wm, total, err)
	}
	after, _, err := PinnedQuery(ctx, d2.Base)
	if err != nil {
		t.Fatalf("pinned query after the restart: %v", err)
	}
	d2.Kill() // its stderr is complete once it is reaped
	if !bytes.Equal(before, after) {
		t.Fatalf("pinned query diverged across the restart:\nbefore: %s\nafter:  %s", before, after)
	}
	if !strings.Contains(stderr2.String(), "replayed 0 frames") {
		t.Fatalf("the restart replayed WAL frames the shutdown snapshot should cover:\n%s", stderr2.String())
	}
}

func runTrial(t *testing.T, seed int64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	modes := []string{"quiesce", "midstream", "racy"}
	mode := modes[int(seed)%len(modes)]
	torn := rng.Intn(2) == 0
	snapEvery := []int{0, 2, 4, 8}[rng.Intn(4)]

	dataDir := t.TempDir()
	var stderr1, stderr2 bytes.Buffer
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("first daemon stderr:\n%s", stderr1.String())
			t.Logf("second daemon stderr:\n%s", stderr2.String())
		}
	})

	d1, err := StartDaemon(ctx, DaemonConfig{
		Bin: bohrdBin, DataDir: dataDir, SnapshotEvery: snapEvery, Stderr: &stderr1,
	})
	if err != nil {
		t.Fatalf("starting daemon: %v\nstderr:\n%s", err, stderr1.String())
	}
	defer d1.Kill()

	st := &Stream{Base: d1.Base, Source: fmt.Sprintf("crash%02d", seed), BatchSize: 6}
	totalBatches := 6 + rng.Intn(6)
	total := uint64(totalBatches * st.BatchSize)
	t.Logf("mode=%s torn=%v snapshot-every=%d batches=%d total=%d",
		mode, torn, snapEvery, totalBatches, total)

	// Phase 1: stream until the trial's kill point, then SIGKILL.
	var acked uint64
	var before []byte // pinned rows bytes, quiesce mode only
	switch mode {
	case "quiesce":
		acked, err = st.SendRange(ctx, 1, total)
		if err != nil || acked != total {
			t.Fatalf("streaming: acked %d/%d: %v", acked, total, err)
		}
		if err := WaitApplied(ctx, d1.Base, st.Source, total, 30*time.Second); err != nil {
			t.Fatalf("quiescing: %v", err)
		}
		before, _, err = PinnedQuery(ctx, d1.Base)
		if err != nil {
			t.Fatalf("pinned query before kill: %v", err)
		}
		d1.Kill()
	case "midstream":
		killBatch := 1 + rng.Intn(totalBatches-1)
		ackTarget := uint64(killBatch * st.BatchSize)
		acked, err = st.SendRange(ctx, 1, ackTarget)
		if err != nil || acked != ackTarget {
			t.Fatalf("streaming: acked %d/%d: %v", acked, ackTarget, err)
		}
		// Acked but likely still buffered ahead of the applier: the
		// kill lands in the window only the WAL covers.
		d1.Kill()
	case "racy":
		// Pace the stream so the seeded kill lands mid-flight, not
		// after the final ack.
		st.Pace = 2 * time.Millisecond
		delay := time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
		killed := make(chan struct{})
		go func() {
			defer close(killed)
			time.Sleep(delay)
			d1.Kill()
		}()
		// The send error (if any) is the expected kill landing
		// mid-request; only the acked high-water mark matters.
		acked, _ = st.SendRange(ctx, 1, total)
		<-killed
		t.Logf("racy kill after %s: acked through %d/%d", delay, acked, total)
	}

	if torn {
		garbage := makeGarbage(rng)
		seg, err := InjectTornTail(dataDir, garbage)
		if err != nil {
			t.Fatalf("injecting torn tail: %v", err)
		}
		t.Logf("appended %d garbage bytes to %s", len(garbage), filepath.Base(seg))
	}

	// Phase 2: restart on the same directory and check recovery.
	d2, err := StartDaemon(ctx, DaemonConfig{
		Bin: bohrdBin, DataDir: dataDir, SnapshotEvery: snapEvery, Stderr: &stderr2,
	})
	if err != nil {
		t.Fatalf("restarting daemon: %v\nstderr:\n%s", err, stderr2.String())
	}
	defer d2.Kill()

	wm, err := SourceWatermark(ctx, d2.Base, st.Source)
	if err != nil {
		t.Fatalf("reading recovered watermark: %v", err)
	}
	if wm < acked {
		t.Fatalf("acked through offset %d but recovered watermark is %d: acked records lost", acked, wm)
	}

	if mode == "quiesce" {
		after, _, err := PinnedQuery(ctx, d2.Base)
		if err != nil {
			t.Fatalf("pinned query after recovery: %v", err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("pinned query diverged after recovery:\nbefore: %s\nafter:  %s", before, after)
		}
	} else if acked < total {
		// At-least-once resend of everything past the last ack; the
		// server may have journaled some of it already, so dedupe
		// absorbs the overlap.
		st2 := &Stream{Base: d2.Base, Source: st.Source, BatchSize: st.BatchSize}
		a2, err := st2.SendRange(ctx, acked+1, total)
		if err != nil || a2 != total {
			t.Fatalf("resuming stream: acked %d/%d: %v", a2, total, err)
		}
	}
	if err := WaitApplied(ctx, d2.Base, st.Source, total, 30*time.Second); err != nil {
		t.Fatalf("quiescing after recovery: %v", err)
	}

	// Exact per-url counts: any lost record undercounts, any
	// double-applied record overcounts.
	_, rows, err := PinnedQuery(ctx, d2.Base)
	if err != nil {
		t.Fatalf("final pinned query: %v", err)
	}
	got := map[string]int{}
	for _, r := range rows {
		if strings.HasPrefix(r.Key, "live-u") {
			got[r.Key] = int(r.Val)
		}
	}
	want := ExpectedURLCounts(total)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("per-url counts after recovery:\n got %v\nwant %v", got, want)
	}
}

// makeGarbage builds a seeded torn tail: zeros (a preallocated-but-
// unwritten block), random bytes (a scrambled partial write), or a
// truncated valid frame (the classic torn append).
func makeGarbage(rng *rand.Rand) []byte {
	switch rng.Intn(3) {
	case 0:
		return make([]byte, 1+rng.Intn(64))
	case 1:
		b := make([]byte, 1+rng.Intn(64))
		rng.Read(b)
		return b
	default:
		payload := make([]byte, 1+rng.Intn(32))
		rng.Read(payload)
		frame := durable.EncodeFrame(nil, payload)
		return frame[:1+rng.Intn(len(frame)-1)]
	}
}
