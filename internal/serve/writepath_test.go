package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"bohr/internal/core"
	"bohr/internal/durable"
	"bohr/internal/engine"
	"bohr/internal/ingest"
)

// postIngest POSTs recs to /v1/ingest through h and decodes the reply.
func postIngest(t *testing.T, h http.Handler, recs []ingest.Record) (int, ingest.PushResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(ingest.EncodeBatch(recs))))
	var resp ingest.PushResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("ingest reply %q: %v", rec.Body, err)
	}
	return rec.Code, resp
}

// taggedRecord is one record of the system's first dataset whose
// coordinates carry tag and the offset, so a frame or a key that aliased
// another batch's bytes would read differently. For a given tag, its wire
// line's length depends only on the digits of off.
func taggedRecord(sys *core.System, tag string, off uint64) ingest.Record {
	ds := sys.Workload.Datasets[0]
	coords := make([]string, ds.Schema.NumDims())
	for j := range coords {
		coords[j] = fmt.Sprintf("%s-%04d-%d", tag, off, j)
	}
	return ingest.Record{Source: "src", Offset: off, Dataset: ds.Name,
		Site: int(off) % sys.Cluster.N(), Coords: coords, Measure: float64(off % 7)}
}

// taggedRange is taggedRecord for each offset of offs.
func taggedRange(sys *core.System, tag string, offs ...uint64) []ingest.Record {
	recs := make([]ingest.Record, len(offs))
	for i, off := range offs {
		recs[i] = taggedRecord(sys, tag, off)
	}
	return recs
}

// offsets lists from..to.
func offsets(from, to uint64) []uint64 {
	var out []uint64
	for off := from; off <= to; off++ {
		out = append(out, off)
	}
	return out
}

// TestJournalFramesAreAcceptedRecords pins the durable write path's WAL
// bytes: each acked POST /v1/ingest leaves one frame, and that frame is
// ingest.EncodeBatch of exactly the records the push accepted, in
// admission order — a log written by either build recovers under the
// other. It covers a plain push, one with replayed offsets in the middle
// (deduped, so not journaled), and two that MaxPending stops partway
// (journaled up to the stop), with deliveries between them so the
// pipeline, body and frame buffers are all reused.
func TestJournalFramesAreAcceptedRecords(t *testing.T) {
	ctx := context.Background()
	sys := smallSystem(t)
	dir := t.TempDir()
	m, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fe := New(NewEngineBackend(sys), Config{}, nil)
	pipe, _, err := fe.EnableDurableIngest(ctx,
		ingest.Config{MaxBatchRecords: 64, FlushInterval: -1, MaxPending: 12}, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := fe.Handler()
	// The tag's '|' and '%' travel escaped.
	var want [][]byte
	push := func(name string, offs []uint64, status int, accepted []uint64) {
		t.Helper()
		code, resp := postIngest(t, h, taggedRange(sys, "a|b%", offs...))
		if code != status || resp.Accepted != len(accepted) {
			t.Fatalf("%s: status %d, %+v; want %d with %d accepted", name, code, resp, status, len(accepted))
		}
		want = append(want, ingest.EncodeBatch(taggedRange(sys, "a|b%", accepted...)))
	}
	push("plain", offsets(1, 6), http.StatusOK, offsets(1, 6))
	if err := pipe.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	push("replay in the middle", []uint64{7, 8, 3, 4, 9, 10}, http.StatusOK, []uint64{7, 8, 9, 10})
	// 4 buffered: the cap of 12 admits 8 more.
	push("replay, then MaxPending", append([]uint64{11, 12, 2}, offsets(13, 20)...),
		http.StatusTooManyRequests, offsets(11, 18))
	if err := pipe.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	push("MaxPending", offsets(19, 40), http.StatusTooManyRequests, offsets(19, 30))
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	w, _, err := durable.OpenWAL(dir, durable.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var got [][]byte
	if err := w.Replay(0, func(_ uint64, payload []byte) error {
		got = append(got, bytes.Clone(payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d:\n got %q\nwant %q", i+1, got[i], want[i])
		}
	}
}

// keepingBackend is the engine backend remembering, once asked to, the
// Coords of every record of the next batch it is handed — which an
// applier may keep (ingest.Applier).
type keepingBackend struct {
	*EngineBackend
	keep bool
	kept [][]string
}

func (b *keepingBackend) ApplyBatch(ctx context.Context, batch ingest.Batch) ([]string, error) {
	if b.keep {
		for _, r := range batch.Records {
			b.kept = append(b.kept, r.Coords)
		}
		b.keep = false
	}
	return b.EngineBackend.ApplyBatch(ctx, batch)
}

// TestAppliedBatchOutlivesBufferReuse holds the write path's buffer
// reuse to what a delivered batch leaves behind: after batch A is
// applied, its store keys (a captured state handle) and the coordinates
// its applier was handed must read the same after 20 more batches of
// other content went through the same body buffer, decoder, pipeline
// buffer and WAL frame buffer. A decoder whose strings aliased the body
// buffer, or a buffer handed on while still referenced, fails it.
func TestAppliedBatchOutlivesBufferReuse(t *testing.T) {
	ctx := context.Background()
	sys := smallSystem(t)
	m, err := durable.Open(durable.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b := &keepingBackend{EngineBackend: NewEngineBackend(sys)}
	fe := New(b, Config{}, nil)
	pipe, _, err := fe.EnableDurableIngest(ctx,
		ingest.Config{MaxBatchRecords: 64, FlushInterval: -1}, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	h := fe.Handler()
	// Every batch's offsets have four digits, so every body has A's
	// length and lands in the bytes A's body was read into; and no tag
	// needs an escape, so every decoded coordinate is a substring.
	const batch, first = 32, 1001
	send := func(tag string, from uint64) {
		t.Helper()
		if code, resp := postIngest(t, h, taggedRange(sys, tag, offsets(from, from+batch-1)...)); code != http.StatusOK || resp.Accepted != batch {
			t.Fatalf("batch %s@%d: status %d, %+v", tag, from, code, resp)
		}
		if err := pipe.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}

	b.keep = true
	send("A", first)
	if len(b.kept) != batch {
		t.Fatalf("kept %d records' coordinates, want %d", len(b.kept), batch)
	}
	keptWant := make([][]string, len(b.kept))
	for i, c := range b.kept {
		keptWant[i] = cloneStrings(c)
	}
	state := b.CaptureState()
	stateWant := map[string][][]engine.KV{}
	for _, ds := range state.Datasets {
		sites := make([][]engine.KV, len(ds.Records))
		for i, recs := range ds.Records {
			sites[i] = slices.Clone(recs)
			for j := range sites[i] {
				sites[i][j].Key = strings.Clone(recs[j].Key)
			}
		}
		stateWant[ds.Name] = sites
	}

	for i := range 20 {
		send(fmt.Sprintf("%c", 'B'+i), uint64(first+batch*(i+1)))
	}

	for i := range keptWant {
		if !slices.Equal(b.kept[i], keptWant[i]) {
			t.Fatalf("batch A record %d's coordinates changed: %q, delivered as %q", i, b.kept[i], keptWant[i])
		}
	}
	for _, ds := range state.Datasets {
		for i, recs := range ds.Records {
			if !slices.Equal(recs, stateWant[ds.Name][i]) {
				t.Fatalf("%s site %d: store records captured after batch A changed", ds.Name, i)
			}
		}
	}
}

// cloneStrings deep-copies ss: every string gets bytes of its own.
func cloneStrings(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = strings.Clone(s)
	}
	return out
}
