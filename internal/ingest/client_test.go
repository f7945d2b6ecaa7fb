package ingest

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeEndpoint is a minimal /v1/ingest: it dedupes on (source, offset)
// like the real pipeline and can inject 429s and connection drops.
type fakeEndpoint struct {
	mu       sync.Mutex
	offsets  map[string]*Offsets
	recs     []Record
	rejectN  int // respond 429 to the next N requests
	dropN    int // kill the connection for the next N requests
	requests int
}

func (f *fakeEndpoint) handler(t *testing.T) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.requests++
		if f.dropN > 0 {
			f.dropN--
			panic(http.ErrAbortHandler)
		}
		if f.rejectN > 0 {
			f.rejectN--
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(PushResponse{Error: ErrOverloaded.Error()})
			return
		}
		body, _ := io.ReadAll(r.Body)
		recs, err := DecodeBatch(body)
		if err != nil {
			t.Errorf("server got undecodable batch: %v", err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		var resp PushResponse
		if f.offsets == nil {
			f.offsets = map[string]*Offsets{}
		}
		for _, rec := range recs {
			tr := f.offsets[rec.Source]
			if tr == nil {
				tr = &Offsets{}
				f.offsets[rec.Source] = tr
			}
			if tr.Admit(rec.Offset) {
				f.recs = append(f.recs, rec)
				resp.Accepted++
			} else {
				resp.Deduped++
			}
		}
		json.NewEncoder(w).Encode(resp)
	}
}

func (f *fakeEndpoint) stored() []Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Record(nil), f.recs...)
}

func TestClientBatchesAndAssignsOffsets(t *testing.T) {
	ep := &fakeEndpoint{}
	srv := httptest.NewServer(ep.handler(t))
	defer srv.Close()
	cli := NewClient(srv.URL, "src", ClientConfig{BatchRecords: 3})
	ctx := context.Background()
	for i := 0; i < 7; i++ {
		if err := cli.Add(ctx, "ds", 0, []string{"x"}, float64(i)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := cli.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got := ep.stored()
	if len(got) != 7 {
		t.Fatalf("server stored %d records, want 7", len(got))
	}
	for i, r := range got {
		if r.Offset != uint64(i+1) || r.Source != "src" {
			t.Fatalf("record %d = %+v, want monotonic offsets from 1", i, r)
		}
	}
	if cli.NextOffset() != 8 {
		t.Fatalf("NextOffset = %d, want 8", cli.NextOffset())
	}
	if st := cli.Stats(); st.Sent != 7 || st.Accepted != 7 || st.Retries != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestClientRetriesBackpressureAndDrops(t *testing.T) {
	ep := &fakeEndpoint{rejectN: 2, dropN: 1}
	srv := httptest.NewServer(ep.handler(t))
	defer srv.Close()
	cli := NewClient(srv.URL, "src", ClientConfig{
		BatchRecords: 100, retryBase: time.Millisecond,
	})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := cli.Add(ctx, "ds", 1, []string{"k"}, 1); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := cli.Flush(ctx); err != nil {
		t.Fatalf("Flush through faults: %v", err)
	}
	if got := len(ep.stored()); got != 5 {
		t.Fatalf("server stored %d records, want 5", got)
	}
	if st := cli.Stats(); st.Retries < 3 {
		t.Fatalf("stats %+v: want >= 3 retries (drop + two 429s)", st)
	}
}

func TestClientRestartReplayDedupes(t *testing.T) {
	ep := &fakeEndpoint{}
	srv := httptest.NewServer(ep.handler(t))
	defer srv.Close()
	ctx := context.Background()
	send := func(cli *Client, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := cli.Add(ctx, "ds", 0, []string{"x"}, 1); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		if err := cli.Flush(ctx); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	// First incarnation delivers offsets 1-6.
	send(NewClient(srv.URL, "src", ClientConfig{BatchRecords: 4}), 6)
	// The restarted source lost its cursor and replays from offset 1,
	// overlapping 1-6 before producing fresh 7-9. Nothing double-applies.
	cli2 := NewClient(srv.URL, "src", ClientConfig{BatchRecords: 4})
	send(cli2, 9)
	if got := len(ep.stored()); got != 9 {
		t.Fatalf("server stored %d records, want 9 distinct offsets", got)
	}
	if st := cli2.Stats(); st.Deduped != 6 || st.Accepted != 3 {
		t.Fatalf("replay stats %+v: want 6 deduped, 3 accepted", st)
	}
}
