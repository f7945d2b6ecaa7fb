package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"bohr/internal/ingest"
)

// RowApplier is implemented by backends that accept live row arrivals
// from the streaming-ingest pipeline. ApplyBatch applies one delivered
// batch and returns the names of the datasets it changed, so the serving
// layer can invalidate cached results for them. It commits the batch or
// changes nothing: the pipeline drops a batch whose error is
// ingest.Reject-wrapped and redelivers any other at its next flush, so
// an error after part of the batch landed would apply that part twice.
type RowApplier interface {
	ApplyBatch(ctx context.Context, b ingest.Batch) (datasets []string, err error)
}

// maxIngestBody bounds one POST /v1/ingest request body (8 MiB — far
// above any sane batch, but enough to stop an unbounded read).
const maxIngestBody = 8 << 20

// EnableIngest builds the streaming-ingestion pipeline over the server's
// backend and mounts POST /v1/ingest on the handler tree. The backend
// must implement RowApplier. Delivered batches apply to the backend and
// then eagerly invalidate the result cache for every affected dataset,
// so a previously cached query recomputes against the new rows. The
// returned pipeline is owned by the caller: Close it on shutdown (it
// drains buffered batches and stops the flush worker).
func (s *Server) EnableIngest(cfg ingest.Config) (*ingest.Pipeline, error) {
	ra, ok := s.backend.(RowApplier)
	if !ok {
		return nil, fmt.Errorf("serve: backend %T does not accept ingest batches", s.backend)
	}
	s.pipe = ingest.New(cfg, ingest.ApplierFunc(func(ctx context.Context, b ingest.Batch) error {
		datasets, err := ra.ApplyBatch(ctx, b)
		if err != nil {
			return err
		}
		for _, ds := range datasets {
			if n := s.results.InvalidateDataset(ds); n > 0 {
				s.col.Count("serve.ingest.invalidations", float64(n))
			}
		}
		s.maybeSnapshot()
		return nil
	}), s.col)
	return s.pipe, nil
}

// serveIngest is POST /v1/ingest: a text/plain body of codec lines (one
// record each, any mix of sources and datasets). Accepted and deduped
// counts come back as JSON; admission-control rejections map to 429 with
// the partial counts, telling the client to back off and resend (the
// offset dedupe makes whole-batch resends safe).
func (s *Server) serveIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.pipe == nil {
		s.fail(w, http.StatusServiceUnavailable, "ingest not enabled")
		return
	}
	s.col.Count("serve.ingest.requests", 1)
	recs, status, err := s.decodeIngestBody(r)
	if err != nil {
		s.fail(w, status, "%v", err)
		return
	}
	res, err := s.pipe.Push(r.Context(), recs...)
	status = http.StatusOK
	resp := ingest.PushResponse{Accepted: res.Accepted, Deduped: res.Deduped}
	if err != nil {
		resp.Error = err.Error()
		switch {
		case errors.Is(err, ingest.ErrOverloaded):
			status = http.StatusTooManyRequests
		case errors.Is(err, ingest.ErrJournal):
			// The journal is wedged: nothing was acked and resending
			// cannot help until an operator intervenes.
			status = http.StatusServiceUnavailable
		default:
			status = http.StatusBadRequest
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

// decodeIngestBody reads and decodes one POST /v1/ingest body, returning
// the HTTP status of a failure. It reads into the server's spare body
// buffer unless another request holds it, and puts the buffer back before
// it returns: DecodeBatch copies what the records keep, so nothing aliases
// the buffer afterwards. The buffer keeps the capacity of the largest
// body read so far, at most maxIngestBody+1 bytes.
func (s *Server) decodeIngestBody(r *http.Request) ([]ingest.Record, int, error) {
	buf := s.ingestBody.Swap(nil)
	if buf == nil {
		buf = new([]byte)
	}
	defer s.ingestBody.Store(buf)
	body, err := readBody((*buf)[:0], r)
	*buf = body
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	if len(body) > maxIngestBody {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("batch over %d bytes", maxIngestBody)
	}
	recs, err := ingest.DecodeBatch(body)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return recs, http.StatusOK, nil
}

// readBody appends r's body to buf, reading at most maxIngestBody+1
// bytes. A known ContentLength sizes buf once up front (one byte more,
// for the read that meets EOF); otherwise buf grows as io.ReadAll's does.
func readBody(buf []byte, r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= maxIngestBody {
		buf = slices.Grow(buf, int(n)+1)
	}
	lr := io.LimitedReader{R: r.Body, N: maxIngestBody + 1}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
