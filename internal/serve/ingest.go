package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

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
			s.InvalidateDataset(ds)
		}
		s.maybeSnapshot()
		return nil
	}), s.col)
	return s.pipe, nil
}

// Pipeline exposes the ingest pipeline (nil before EnableIngest), for
// gauges and tests.
func (s *Server) Pipeline() *ingest.Pipeline { return s.pipe }

// InvalidateDataset drops every cached query result that read the named
// dataset. The ingest path calls it after applying a batch; it is also
// safe to call directly (e.g. from an operator endpoint).
func (s *Server) InvalidateDataset(dataset string) {
	if n := s.results.InvalidateDataset(dataset); n > 0 {
		s.count("serve.ingest.invalidations", float64(n))
	}
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
	s.count("serve.ingest.requests", 1)
	body, err := io.ReadAll(io.LimitReader(r.Body, maxIngestBody+1))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxIngestBody {
		s.fail(w, http.StatusRequestEntityTooLarge, "batch over %d bytes", maxIngestBody)
		return
	}
	recs, err := ingest.DecodeBatch(body)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := s.pipe.Push(r.Context(), recs...)
	status := http.StatusOK
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
