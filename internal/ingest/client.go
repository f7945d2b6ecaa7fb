package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"bohr/internal/stats"
)

// PushResponse is the POST /v1/ingest response body (shared between the
// serve endpoint and the client).
type PushResponse struct {
	Accepted int    `json:"accepted"`
	Deduped  int    `json:"deduped"`
	Error    string `json:"error,omitempty"`
}

// ClientConfig tunes the streaming client. The zero value adopts the
// defaults noted on each field.
type ClientConfig struct {
	// BatchRecords is how many records accumulate before an automatic
	// send (default 256).
	BatchRecords int
	// Seed feeds the backoff jitter generator.
	Seed int64
	// StartOffset is the first offset to assign (default 1). A client
	// resuming a source mid-stream sets it; a restarted client left at
	// the default replays from the beginning and is deduplicated
	// server-side.
	StartOffset uint64

	// The package's tests set these hooks.
	//
	// retryAttempts bounds resends of one batch on 429/5xx/transport
	// errors (default 8 — ingestion favors persistence).
	retryAttempts int
	// retryBase is the backoff base, doubled per retry with seeded
	// jitter (default 20ms).
	retryBase time.Duration
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.BatchRecords <= 0 {
		c.BatchRecords = 256
	}
	if c.retryAttempts <= 0 {
		c.retryAttempts = 8
	}
	if c.retryBase <= 0 {
		c.retryBase = 20 * time.Millisecond
	}
	if c.StartOffset == 0 {
		c.StartOffset = 1
	}
	return c
}

// ClientStats counts a client's activity.
type ClientStats struct {
	// Sent is records handed to Add.
	Sent uint64
	// Accepted is records the server admitted.
	Accepted uint64
	// Deduped is records the server recognized as replays.
	Deduped uint64
	// Retries is batch resends after 429s or transport faults.
	Retries uint64
}

// Client streams records of one source to an ingest endpoint, assigning
// monotonic offsets, batching sends, and retrying with seeded backoff on
// backpressure (429) and transport faults. Because every record carries
// its offset, a retry may resend records the server already accepted —
// the server's dedupe tracker drops them, which is what makes the retry
// loop safe. Client is not safe for concurrent use; one goroutine owns
// one source's stream, mirroring the per-source ordering the pipeline
// guarantees.
type Client struct {
	url    string
	source string
	cfg    ClientConfig
	rng    *rand.Rand
	next   uint64
	buf    []Record
	stats  ClientStats
}

// NewClient builds a streaming client for one source against an ingest
// URL (e.g. http://127.0.0.1:8080/v1/ingest).
func NewClient(url, source string, cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		url:    url,
		source: source,
		cfg:    cfg,
		rng:    stats.NewRand(stats.Split(cfg.Seed, 7002)),
		next:   cfg.StartOffset,
	}
}

// NextOffset is the offset the next Add will assign.
func (c *Client) NextOffset() uint64 { return c.next }

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats { return c.stats }

// Add assigns the next offset to one row and buffers it, sending the
// batch when full.
func (c *Client) Add(ctx context.Context, dataset string, site int, coords []string, measure float64) error {
	c.buf = append(c.buf, Record{
		Source: c.source, Offset: c.next, Dataset: dataset, Site: site,
		Coords: coords, Measure: measure,
	})
	c.next++
	c.stats.Sent++
	if len(c.buf) >= c.cfg.BatchRecords {
		return c.Flush(ctx)
	}
	return nil
}

// Flush sends any buffered records now.
func (c *Client) Flush(ctx context.Context) error {
	if len(c.buf) == 0 {
		return nil
	}
	if err := c.send(ctx, c.buf); err != nil {
		return err
	}
	c.buf = c.buf[:0]
	return nil
}

// send posts one batch, retrying whole on backpressure and faults.
func (c *Client) send(ctx context.Context, recs []Record) error {
	body := EncodeBatch(recs)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.retryAttempts; attempt++ {
		if attempt > 0 {
			c.stats.Retries++
			d := time.Duration(float64(c.cfg.retryBase<<uint(attempt-1)) * (1 + c.rng.Float64()))
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "text/plain; charset=utf-8")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		var pr PushResponse
		_ = json.Unmarshal(data, &pr)
		switch {
		case resp.StatusCode == http.StatusOK:
			c.stats.Accepted += uint64(pr.Accepted)
			c.stats.Deduped += uint64(pr.Deduped)
			return nil
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
			// Backpressure or a transient server fault: partial
			// acceptance is possible, but resending the whole batch is
			// safe — the server dedupes on (source, offset).
			c.stats.Accepted += uint64(pr.Accepted)
			c.stats.Deduped += uint64(pr.Deduped)
			lastErr = fmt.Errorf("ingest: server %d: %s", resp.StatusCode, pr.Error)
			continue
		default:
			return fmt.Errorf("ingest: server rejected batch (%d): %s", resp.StatusCode, pr.Error)
		}
	}
	return fmt.Errorf("ingest: batch undelivered after %d retries: %w", c.cfg.retryAttempts, lastErr)
}
