// Package serve is the multi-tenant query front end: a stdlib-HTTP
// endpoint that accepts the internal/sql dialect plus a tenant ID, pushes
// every request through a weighted fair scheduler with per-tenant
// concurrency quotas and queue-depth admission control, and answers
// repeat queries from a result cache keyed by (normalized query, dataset
// change counter). It layers over the reusable engine/core components the
// rest of the reproduction already exercises; cancellation rides the
// request context through the context-first core/engine APIs.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"bohr/internal/obs"
)

// ErrOverloaded is returned (and mapped to HTTP 429) when the scheduler's
// wait queue is at capacity; callers should back off and retry.
var ErrOverloaded = errors.New("serve: queue full, try again later")

// SchedConfig tunes the fair scheduler. The zero value takes every
// default.
type SchedConfig struct {
	// MaxConcurrent bounds queries executing at once across all tenants
	// (default 8).
	MaxConcurrent int
	// TenantQuota bounds one tenant's concurrently executing queries
	// (default 2); excess requests wait in the tenant's FIFO queue.
	TenantQuota int
	// MaxQueue bounds the total number of waiting requests across all
	// tenants; arrivals beyond it are rejected with ErrOverloaded
	// (default 64).
	MaxQueue int
	// Weights maps tenant IDs to scheduling weights (share of grants
	// under contention). Unlisted tenants weigh 1; values <= 0 are
	// treated as 1.
	Weights map[string]float64
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	return c
}

// strideScale is the numerator strides are computed from; only ratios
// matter, the constant just keeps passes readable in tests.
const strideScale = 1 << 16

// waiter is one parked Acquire call.
type waiter struct {
	tenant  string
	ready   chan struct{}
	granted bool
}

// tenantState is the scheduler's view of one tenant.
type tenantState struct {
	pass     float64
	stride   float64
	inflight int
	queue    []*waiter
	// metric is the tenant's sanitized metric label: gauges publish as
	// serve.tenant.<metric>.*, so an externally supplied tenant string
	// cannot corrupt or unboundedly pollute the exposition.
	metric string
}

// Scheduler grants execution slots to tenants by stride scheduling: each
// grant advances the tenant's virtual pass by a stride inversely
// proportional to its weight, and free slots go to the eligible tenant
// with the smallest pass (FIFO within a tenant). A tenant at its
// concurrency quota is skipped, so a saturating tenant never starves the
// others; a full wait queue rejects new arrivals instead of buffering
// without bound.
type Scheduler struct {
	mu      sync.Mutex
	cfg     SchedConfig
	tenants map[string]*tenantState
	// inflight and waiting are global levels mirrored onto the collector
	// as serve.inflight / serve.queue.depth.
	inflight int
	waiting  int
	col      *obs.Collector
}

// NewScheduler builds a scheduler; col may be nil. Its two global gauges
// start at zero, so a scrape before the first query shows them.
func NewScheduler(cfg SchedConfig, col *obs.Collector) *Scheduler {
	s := &Scheduler{cfg: cfg.withDefaults(), tenants: map[string]*tenantState{}, col: col}
	s.col.Gauge("serve.inflight", 0)
	s.col.Gauge("serve.queue.depth", 0)
	return s
}

func (s *Scheduler) state(tenant string) *tenantState {
	ts, ok := s.tenants[tenant]
	if !ok {
		w := s.cfg.Weights[tenant]
		if w <= 0 {
			w = 1
		}
		// A new tenant starts at the minimum live pass, not zero:
		// joining late must not grant it a catch-up burst.
		ts = &tenantState{stride: strideScale / w, pass: s.minPass(), metric: obs.SanitizeLabel(tenant)}
		s.tenants[tenant] = ts
	}
	return ts
}

// minPass is the smallest pass among tenants with live work; callers
// hold s.mu.
func (s *Scheduler) minPass() float64 {
	min, seen := 0.0, false
	for _, ts := range s.tenants {
		if ts.inflight == 0 && len(ts.queue) == 0 {
			continue
		}
		if !seen || ts.pass < min {
			min, seen = ts.pass, true
		}
	}
	return min
}

// Inflight reports queries currently holding slots (all tenants).
func (s *Scheduler) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// QueueDepth reports requests parked in tenant queues.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiting
}

// Acquire blocks until the tenant is granted an execution slot, the
// context ends, or the wait queue is full (ErrOverloaded, immediately).
// The returned release function must be called exactly once when the
// query finishes; it hands the slot to the next eligible waiter.
func (s *Scheduler) Acquire(ctx context.Context, tenant string) (release func(), err error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("serve: acquire for %q: %w", tenant, err)
	}
	s.mu.Lock()
	ts := s.state(tenant)
	if s.inflight < s.cfg.MaxConcurrent && ts.inflight < s.cfg.TenantQuota && len(ts.queue) == 0 {
		s.grantLocked(tenant, ts)
		s.mu.Unlock()
		return func() { s.release(tenant) }, nil
	}
	if s.waiting >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.col.Count("serve.rejected", 1)
		return nil, ErrOverloaded
	}
	w := &waiter{tenant: tenant, ready: make(chan struct{})}
	ts.queue = append(ts.queue, w)
	s.waiting++
	s.col.Gauge("serve.queue.depth", float64(s.waiting))
	s.mu.Unlock()

	select {
	case <-w.ready:
		return func() { s.release(tenant) }, nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.granted {
			// The grant raced the cancellation; give the slot back.
			s.releaseLocked(tenant)
			s.mu.Unlock()
			return nil, fmt.Errorf("serve: acquire for %q: %w", tenant, ctx.Err())
		}
		for i, q := range ts.queue {
			if q == w {
				ts.queue = append(ts.queue[:i], ts.queue[i+1:]...)
				break
			}
		}
		s.waiting--
		s.col.Gauge("serve.queue.depth", float64(s.waiting))
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: acquire for %q: %w", tenant, ctx.Err())
	}
}

// grantLocked charges one grant to the tenant. Callers hold s.mu.
func (s *Scheduler) grantLocked(tenant string, ts *tenantState) {
	ts.pass += ts.stride
	ts.inflight++
	s.inflight++
	s.col.Gauge("serve.inflight", float64(s.inflight))
	s.col.Gauge("serve.tenant."+ts.metric+".inflight", float64(ts.inflight))
}

func (s *Scheduler) release(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLocked(tenant)
}

// releaseLocked frees the tenant's slot and dispatches to waiters.
// Callers hold s.mu.
func (s *Scheduler) releaseLocked(tenant string) {
	ts := s.tenants[tenant]
	ts.inflight--
	s.inflight--
	s.col.Gauge("serve.inflight", float64(s.inflight))
	s.col.Gauge("serve.tenant."+ts.metric+".inflight", float64(ts.inflight))
	s.dispatchLocked()
}

// dispatchLocked hands free slots to waiting tenants in stride order:
// among tenants with queued work and quota headroom, the smallest pass
// wins (name order breaks exact ties, for deterministic tests). Callers
// hold s.mu.
func (s *Scheduler) dispatchLocked() {
	for s.inflight < s.cfg.MaxConcurrent {
		var best string
		var bestTS *tenantState
		for name, ts := range s.tenants {
			if len(ts.queue) == 0 || ts.inflight >= s.cfg.TenantQuota {
				continue
			}
			if bestTS == nil || ts.pass < bestTS.pass || (ts.pass == bestTS.pass && name < best) {
				best, bestTS = name, ts
			}
		}
		if bestTS == nil {
			return
		}
		w := bestTS.queue[0]
		bestTS.queue = bestTS.queue[1:]
		s.waiting--
		s.col.Gauge("serve.queue.depth", float64(s.waiting))
		s.grantLocked(best, bestTS)
		w.granted = true
		close(w.ready)
	}
}
