package netio

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bohr/internal/engine"
	"bohr/internal/obs"
	"bohr/internal/stats"
)

// config tunes the controller's resilience machinery. Dial takes every
// default; the package's tests shorten the clocks.
type config struct {
	// dialTimeout bounds one TCP connect (default 5s).
	dialTimeout time.Duration
	// requestTimeout is the per-request I/O deadline covering the whole
	// round trip on the site connection (default 30s).
	requestTimeout time.Duration
	// reduceTimeout is the extra server-side wait a reducer is granted
	// for intermediate records, carried to the worker in Envelope.TimeoutS
	// (default 10s).
	reduceTimeout time.Duration
	// retries is the per-request retry budget for idempotent requests;
	// 0 means the default of 3, negative disables retries.
	retries int
	// queryRetries bounds whole-query re-executions inside RunQuery;
	// 0 means the default of 1, negative disables.
	queryRetries int
	// retryBase is the first backoff step (default 50ms); successive
	// retries double it up to retryCap (default 2s), each scaled by a
	// seeded jitter factor in [0.5, 1).
	retryBase time.Duration
	retryCap  time.Duration
	// seed drives the jitter stream, keeping the backoff schedule
	// reproducible for a fixed configuration.
	seed int64
}

func (cfg config) withDefaults() config {
	if cfg.dialTimeout <= 0 {
		cfg.dialTimeout = 5 * time.Second
	}
	if cfg.requestTimeout <= 0 {
		cfg.requestTimeout = 30 * time.Second
	}
	if cfg.reduceTimeout <= 0 {
		cfg.reduceTimeout = 10 * time.Second
	}
	switch {
	case cfg.retries == 0:
		cfg.retries = 3
	case cfg.retries < 0:
		cfg.retries = 0
	}
	switch {
	case cfg.queryRetries == 0:
		cfg.queryRetries = 1
	case cfg.queryRetries < 0:
		cfg.queryRetries = 0
	}
	if cfg.retryBase <= 0 {
		cfg.retryBase = 50 * time.Millisecond
	}
	if cfg.retryCap <= 0 {
		cfg.retryCap = 2 * time.Second
	}
	return cfg
}

// Controller is the logically centralized coordinator (§2.1): it connects
// to every site worker, loads data, exchanges probes, directs similarity-
// aware movement, and drives distributed query execution over real TCP.
// Failed connections are redialed transparently and idempotent requests
// are retried with exponential backoff.
type Controller struct {
	addrs []string
	cfg   config
	conns []*siteConn
	obs   *obs.Collector

	start    time.Time // dial time; event timestamps are seconds since it
	inflight int64     // queries currently inside RunQuery (atomic)

	rngMu sync.Mutex
	rng   *rand.Rand
}

// SetObs attaches an observability collector: RunQuery records per-query
// spans and shuffle counters into it, and the retry machinery counts
// netio.retries / netio.timeouts. The live path has no simulator clock,
// so netio span times are measured wall seconds (inherently
// nondeterministic, unlike the engine's modeled spans). Nil detaches.
func (c *Controller) SetObs(col *obs.Collector) { c.obs = col }

// siteConn pairs a connection with its own lock so requests to different
// sites proceed in parallel while each connection stays request/response.
// conn is nil after a failure until the next attempt redials.
type siteConn struct {
	mu   sync.Mutex
	conn net.Conn
}

// Dial connects to the workers at the given addresses (index = site ID).
// The context bounds the initial connection handshakes; it does not
// outlive the call.
func Dial(ctx context.Context, addrs []string) (*Controller, error) {
	return dial(ctx, addrs, config{})
}

// dial is Dial with explicit resilience tuning.
func dial(ctx context.Context, addrs []string, cfg config) (*Controller, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("netio: controller needs at least one worker")
	}
	cfg = cfg.withDefaults()
	c := &Controller{
		addrs: append([]string(nil), addrs...),
		cfg:   cfg,
		start: time.Now(),
		rng:   stats.NewRand(stats.Split(cfg.seed, 0x5e71)),
	}
	for site := range addrs {
		conn, err := c.dialSite(ctx, site)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, &siteConn{conn: conn})
	}
	return c, nil
}

// dialSite opens one worker connection and verifies its identity. The
// context can cut the connect and handshake short of DialTimeout.
func (c *Controller) dialSite(ctx context.Context, site int) (net.Conn, error) {
	addr := c.addrs[site]
	d := net.Dialer{Timeout: c.cfg.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netio: dial worker %d at %s: %w", site, addr, err)
	}
	conn.SetDeadline(deadlineFor(ctx, c.cfg.requestTimeout))
	resp, err := call(conn, &Envelope{Type: MsgHello})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("netio: hello to worker %d: %w", site, err)
	}
	if resp.Site != site {
		conn.Close()
		return nil, fmt.Errorf("netio: worker at %s identifies as site %d, want %d", addr, resp.Site, site)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// Close tears down all connections.
func (c *Controller) Close() {
	for _, sc := range c.conns {
		if sc == nil {
			continue
		}
		sc.mu.Lock()
		if sc.conn != nil {
			sc.conn.Close()
			sc.conn = nil
		}
		sc.mu.Unlock()
	}
}

// N returns the number of sites.
func (c *Controller) N() int { return len(c.addrs) }

// InflightQueries reports how many queries are currently inside RunQuery,
// for the live-telemetry gauges.
func (c *Controller) InflightQueries() int { return int(atomic.LoadInt64(&c.inflight)) }

// event records a discrete controller-side occurrence (retry, timeout) on
// the collector's event log, timestamped in wall seconds since dial.
func (c *Controller) event(kind string, site int, detail string) {
	if c.obs == nil {
		return
	}
	c.obs.RecordEvent(obs.Event{
		T: time.Since(c.start).Seconds(), Kind: kind, Site: site, Detail: detail,
	})
}

// traceCtx stamps the distributed-trace context onto an outgoing request
// when a collector is attached, so the worker ships its span subtree and
// metric snapshot back with the response.
func (c *Controller) traceCtx(req *Envelope, traceID, parent string) {
	if c.obs == nil {
		return
	}
	req.TraceID = traceID
	req.ParentSpan = parent
	req.TraceWall = c.obs.WallClock()
}

// idempotent reports whether a request type can be re-sent safely after a
// failure. Put, Move, and Transfer mutate worker state per delivery, so a
// retry could double-apply them (documented at-least-once hazard); RunMap
// re-scatter is safe because reducers replace per-source batches.
func idempotent(t MsgType) bool {
	switch t {
	case MsgHello, MsgStats, MsgScore, MsgRunMap, MsgReduce:
		return true
	}
	return false
}

// deadlineFor caps a relative I/O timeout by the context's deadline, so
// a caller-supplied deadline tighter than the configured one wins.
func deadlineFor(ctx context.Context, d time.Duration) time.Time {
	t := time.Now().Add(d)
	if cd, ok := ctx.Deadline(); ok && cd.Before(t) {
		return cd
	}
	return t
}

// sleepCtx waits d or until the context is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff is exponential from retryBase, capped at retryCap, scaled by a
// seeded jitter factor in [0.5, 1): deterministic for a fixed seed.
func (c *Controller) backoff(attempt int) time.Duration {
	d := c.cfg.retryBase << uint(attempt)
	if d <= 0 || d > c.cfg.retryCap {
		d = c.cfg.retryCap
	}
	c.rngMu.Lock()
	f := 0.5 + 0.5*c.rng.Float64()
	c.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// rpc issues one request to a site, retrying idempotent request types on
// transient failures with exponential backoff. The context is checked
// before each attempt, bounds each attempt's connection deadline, and
// aborts backoff sleeps, so a cancelled caller stops retrying promptly.
func (c *Controller) rpc(ctx context.Context, site int, req *Envelope) (*Envelope, error) {
	if site < 0 || site >= len(c.conns) {
		return nil, fmt.Errorf("netio: site %d out of range", site)
	}
	budget := 0
	if idempotent(req.Type) {
		budget = c.cfg.retries
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("netio: rpc to site %d: %w", site, err)
		}
		resp, err := c.attempt(ctx, site, req)
		if err == nil {
			return resp, nil
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			c.obs.Count("netio.timeouts", 1)
			c.event("timeout", site, fmt.Sprintf("req=%d: %v", req.Type, err))
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("netio: rpc to site %d: %w (after: %v)", site, cerr, err)
		}
		if attempt >= budget || !IsRetryable(err) {
			return nil, err
		}
		c.obs.Count("netio.retries", 1)
		c.event("retry", site, fmt.Sprintf("req=%d attempt=%d: %v", req.Type, attempt+1, err))
		if err := sleepCtx(ctx, c.backoff(attempt)); err != nil {
			return nil, fmt.Errorf("netio: rpc to site %d: %w", site, err)
		}
	}
}

// attempt issues one request over the site's connection, redialing first
// if an earlier failure tore the connection down. The connection deadline
// bounds the whole round trip; reduce requests get extra room for the
// server-side intermediate wait and carry that wait in TimeoutS so worker
// and controller agree on it.
func (c *Controller) attempt(ctx context.Context, site int, req *Envelope) (*Envelope, error) {
	sc := c.conns[site]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.conn == nil {
		conn, err := c.dialSite(ctx, site)
		if err != nil {
			return nil, err
		}
		sc.conn = conn
	}
	deadline := c.cfg.requestTimeout
	if req.Type == MsgReduce {
		deadline += c.cfg.reduceTimeout
		if req.TimeoutS == 0 {
			req.TimeoutS = c.cfg.reduceTimeout.Seconds()
		}
	}
	sc.conn.SetDeadline(deadlineFor(ctx, deadline))
	// A cancellation watchdog yanks the deadline so in-flight reads and
	// writes abort within milliseconds instead of riding out the timeout.
	conn := sc.conn
	watchdogDone := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(watchdogDone)
		select {
		case <-ctx.Done():
			conn.SetDeadline(time.Unix(1, 0))
		case <-stop:
		}
	}()
	resp, err := call(sc.conn, req)
	close(stop)
	<-watchdogDone
	if err != nil {
		// A typed MsgErr leaves the stream aligned; anything else may
		// have left a partial frame, so drop the connection and let the
		// next attempt start clean.
		var re *RemoteError
		if errors.As(err, &re) {
			sc.conn.SetDeadline(time.Time{})
		} else {
			sc.conn.Close()
			sc.conn = nil
		}
		return nil, err
	}
	sc.conn.SetDeadline(time.Time{})
	return resp, nil
}

// Put stores records for a dataset at a site, registering its schema.
func (c *Controller) Put(ctx context.Context, site int, dataset string, schema []string, records []engine.KV) error {
	_, err := c.rpc(ctx, site, &Envelope{
		Type: MsgPut, Dataset: dataset, Schema: schema, Records: records,
	})
	return err
}

// SiteStats is one site's view of a dataset under a projection.
type SiteStats struct {
	Records int
	Top     []ProbeCellDTO
}

// Stats fetches record counts and the top-k projected cells from a site.
func (c *Controller) Stats(ctx context.Context, site int, dataset string, dims []string, topK int) (*SiteStats, error) {
	resp, err := c.rpc(ctx, site, &Envelope{Type: MsgStats, Dataset: dataset, Dims: dims, TopK: topK})
	if err != nil {
		return nil, err
	}
	return &SiteStats{Records: resp.Count, Top: resp.Cells}, nil
}

// Score sends a probe (cells from the bottleneck site) to a site and
// returns its similarity score (§4.2 over real sockets).
func (c *Controller) Score(ctx context.Context, site int, dataset string, dims []string, probe []ProbeCellDTO) (float64, error) {
	resp, err := c.rpc(ctx, site, &Envelope{Type: MsgScore, Dataset: dataset, Dims: dims, Cells: probe})
	if err != nil {
		return 0, err
	}
	return resp.Score, nil
}

// Move instructs src to select count records (similarity-aware against the
// provided destination cells when similar is true) and push them to dst
// through its shaped uplink. It returns the number of records moved.
func (c *Controller) Move(ctx context.Context, src, dst int, dataset string, count int, similar bool, dstCells []ProbeCellDTO) (int, error) {
	if dst < 0 || dst >= len(c.addrs) {
		return 0, fmt.Errorf("netio: destination %d out of range", dst)
	}
	req := &Envelope{
		Type: MsgMove, Dataset: dataset, Count: count,
		Dst: c.addrs[dst], Similar: similar, Cells: dstCells,
	}
	name := fmt.Sprintf("netio:move:%d->%d", src, dst)
	c.traceCtx(req, name, name)
	sp := c.obs.StartSpan(name)
	resp, err := c.rpc(ctx, src, req)
	sp.End()
	if err != nil {
		return 0, err
	}
	sp.Attach(resp.Trace)
	c.obs.MergeSnapshot(resp.Metrics)
	return resp.Count, nil
}

// QueryResult is the outcome of a distributed query run.
type QueryResult struct {
	Output []engine.KV
	// IntermediatePerSite is each site's post-combiner record count.
	IntermediatePerSite []int
	// ShuffledRecords counts intermediate records that crossed the WAN.
	ShuffledRecords int
	// Elapsed is the wall-clock query time (map+shuffle+reduce).
	Elapsed time.Duration
}

// RunQuery executes one projection/combine query across all sites: every
// worker maps and combines its local records and scatters intermediate
// records to their reduce owners (weighted by taskFrac); then each site
// reduces what it received and the controller merges the outputs. On a
// retryable failure the whole query is re-executed up to queryRetries
// times — safe because reducers key intermediate batches by source site,
// so a re-scatter replaces rather than double-counts. The context cancels
// the whole scatter/gather: every per-site RPC inherits it, so a client
// disconnect or deadline unwinds the in-flight fan-out instead of leaking
// goroutines past their I/O deadlines.
func (c *Controller) RunQuery(ctx context.Context, q QueryDTO, taskFrac []float64) (*QueryResult, error) {
	n := c.N()
	if q.ID == "" {
		return nil, fmt.Errorf("netio: query needs an ID")
	}
	if taskFrac == nil {
		taskFrac = make([]float64, n)
		for i := range taskFrac {
			taskFrac[i] = 1 / float64(n)
		}
	}
	if len(taskFrac) != n {
		return nil, fmt.Errorf("netio: task fractions sized %d, want %d", len(taskFrac), n)
	}
	c.obs.Gauge("netio.inflight_queries", float64(atomic.AddInt64(&c.inflight, 1)))
	defer func() {
		c.obs.Gauge("netio.inflight_queries", float64(atomic.AddInt64(&c.inflight, -1)))
	}()
	for attempt := 0; ; attempt++ {
		res, err := c.runQueryOnce(ctx, q, taskFrac)
		if err == nil {
			return res, nil
		}
		if attempt >= c.cfg.queryRetries || !IsRetryable(err) || ctx.Err() != nil {
			return nil, err
		}
		c.obs.Count("netio.retries", 1)
		if err := sleepCtx(ctx, c.backoff(attempt)); err != nil {
			return nil, fmt.Errorf("netio: query %s: %w", q.ID, err)
		}
	}
}

func (c *Controller) runQueryOnce(ctx context.Context, q QueryDTO, taskFrac []float64) (*QueryResult, error) {
	n := c.N()
	start := time.Now()
	sp := c.obs.StartSpan("netio:" + q.ID)
	defer sp.End()

	// Map phase: all sites in parallel. Worker span subtrees and metric
	// snapshots ride back on the responses; they are grafted under the
	// query span in site order after the phase so stitched traces have a
	// stable shape regardless of completion order.
	type mapOut struct {
		site    int
		perSite []int
		inter   int
		trace   *obs.Span
		metrics *obs.Snapshot
		err     error
	}
	outs := make(chan mapOut, n)
	for site := 0; site < n; site++ {
		go func(site int) {
			req := &Envelope{
				Type: MsgRunMap, Query: q, TaskFrac: taskFrac, Peers: c.addrs,
			}
			c.traceCtx(req, q.ID, "netio:"+q.ID)
			resp, err := c.rpc(ctx, site, req)
			if err != nil {
				outs <- mapOut{site: site, err: err}
				return
			}
			outs <- mapOut{
				site: site, perSite: resp.PerSite, inter: resp.Count,
				trace: resp.Trace, metrics: resp.Metrics,
			}
		}(site)
	}
	expected := make([]int, n)
	interPerSite := make([]int, n)
	mapTraces := make([]*obs.Span, n)
	mapMetrics := make([]*obs.Snapshot, n)
	shuffled := 0
	var mapErr error
	for i := 0; i < n; i++ {
		o := <-outs
		if o.err != nil {
			if mapErr == nil {
				mapErr = fmt.Errorf("netio: map at site %d: %w", o.site, o.err)
			}
			continue
		}
		interPerSite[o.site] = o.inter
		mapTraces[o.site] = o.trace
		mapMetrics[o.site] = o.metrics
		for dst, cnt := range o.perSite {
			expected[dst] += cnt
			if dst != o.site {
				shuffled += cnt
			}
		}
	}
	if mapErr != nil {
		return nil, mapErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("netio: query %s before reduce: %w", q.ID, err)
	}
	for site := 0; site < n; site++ {
		sp.Attach(mapTraces[site])
		c.obs.MergeSnapshot(mapMetrics[site])
	}
	sp.Child("map").Add(time.Since(start).Seconds())
	reduceStart := time.Now()

	// Reduce phase: all sites in parallel, each waiting for its expected
	// intermediate records.
	type redOut struct {
		site    int
		records []engine.KV
		trace   *obs.Span
		metrics *obs.Snapshot
		err     error
	}
	reds := make(chan redOut, n)
	for site := 0; site < n; site++ {
		go func(site int) {
			req := &Envelope{
				Type: MsgReduce, Query: q, Expected: expected[site],
			}
			c.traceCtx(req, q.ID, "netio:"+q.ID)
			resp, err := c.rpc(ctx, site, req)
			if err != nil {
				reds <- redOut{site: site, err: err}
				return
			}
			reds <- redOut{site: site, records: resp.Records, trace: resp.Trace, metrics: resp.Metrics}
		}(site)
	}
	var all []engine.KV
	redTraces := make([]*obs.Span, n)
	redMetrics := make([]*obs.Snapshot, n)
	var redErr error
	for i := 0; i < n; i++ {
		o := <-reds
		if o.err != nil {
			if redErr == nil {
				redErr = fmt.Errorf("netio: reduce at site %d: %w", o.site, o.err)
			}
			continue
		}
		redTraces[o.site] = o.trace
		redMetrics[o.site] = o.metrics
		all = append(all, o.records...)
	}
	if redErr != nil {
		return nil, redErr
	}
	for site := 0; site < n; site++ {
		sp.Attach(redTraces[site])
		c.obs.MergeSnapshot(redMetrics[site])
	}
	// Reduce outputs own disjoint key sets; merging is concatenation, but
	// sort for deterministic output.
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	sp.Child("reduce").Add(time.Since(reduceStart).Seconds())
	sp.Add(time.Since(start).Seconds())
	c.obs.Count("netio.queries", 1)
	c.obs.Count("netio.shuffle.records", float64(shuffled))
	c.obs.Observe("netio.query.elapsed_s", time.Since(start).Seconds())
	return &QueryResult{
		Output:              all,
		IntermediatePerSite: interPerSite,
		ShuffledRecords:     shuffled,
		Elapsed:             time.Since(start),
	}, nil
}
