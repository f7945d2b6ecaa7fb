package netio

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"bohr/internal/engine"
	"bohr/internal/faults"
	"bohr/internal/obs"
	"bohr/internal/olap"
	"bohr/internal/similarity"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// Worker is one live site: it stores dataset records, answers probe and
// stats requests, pushes records to peers through its shaped uplink, and
// executes the map/combine and reduce stages of distributed queries.
type Worker struct {
	Site int
	seed int64
	obs  *obs.Collector
	inj  *faults.Injector

	ln net.Listener
	up *Bucket // uplink shaping for worker→worker pushes

	// idleTimeout bounds how long a connection may sit between requests;
	// writeTimeout bounds one response write. Guarded by quitMu.
	idleTimeout  time.Duration
	writeTimeout time.Duration

	quitMu sync.Mutex
	closed bool
	conns  map[net.Conn]struct{} // live connections, force-closed on Close
	wg     sync.WaitGroup        // serve loop + per-connection handlers

	mu      sync.Mutex
	schemas map[string][]string // dataset → dimension names
	data    *engine.SiteData    // the site's record stores
	// inter keys received intermediate batches by (query, source site) so
	// a re-scattered batch after a map retry REPLACES the earlier copy
	// instead of double-counting it.
	inter map[string]map[int][]engine.KV
}

// NewWorker starts a worker listening on addr ("127.0.0.1:0" for an
// ephemeral port). upMBps shapes all outgoing record pushes; <= 0 leaves
// the uplink unshaped. The worker runs its own observability collector
// (swap it with SetObs): request handlers count records and bytes into
// it, so a telemetry endpoint (internal/obs/export) can serve live
// worker metrics.
func NewWorker(site int, addr string, upMBps float64, seed int64) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netio: worker %d listen: %w", site, err)
	}
	w := &Worker{
		Site:         site,
		seed:         seed,
		obs:          obs.NewCollector(),
		ln:           ln,
		idleTimeout:  2 * time.Minute,
		writeTimeout: 30 * time.Second,
		conns:        map[net.Conn]struct{}{},
		schemas:      map[string][]string{},
		data:         engine.NewSiteData(),
		inter:        map[string]map[int][]engine.KV{},
	}
	if upMBps > 0 {
		b, err := NewBucket(upMBps*1e6, upMBps*1e6/4)
		if err != nil {
			return nil, err
		}
		w.up = b
	}
	w.wg.Add(1)
	go w.serve()
	return w, nil
}

// Addr returns the worker's dial address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// SetObs replaces the worker's observability collector (the one NewWorker
// created) with the caller's. Call it before issuing requests; the
// collector itself is safe for the worker's concurrent connection
// handlers. Nil detaches collection entirely.
func (w *Worker) SetObs(col *obs.Collector) { w.obs = col }

// Obs returns the worker's collector, the feed for a live telemetry
// endpoint (internal/obs/export).
func (w *Worker) Obs() *obs.Collector { return w.obs }

// LiveConns reports the number of currently open inbound connections —
// a liveness gauge for the telemetry endpoint.
func (w *Worker) LiveConns() int {
	w.quitMu.Lock()
	defer w.quitMu.Unlock()
	return len(w.conns)
}

// SetInjector attaches a fault injector: connections accepted and peer
// pushes dialed from now on go through its fault-wrapping conn, so crash
// windows and message drops hit the live byte stream. Safe to call while
// the worker is serving; nil detaches.
func (w *Worker) SetInjector(inj *faults.Injector) {
	w.quitMu.Lock()
	w.inj = inj
	w.quitMu.Unlock()
}

func (w *Worker) injector() *faults.Injector {
	w.quitMu.Lock()
	defer w.quitMu.Unlock()
	return w.inj
}

// SetTimeouts overrides the per-connection idle (read) and response write
// deadlines. Non-positive values keep the current setting. Safe to call
// while the worker is serving.
func (w *Worker) SetTimeouts(idle, write time.Duration) {
	w.quitMu.Lock()
	if idle > 0 {
		w.idleTimeout = idle
	}
	if write > 0 {
		w.writeTimeout = write
	}
	w.quitMu.Unlock()
}

func (w *Worker) timeouts() (idle, write time.Duration) {
	w.quitMu.Lock()
	defer w.quitMu.Unlock()
	return w.idleTimeout, w.writeTimeout
}

// Close stops the listener, force-closes every live connection, and waits
// for all connection handlers to exit: no goroutines survive Close.
func (w *Worker) Close() error {
	w.quitMu.Lock()
	if w.closed {
		w.quitMu.Unlock()
		return nil
	}
	w.closed = true
	err := w.ln.Close()
	for c := range w.conns {
		c.Close()
	}
	w.quitMu.Unlock()
	w.wg.Wait()
	return err
}

func (w *Worker) isClosed() bool {
	w.quitMu.Lock()
	defer w.quitMu.Unlock()
	return w.closed
}

func (w *Worker) serve() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return // listener closed
		}
		conn = w.injector().WrapConn(conn)
		w.quitMu.Lock()
		if w.closed {
			w.quitMu.Unlock()
			conn.Close()
			return
		}
		w.conns[conn] = struct{}{}
		w.wg.Add(1)
		w.quitMu.Unlock()
		go w.handleConn(conn)
	}
}

func (w *Worker) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		w.quitMu.Lock()
		delete(w.conns, conn)
		w.quitMu.Unlock()
		w.wg.Done()
	}()
	for {
		idle, write := w.timeouts()
		conn.SetReadDeadline(time.Now().Add(idle))
		req, decode, err := readMsgTimed(conn)
		if err != nil {
			return
		}
		resp := w.dispatch(req, decode)
		conn.SetWriteDeadline(time.Now().Add(write))
		if err := WriteMsg(conn, resp); err != nil {
			return
		}
	}
}

// beginTrace opens the per-request trace collector for a traced request
// (nil, a valid no-op collector, otherwise). The gob-decode time of the
// request is attributed to a "deserialize" span when wall timing was
// asked for; without TraceWall the subtree carries structure and metrics
// only, so traced runs stay deterministic.
func (w *Worker) beginTrace(req *Envelope, decode time.Duration) *obs.Collector {
	if req.TraceID == "" {
		return nil
	}
	var col *obs.Collector
	if req.TraceWall {
		col = obs.NewCollector(obs.WithWallClock())
		if decode > 0 {
			col.Current().Attach(&obs.Span{Name: "deserialize", Wall: decode.Seconds()})
		}
	} else {
		col = obs.NewCollector()
		if decode > 0 {
			col.Current().Attach(&obs.Span{Name: "deserialize"})
		}
	}
	return col
}

// finishTrace seals the per-request trace into the response: the span
// subtree (renamed to root, e.g. "map@site2") plus the request's metric
// snapshot. Error responses ship no trace.
func finishTrace(col *obs.Collector, resp *Envelope, root string) *Envelope {
	if col == nil || resp.Type == MsgErr {
		return resp
	}
	tr := col.Trace()
	tr.Name = root
	// The collector root is never explicitly started, so give it the sum
	// of its (sequential) children as the request's handling time.
	if tr.Wall == 0 {
		for _, ch := range tr.Children {
			tr.Wall += ch.Wall
		}
	}
	resp.Trace = tr
	resp.Metrics = col.MetricsSnapshot()
	return resp
}

// count2 records a counter both on the per-request trace collector (the
// delta shipped back to the requester) and on the worker's own collector
// (the cumulative feed of the live telemetry endpoint). Either may be nil.
func (w *Worker) count2(col *obs.Collector, name string, v float64) {
	col.Count(name, v)
	w.obs.Count(name, v)
}

func (w *Worker) errEnv(code ErrCode, format string, args ...any) *Envelope {
	return &Envelope{Type: MsgErr, Site: w.Site, Code: code, Err: fmt.Sprintf(format, args...)}
}

func (w *Worker) dispatch(req *Envelope, decode time.Duration) *Envelope {
	switch req.Type {
	case MsgHello:
		return &Envelope{Type: MsgHelloOK, Site: w.Site}
	case MsgPut:
		return w.handlePut(req)
	case MsgStats:
		return w.handleStats(req)
	case MsgScore:
		return w.handleScore(req)
	case MsgMove:
		return w.handleMove(req, decode)
	case MsgTransfer:
		return w.handleTransfer(req)
	case MsgRunMap:
		return w.handleRunMap(req, decode)
	case MsgIntermediate:
		return w.handleIntermediate(req, decode)
	case MsgReduce:
		return w.handleReduce(req, decode)
	default:
		return w.errEnv(CodeBadRequest, "unknown message type %d", req.Type)
	}
}

func (w *Worker) handlePut(req *Envelope) *Envelope {
	if req.Dataset == "" {
		return w.errEnv(CodeBadRequest, "put: missing dataset")
	}
	w.mu.Lock()
	if len(req.Schema) > 0 {
		w.schemas[req.Dataset] = append([]string(nil), req.Schema...)
	}
	w.data.Add(req.Dataset, req.Records...)
	w.mu.Unlock()
	return &Envelope{Type: MsgPutOK, Count: len(req.Records)}
}

// view resolves the requested dims against the dataset's registered schema,
// which a Put may replace: a schema that keeps the dims' positions keeps the
// View, and its cell columns. No dims means the full key, the zero View
// SimilarMover{} moves in.
func (w *Worker) view(dataset string, dims []string) (engine.View, error) {
	if len(dims) == 0 {
		return engine.View{}, nil
	}
	names := w.schemaOf(dataset)
	if names == nil {
		return engine.View{}, fmt.Errorf("dataset %q has no schema", dataset)
	}
	schema, err := olap.NewSchema(names...)
	if err != nil {
		return engine.View{}, fmt.Errorf("dataset %q: %w", dataset, err)
	}
	return workload.ViewOf(schema, dims)
}

// handleStats answers from the store's cell counts in the requested view:
// the top-k cells (every cell when k <= 0) and the record count.
func (w *Worker) handleStats(req *Envelope) *Envelope {
	view, err := w.view(req.Dataset, req.Dims)
	if err != nil {
		return w.errEnv(CodeNotFound, "stats: %v", err)
	}
	// Under the lock: the store's own column, which the mover keeps, changes
	// with the store.
	w.mu.Lock()
	cells, _ := w.data.Store(req.Dataset).Cells(view)
	top, records := cells.Top(req.TopK), cells.Total()
	w.mu.Unlock()
	return &Envelope{Type: MsgStatsOK, Count: records, Cells: top}
}

// handleScore scores the request's probe cells against the store's cells
// in the requested view, over the probe's own mass (ScoreCovered).
func (w *Worker) handleScore(req *Envelope) *Envelope {
	view, err := w.view(req.Dataset, req.Dims)
	if err != nil {
		return w.errEnv(CodeNotFound, "score: %v", err)
	}
	probe := similarity.Probe{Dataset: req.Dataset, View: view, Records: req.Cells}
	w.mu.Lock()
	cells, _ := w.data.Store(req.Dataset).Cells(view)
	score, err := similarity.ScoreCovered(probe, cells)
	w.mu.Unlock()
	if err != nil {
		return w.errEnv(CodeBadRequest, "score: %v", err)
	}
	return &Envelope{Type: MsgScoreOK, Score: score}
}

// handleMove selects records (similarity-aware when asked, using the
// destination's probe cells carried in the request) and pushes them to
// the destination worker through the shaped uplink.
func (w *Worker) handleMove(req *Envelope, decode time.Duration) *Envelope {
	tcol := w.beginTrace(req, decode)
	w.mu.Lock()
	src := w.data.Store(req.Dataset)
	n := len(src.Records())
	w.mu.Unlock()
	if req.Count <= 0 || n == 0 {
		return finishTrace(tcol, &Envelope{Type: MsgMoveOK, Count: 0}, fmt.Sprintf("move@site%d", w.Site))
	}
	sel := tcol.StartSpan("select")
	var mover engine.Mover = engine.RandomMover{}
	var dstCells engine.DstCells
	if req.Similar {
		mover = engine.SimilarMover{}
		dstCells = make(engine.DstCells, len(req.Cells))
		for _, c := range req.Cells {
			dstCells[c.Key] = c.Count
		}
	}
	// Select under the lock (it may build the store's cell index), push
	// without it: records that arrive meanwhile are appended behind the
	// selection and survive the Remove.
	w.mu.Lock()
	picked := src.Select(mover, dstCells, req.Count, stats.NewRand(stats.Split(w.seed, int64(n))))
	w.mu.Unlock()
	moved := picked.Records
	sel.End()

	// Push to the destination through the shaped uplink, then commit the
	// removal locally only on success.
	ps := tcol.StartSpan("push")
	resp, bytes, err := w.push(req.Dst, &Envelope{
		Type: MsgTransfer, Dataset: req.Dataset, Records: moved,
		Schema:  w.schemaOf(req.Dataset),
		TraceID: req.TraceID, ParentSpan: "push", TraceWall: req.TraceWall,
	})
	if err != nil {
		ps.End()
		return w.errEnv(CodeUnavailable, "move: push to %s: %v", req.Dst, err)
	}
	ps.Attach(resp.Trace)
	tcol.MergeSnapshot(resp.Metrics)
	ps.End()
	w.mu.Lock()
	err = src.Remove(picked)
	w.mu.Unlock()
	if err != nil {
		return w.errEnv(CodeUnknown, "move: %v", err)
	}
	w.count2(tcol, "netio.move.records", float64(len(moved)))
	w.count2(tcol, "netio.move.bytes", float64(bytes))
	return finishTrace(tcol, &Envelope{Type: MsgMoveOK, Count: len(moved)}, fmt.Sprintf("move@site%d", w.Site))
}

func (w *Worker) schemaOf(dataset string) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.schemas[dataset]
}

// countWriter counts the bytes written through an io.ReadWriter, so a
// push can report how much really crossed the (emulated) WAN.
type countWriter struct {
	io.ReadWriter
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.ReadWriter.Write(p)
	cw.n += int64(n)
	return n, err
}

// push dials a peer, shapes the connection with the uplink bucket, sends
// one request and waits for its acknowledgement, returning the response
// and the number of bytes written (header + body).
func (w *Worker) push(addr string, env *Envelope) (*Envelope, int64, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	idle, write := w.timeouts()
	conn.SetDeadline(time.Now().Add(idle + write))
	var rw net.Conn = w.injector().WrapConn(conn)
	if w.up != nil {
		rw = Shape(rw, w.up)
	}
	cw := &countWriter{ReadWriter: rw}
	resp, err := call(cw, env)
	return resp, cw.n, err
}

func (w *Worker) handleTransfer(req *Envelope) *Envelope {
	w.mu.Lock()
	if len(req.Schema) > 0 && w.schemas[req.Dataset] == nil {
		w.schemas[req.Dataset] = append([]string(nil), req.Schema...)
	}
	w.data.Add(req.Dataset, req.Records...)
	w.mu.Unlock()
	return &Envelope{Type: MsgTransferOK, Count: len(req.Records)}
}

// handleRunMap executes map (projection) + combine over the local dataset
// and scatters the intermediate records to their reduce owners through the
// shaped uplink, delivering the local share directly. The response carries
// the total intermediate count in Count and the per-destination record
// counts in PerSite, which the controller aggregates into each reducer's
// expected arrival count. Re-running the same query is safe: reducers key
// batches by source site and replace.
func (w *Worker) handleRunMap(req *Envelope, decode time.Duration) *Envelope {
	tcol := w.beginTrace(req, decode)
	q := req.Query
	view, err := w.view(q.Dataset, q.Dims)
	if err != nil {
		return w.errEnv(CodeNotFound, "runmap: %v", err)
	}
	// The stage is the engine's own, with the whole site as one executor.
	// The store keeps its layout; the scan reads records no transfer
	// modifies, so it runs unlocked.
	w.mu.Lock()
	store := w.data.Store(q.Dataset)
	recs := store.Records()
	layout, _, err := store.Layout(engine.Stage{Exec: engine.Executors{Machines: 1, PerMachine: 1}})
	w.mu.Unlock()
	if err != nil {
		return w.errEnv(CodeUnknown, "runmap: %v", err)
	}
	ms := tcol.StartSpan("map")
	stage := layout.Scan(&engine.Query{Combine: q.Combine, Map: view.Map()})
	ms.End()
	inter := stage.Inter
	w.count2(tcol, "netio.map.records", float64(len(recs)))
	w.count2(tcol, "netio.intermediate.records", float64(len(inter)))

	// Scatter by reduce ownership.
	if len(req.TaskFrac) != len(req.Peers) {
		return w.errEnv(CodeBadRequest, "runmap: %d task fractions for %d peers", len(req.TaskFrac), len(req.Peers))
	}
	buckets := make([][]engine.KV, len(req.Peers))
	for _, kv := range inter {
		owner := engine.KeyOwner(kv.Key, req.TaskFrac)
		buckets[owner] = append(buckets[owner], kv)
	}
	perSite := make([]int, len(req.Peers))
	sc := tcol.StartSpan("scatter")
	for site, batch := range buckets {
		perSite[site] = len(batch)
		if len(batch) == 0 {
			continue
		}
		if site == w.Site {
			w.acceptIntermediate(q.ID, w.Site, batch)
			continue
		}
		ps := tcol.StartSpan(fmt.Sprintf("->site%d", site))
		resp, bytes, err := w.push(req.Peers[site], &Envelope{
			Type: MsgIntermediate, Site: w.Site, Query: QueryDTO{ID: q.ID}, Records: batch,
			TraceID: req.TraceID, ParentSpan: "scatter", TraceWall: req.TraceWall,
		})
		if err != nil {
			ps.End()
			sc.End()
			return w.errEnv(CodeUnavailable, "runmap: scatter to site %d: %v", site, err)
		}
		ps.Attach(resp.Trace)
		tcol.MergeSnapshot(resp.Metrics)
		ps.End()
		w.count2(tcol, "netio.scatter.records", float64(len(batch)))
		w.count2(tcol, fmt.Sprintf("netio.scatter.site%d->site%d.bytes", w.Site, site), float64(bytes))
		w.count2(tcol, "netio.scatter.bytes", float64(bytes))
	}
	sc.End()
	return finishTrace(tcol,
		&Envelope{Type: MsgRunMapOK, Count: len(inter), PerSite: perSite},
		fmt.Sprintf("map@site%d", w.Site))
}

// acceptIntermediate records one source site's intermediate batch for a
// query, replacing any earlier batch from the same source (idempotent
// re-scatter after retries).
func (w *Worker) acceptIntermediate(queryID string, src int, recs []engine.KV) {
	w.mu.Lock()
	m := w.inter[queryID]
	if m == nil {
		m = map[int][]engine.KV{}
		w.inter[queryID] = m
	}
	m[src] = recs
	w.mu.Unlock()
}

func (w *Worker) interCount(queryID string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, recs := range w.inter[queryID] {
		n += len(recs)
	}
	return n
}

func (w *Worker) handleIntermediate(req *Envelope, decode time.Duration) *Envelope {
	tcol := w.beginTrace(req, decode)
	st := tcol.StartSpan("store")
	w.acceptIntermediate(req.Query.ID, req.Site, req.Records)
	st.End()
	w.count2(tcol, "netio.recv.records", float64(len(req.Records)))
	return finishTrace(tcol,
		&Envelope{Type: MsgIntermediateOK, Count: len(req.Records)},
		fmt.Sprintf("recv@site%d", w.Site))
}

// handleReduce waits until the expected number of intermediate records has
// arrived, combines them, and returns the reduce output. The wait is
// bounded by the request's TimeoutS (falling back to 10 s) and aborts
// promptly when the worker is closing so Close never deadlocks on a
// starved reducer.
func (w *Worker) handleReduce(req *Envelope, decode time.Duration) *Envelope {
	tcol := w.beginTrace(req, decode)
	wait := 10 * time.Second
	if req.TimeoutS > 0 {
		wait = time.Duration(req.TimeoutS * float64(time.Second))
	}
	deadline := time.Now().Add(wait)
	gs := tcol.StartSpan("gather")
	for {
		n := w.interCount(req.Query.ID)
		if n >= req.Expected {
			break
		}
		if w.isClosed() {
			return w.errEnv(CodeUnavailable, "reduce: worker shutting down")
		}
		if time.Now().After(deadline) {
			return w.errEnv(CodeUnavailable, "reduce: received %d of %d intermediate records for %q", n, req.Expected, req.Query.ID)
		}
		time.Sleep(2 * time.Millisecond)
	}
	gs.End()
	rs := tcol.StartSpan("reduce")
	w.mu.Lock()
	srcs := make([]int, 0, len(w.inter[req.Query.ID]))
	for s := range w.inter[req.Query.ID] {
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)
	var recs []engine.KV
	for _, s := range srcs {
		recs = append(recs, w.inter[req.Query.ID][s]...)
	}
	delete(w.inter, req.Query.ID)
	w.mu.Unlock()
	out := engine.CombinePartials(recs, req.Query.Combine)
	rs.End()
	w.count2(tcol, "netio.gather.records", float64(len(recs)))
	w.count2(tcol, "netio.reduce.output.records", float64(len(out)))
	return finishTrace(tcol, &Envelope{Type: MsgReduceOK, Records: out},
		fmt.Sprintf("reduce@site%d", w.Site))
}
