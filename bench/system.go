package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"bohr/internal/core"
	"bohr/internal/durable"
	"bohr/internal/engine"
	"bohr/internal/experiments"
	"bohr/internal/ingest"
	"bohr/internal/obs"
	"bohr/internal/obs/window"
	"bohr/internal/placement"
	"bohr/internal/serve"
	"bohr/internal/sql"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// tracedBackend decorates the engine backend with a span around each
// call the front end and the ingest pipeline make into it. Embedding
// keeps every other method (schema lookup, state capture and restore), so
// the server sees a traced, durable, row-applying backend as before.
type tracedBackend struct {
	*serve.EngineBackend
	tr *tracer
}

func (b *tracedBackend) ContentHash(dataset string) (uint64, bool) {
	id := b.tr.begin("serve.content_hash")
	defer b.tr.end(id)
	return b.EngineBackend.ContentHash(dataset)
}

func (b *tracedBackend) Run(ctx context.Context, plan *sql.Plan) ([]engine.KV, error) {
	id := b.tr.begin("engine.query")
	defer b.tr.end(id)
	return b.EngineBackend.Run(ctx, plan)
}

func (b *tracedBackend) RunTraced(ctx context.Context, plan *sql.Plan) ([]engine.KV, *obs.Span, error) {
	id := b.tr.begin("engine.query")
	defer b.tr.end(id)
	return b.EngineBackend.RunTraced(ctx, plan)
}

func (b *tracedBackend) CaptureState() *durable.State {
	id := b.tr.begin("serve.capture_state")
	defer b.tr.end(id)
	return b.EngineBackend.CaptureState()
}

func (b *tracedBackend) ApplyBatch(ctx context.Context, batch ingest.Batch) ([]string, error) {
	id := b.tr.begin("serve.apply")
	defer b.tr.end(id)
	return b.EngineBackend.ApplyBatch(ctx, batch)
}

// serveSystem is the system `bohrd serve` runs by default, at 5,000 rows
// per site: QuickSetup (4 sites, 3 datasets), bigdata-scan, Bohr
// placement, and the front end configured as the daemon configures it.
// Requests reach the handler in-process, without TCP.
type serveSystem struct {
	seed    int64 // the traffic seed
	setup   experiments.Setup
	sys     *core.System
	backend *tracedBackend
	srv     *serve.Server
	handler http.Handler
	rng     *rand.Rand

	// Durable ingest (nil/empty without it). recovery is what opening dir
	// found; ownsDir says close removes dir.
	pipe     *ingest.Pipeline
	man      *durable.Manager
	dir      string
	ownsDir  bool
	recovery *durable.RecoverySummary
	// sent counts records acked per dataset and in total; offset is the
	// one source's next offset.
	sent   map[string]int
	total  int
	offset uint64
	// initial is each dataset's record count before any ingest.
	initial map[string]int
}

const serveRowsPerSite = 5000

// serveDataSeed generates the deployment's data, and through it the
// placement plan, for every -seed: the deployment is fixed and the seed
// varies the traffic (statement parameters, batch contents). With
// seed-derived data the plan's movement shares decided how many arriving
// rows ingest forwards, and ingest-durable's allocation per batch alone
// ranged over 51 % between ten seeds, which no bound could hold.
const serveDataSeed = 42

func serveSetup() experiments.Setup {
	s := experiments.QuickSetup()
	s.RowsPerSite = serveRowsPerSite
	s.Seed = serveDataSeed
	return s
}

// prepareSystem generates the data and places it under Bohr.
func prepareSystem(s experiments.Setup) (*core.System, *obs.Collector, *window.Registry, error) {
	cluster, w, err := s.Populated(workload.BigDataScan, false, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	col := obs.NewCollector(obs.WithWallClock())
	win := window.New(nil)
	col.SetSink(win)
	opts := s.PlacementOptions(0)
	opts.Obs = col
	sys, err := core.New(cluster, w, placement.Bohr, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := sys.Prepare(context.Background()); err != nil {
		return nil, nil, nil, err
	}
	return sys, col, win, nil
}

// newServeSystem builds the system and its front end. snapshotEvery < 0
// leaves ingest off; otherwise durable ingest is enabled on a fresh
// temporary directory with fsync on, no flush timer and that snapshot
// cadence.
func newServeSystem(seed int64, snapshotEvery int) (*serveSystem, error) {
	s := serveSetup()
	sys, col, win, err := prepareSystem(s)
	if err != nil {
		return nil, err
	}
	v := &serveSystem{
		seed:    seed,
		setup:   s,
		sys:     sys,
		backend: &tracedBackend{EngineBackend: serve.NewEngineBackend(sys)},
		rng:     stats.NewRand(stats.Split(seed, 4242)),
		sent:    map[string]int{},
		initial: map[string]int{},
		offset:  1,
	}
	for _, ds := range sys.Workload.Datasets {
		v.initial[ds.Name] = v.stored(ds.Name)
	}
	v.srv = serve.New(v.backend, daemonConfig(win), col)
	v.handler = v.srv.Handler()
	if snapshotEvery < 0 {
		return v, nil
	}
	v.dir, err = os.MkdirTemp("", "bohr-bench-wal-")
	if err != nil {
		return nil, err
	}
	v.ownsDir = true
	if err := v.openDurable(snapshotEvery); err != nil {
		v.close()
		return nil, err
	}
	return v, nil
}

// daemonConfig is the front-end configuration `bohrd serve` builds from
// its default flags, with the info-level logger writing nowhere.
func daemonConfig(win *window.Registry) serve.Config {
	return serve.Config{
		Sched:   serve.SchedConfig{MaxConcurrent: 8, TenantQuota: 2, MaxQueue: 64, Weights: map[string]float64{}},
		Flight:  &serve.FlightConfig{RingSize: 512, SlowThreshold: 250 * time.Millisecond},
		Windows: win,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}
}

// openDurable opens v.dir and enables durable ingest over it, recovering
// whatever the directory holds.
func (v *serveSystem) openDurable(snapshotEvery int) error {
	man, err := durable.Open(durable.Config{Dir: v.dir, Fsync: true})
	if err != nil {
		return err
	}
	cfg := ingest.Config{MaxBatchRecords: batchRecords, FlushInterval: -1, MaxPending: 4096, Seed: v.setup.Seed}
	pipe, sum, err := v.srv.EnableDurableIngest(context.Background(), cfg, man, snapshotEvery)
	if err != nil {
		man.Close()
		return err
	}
	v.man, v.pipe, v.recovery = man, pipe, sum
	return nil
}

func (v *serveSystem) close() {
	if v.pipe != nil {
		v.pipe.Kill()
		v.srv.DrainSnapshots()
		v.man.Close()
		v.pipe = nil
	}
	if v.ownsDir {
		os.RemoveAll(v.dir)
	}
}

// stored counts a dataset's records across sites.
func (v *serveSystem) stored(dataset string) int {
	n := 0
	c := v.sys.Cluster
	for site := 0; site < c.N(); site++ {
		n += len(c.Data[site].Records(dataset))
	}
	return n
}

// post sends one request to the front end's handler and returns the
// status and body.
func (v *serveSystem) post(path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	v.handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// query posts one statement as tenant "bench" and decodes the reply.
func (v *serveSystem) query(stmt string) (serve.QueryResponse, error) {
	body, err := json.Marshal(serve.QueryRequest{Tenant: "bench", Query: stmt})
	if err != nil {
		return serve.QueryResponse{}, err
	}
	code, reply := v.post("/v1/query", body)
	if code != http.StatusOK {
		return serve.QueryResponse{}, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(reply))
	}
	var resp serve.QueryResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return serve.QueryResponse{}, err
	}
	return resp, nil
}

// batchRecords is the size of every ingested batch, the daemon's default
// -ingest-batch.
const batchRecords = 256

// makeBatch draws one batch from the one source: coordinates are those of
// rows the dataset already holds (more visits to known pages), offsets
// are monotonic. dataset < 0 spreads the batch over every dataset.
func (v *serveSystem) makeBatch(dataset int) []ingest.Record {
	dss := v.sys.Workload.Datasets
	sites := v.sys.Cluster.N()
	recs := make([]ingest.Record, batchRecords)
	for j := range recs {
		ds := dss[j%len(dss)]
		if dataset >= 0 {
			ds = dss[dataset]
		}
		site := (j / len(dss)) % sites
		rows := ds.Rows[v.rng.Intn(len(ds.Rows))]
		recs[j] = ingest.Record{
			Source: "bench", Offset: v.offset, Dataset: ds.Name, Site: site,
			Coords: rows[v.rng.Intn(len(rows))].Coords, Measure: 1 + v.rng.Float64()*9,
		}
		v.offset++
	}
	return recs
}

// ingestBatch posts one batch, delivers it and waits for any checkpoint
// it triggered: when it returns the batch is acked, applied and no
// background work is left.
func (v *serveSystem) ingestBatch(recs []ingest.Record, tr *tracer) error {
	body := ingest.EncodeBatch(recs)
	id := tr.push("ingest.ack")
	code, reply := v.post("/v1/ingest", body)
	tr.pop(id)
	var resp ingest.PushResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return err
	}
	if code != http.StatusOK || resp.Accepted != len(recs) {
		return fmt.Errorf("ingest: status %d, accepted %d of %d: %s", code, resp.Accepted, len(recs), resp.Error)
	}
	for _, r := range recs {
		v.sent[r.Dataset]++
	}
	v.total += len(recs)
	id = tr.push("ingest.deliver")
	err := v.pipe.Flush(context.Background())
	tr.pop(id)
	if err != nil {
		return err
	}
	id = tr.push("serve.snapshot_wait")
	v.srv.DrainSnapshots()
	tr.pop(id)
	return nil
}
