package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bohr/internal/core"
	"bohr/internal/durable"
	"bohr/internal/engine"
	"bohr/internal/ingest"
	"bohr/internal/obs"
	"bohr/internal/obs/window"
	"bohr/internal/sql"
)

// pushRange pushes offsets [from, to] of the "prop" source straight at
// the pipeline in batches of eight.
func pushRange(t *testing.T, sys *core.System, pipe *ingest.Pipeline, source string, from, to uint64) {
	t.Helper()
	ctx := context.Background()
	for lo := from; lo <= to; {
		hi := min(lo+7, to)
		recs := make([]ingest.Record, 0, hi-lo+1)
		for off := lo; off <= hi; off++ {
			recs = append(recs, liveRecord(sys, source, off, int(off)%sys.Cluster.N()))
		}
		if _, err := pipe.Push(ctx, recs...); err != nil {
			t.Fatalf("pushing offsets %d..%d: %v", lo, hi, err)
		}
		lo = hi + 1
	}
}

// TestIngestServerCrashChaos extends the ingest chaos scenario with a
// server-side crash: the pipeline's workers die mid-stream via Kill —
// no drain, no snapshot, buffered batches abandoned — and a fresh
// incarnation recovers from the durability directory alone. The client
// then replays its whole stream at-least-once. The invariants match the
// client-crash leg exactly: zero records lost, zero double-applied, and
// the watermark/dedupe accounting unchanged by the server's death.
func TestIngestServerCrashChaos(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const total, crashAt = 60, 30
	pcfg := func() ingest.Config {
		return ingest.Config{MaxBatchRecords: 10, FlushInterval: -1, Seed: 5}
	}
	ccfg := ingest.ClientConfig{BatchRecords: 10, Seed: 5}

	// First incarnation over an empty directory: nothing to recover.
	sys1 := smallSystem(t)
	ds := sys1.Workload.Datasets[0]
	fe1 := New(NewEngineBackend(sys1), Config{}, nil)
	m1, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	pipe1, sum1, err := fe1.EnableDurableIngest(ctx, pcfg(), m1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum1.FramesReplayed != 0 || sum1.SnapshotSeq != 0 {
		t.Fatalf("empty directory recovered state: %+v", sum1)
	}
	inj := &faultInjector{inner: fe1.Handler()}
	ts1 := httptest.NewServer(inj)

	cli1 := ingest.NewClient(ts1.URL+"/v1/ingest", "web-tier", ccfg)
	for off := uint64(1); off <= crashAt; off++ {
		r := liveRecord(sys1, "web-tier", off, int(off)%sys1.Cluster.N())
		if err := cli1.Add(ctx, r.Dataset, r.Site, r.Coords, r.Measure); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
	}
	if err := cli1.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// The server "dies": workers are killed with acked batches still
	// buffered ahead of the applier — the window only the WAL covers.
	pipe1.Kill()
	ts1.Close()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	inj.mu.Lock()
	drops := inj.drops
	inj.mu.Unlock()
	if drops == 0 {
		t.Fatal("fault injector never fired; the chaos leg exercised nothing")
	}

	// Second incarnation: a fresh seed system (the process restarted)
	// recovering from the WAL alone.
	sys2 := smallSystem(t)
	seed := clusterRecords(sys2, ds.Name)
	fe2 := New(NewEngineBackend(sys2), Config{}, nil)
	m2, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	pipe2, sum2, err := fe2.EnableDurableIngest(ctx, pcfg(), m2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	defer pipe2.Close()
	// Every acked record was journaled, so recovery applies exactly the
	// acked prefix and the watermark lands where the client left off.
	if sum2.RecordsReplayed != crashAt || sum2.RecordsDeduped != 0 {
		t.Fatalf("recovery replayed %d records (%d deduped), want %d fresh",
			sum2.RecordsReplayed, sum2.RecordsDeduped, crashAt)
	}
	if w := pipe2.Watermark("web-tier"); w != crashAt {
		t.Fatalf("recovered watermark %d, want %d", w, crashAt)
	}
	if got := clusterRecords(sys2, ds.Name); got != seed+crashAt {
		t.Fatalf("recovered cluster holds %d live records, want %d", got-seed, crashAt)
	}

	// The client restarts too and replays its whole stream from offset 1.
	ts2 := httptest.NewServer(fe2.Handler())
	defer ts2.Close()
	cli2 := ingest.NewClient(ts2.URL+"/v1/ingest", "web-tier", ccfg)
	for off := uint64(1); off <= total; off++ {
		r := liveRecord(sys2, "web-tier", off, int(off)%sys2.Cluster.N())
		if err := cli2.Add(ctx, r.Dataset, r.Site, r.Coords, r.Measure); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
	}
	if err := cli2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := pipe2.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Watermark and dedupe accounting look exactly as if the server had
	// never died: the replayed prefix dedupes, the tail applies once.
	if w := pipe2.Watermark("web-tier"); w != total {
		t.Fatalf("final watermark %d, want %d", w, total)
	}
	st := pipe2.Stats()
	if st.Accepted != total-crashAt || st.Deduped != crashAt {
		t.Fatalf("post-restart stats accepted %d deduped %d, want %d/%d",
			st.Accepted, st.Deduped, total-crashAt, crashAt)
	}
	if got := clusterRecords(sys2, ds.Name); got != seed+total {
		t.Fatalf("cluster gained %d live records, want %d (zero loss, zero double-apply)",
			got-seed, total)
	}
	dim := ds.Schema.Dims()[0]
	_, out := postQuery(t, ts2.URL, "alice",
		"SELECT "+dim+", SUM(measure) FROM "+ds.Name+" GROUP BY "+dim)
	sum := 0.0
	for _, row := range out.Rows {
		if strings.Contains(row.Key, "liveA") {
			sum += row.Val
		}
	}
	if sum != total {
		t.Fatalf("liveA group sums to %v, want %d (each record counted once)", sum, total)
	}
}

// flatRecords is each dataset's record multiset across all sites,
// sorted. Raw per-site placement is legitimately history-dependent —
// IngestBatch forwards each batch's arrivals along the movement shares,
// so regrouped resends can land rows at different sites — but movement
// only relocates rows, so the global multiset is invariant.
func flatRecords(st *durable.State) map[string][]engine.KV {
	out := map[string][]engine.KV{}
	for _, ds := range st.Datasets {
		var all []engine.KV
		for _, recs := range ds.Records {
			all = append(all, recs...)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Key != all[j].Key {
				return all[i].Key < all[j].Key
			}
			return all[i].Val < all[j].Val
		})
		out[ds.Name] = all
	}
	return out
}

// pinnedAnswers sends a fixed set of statements over the first dataset
// — a scan, a grouped SUM, one with a WHERE, and COUNT(*) last — through
// /v1/query and renders the replies' rows.
func pinnedAnswers(t *testing.T, fe *Server, sys *core.System) (rendered string, count float64) {
	t.Helper()
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()
	ds := sys.Workload.Datasets[0]
	d := ds.Schema.Dims()
	var out strings.Builder
	for _, q := range []string{
		"SELECT " + d[0] + ", SUM(measure) FROM " + ds.Name + " GROUP BY " + d[0] + " ORDER BY value DESC LIMIT 20",
		"SELECT " + d[1] + ", " + d[2] + ", SUM(measure) FROM " + ds.Name + " GROUP BY " + d[1] + ", " + d[2],
		"SELECT " + d[1] + ", COUNT(*) FROM " + ds.Name + " WHERE " + d[0] + " = 'liveA' GROUP BY " + d[1],
		"SELECT COUNT(*) FROM " + ds.Name,
	} {
		resp, reply := postQuery(t, ts.URL, "alice", q)
		if resp.StatusCode != 200 || len(reply.Rows) == 0 {
			t.Fatalf("%q: status %d, %d rows", q, resp.StatusCode, len(reply.Rows))
		}
		rows, err := json.Marshal(reply.Rows)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s\n%s\n", q, rows)
		count = reply.Rows[0].Val
	}
	return out.String(), count
}

// TestRecoverEquivalentToNeverCrashed is the durability property: for a
// fixed stream, a server that crashes and recovers at seeded points —
// with seeded snapshot cuts and seeded at-least-once client rewinds —
// must converge to the same logical state as a server that never
// crashed (and never journaled at all): identical offset trackers, an
// identical global record multiset per dataset, byte-identical answers
// to the pinned statements, and a COUNT(*) that equals the seed records
// plus the acked ones and a naive fold over the stores.
func TestRecoverEquivalentToNeverCrashed(t *testing.T) {
	ctx := context.Background()
	const total = 90
	const source = "prop"
	pcfg := func() ingest.Config {
		return ingest.Config{MaxBatchRecords: 8, FlushInterval: -1, Seed: 11}
	}

	// Control: one pipeline, no journal, no crashes.
	sysC := smallSystem(t)
	bC := NewEngineBackend(sysC)
	feC := New(bC, Config{}, nil)
	pipeC, err := feC.EnableIngest(pcfg())
	if err != nil {
		t.Fatal(err)
	}
	pushRange(t, sysC, pipeC, source, 1, total)
	if err := pipeC.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	wantState := bC.CaptureState()
	wantOffs := pipeC.OffsetsSnapshot()
	wantRows, wantCount := pinnedAnswers(t, feC, sysC)
	if err := pipeC.Close(); err != nil {
		t.Fatal(err)
	}

	// Subject: the same stream interrupted by seeded kills, each
	// recovered into a fresh system over the same directory.
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	sys := smallSystem(t)
	seed := clusterRecords(sys, sys.Workload.Datasets[0].Name)
	b := NewEngineBackend(sys)
	fe := New(b, Config{}, nil)
	m, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	pipe, _, err := fe.EnableDurableIngest(ctx, pcfg(), m, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(1)
	for crash := 0; crash < 3; crash++ {
		cp := min(next+uint64(5+rng.Intn(20)), total)
		pushRange(t, sys, pipe, source, next, cp)
		if rng.Intn(2) == 0 {
			// A cadence snapshot landed before this crash: recovery
			// takes the restore-then-replay-tail path.
			if err := fe.SnapshotNow(ctx); err != nil {
				t.Fatalf("snapshot before crash %d: %v", crash, err)
			}
		}
		pipe.Kill()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		// The client lost its cursor too: rewind a seeded distance and
		// resend at-least-once.
		next = max(cp+1-uint64(rng.Intn(10)), 1)
		sys = smallSystem(t)
		b = NewEngineBackend(sys)
		fe = New(b, Config{}, nil)
		if m, err = durable.Open(durable.Config{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		if pipe, _, err = fe.EnableDurableIngest(ctx, pcfg(), m, 0); err != nil {
			t.Fatalf("recovering after crash %d: %v", crash, err)
		}
	}
	pushRange(t, sys, pipe, source, next, total)
	if err := pipe.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	gotState := b.CaptureState()
	gotOffs := pipe.OffsetsSnapshot()
	gotRows, gotCount := pinnedAnswers(t, fe, sys)
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Batch boundaries legitimately differ across the two histories
	// (resends regroup records, which also shifts share-based movement),
	// so the comparison is the batch-invariant state: trackers, each
	// dataset's global record multiset, and what a client is told.
	if !reflect.DeepEqual(wantOffs, gotOffs) {
		t.Fatalf("offset trackers diverged:\n never-crashed: %+v\n recovered:     %+v",
			wantOffs, gotOffs)
	}
	if want, got := flatRecords(wantState), flatRecords(gotState); !reflect.DeepEqual(want, got) {
		t.Fatalf("record multisets diverged:\n never-crashed: %+v\n recovered:     %+v", want, got)
	}
	if gotRows != wantRows {
		t.Fatalf("pinned answers diverged:\n never-crashed:\n%s recovered:\n%s", wantRows, gotRows)
	}
	if stored := clusterRecords(sys, sys.Workload.Datasets[0].Name); gotCount != wantCount ||
		gotCount != float64(seed+total) || gotCount != float64(stored) {
		t.Fatalf("COUNT(*) = %v recovered, %v never-crashed; seed %d + acked %d, stores hold %d",
			gotCount, wantCount, seed, total, stored)
	}
}

// liveState renders everything a checkpoint must carry — every store's
// records in order and the batch counter — with floats as bit patterns, so two
// backends hold the same state exactly when the renderings are equal.
func liveState(b *EngineBackend) string {
	var out strings.Builder
	st := b.CaptureState()
	defer st.Release()
	fmt.Fprintf(&out, "batches %d\n", st.IngestBatches)
	for _, ds := range st.Datasets {
		for i, recs := range ds.Records {
			fmt.Fprintf(&out, "%s site %d: %d records\n", ds.Name, i, len(recs))
			for _, kv := range recs {
				fmt.Fprintf(&out, "  %q %x\n", kv.Key, math.Float64bits(kv.Val))
			}
		}
	}
	return out.String()
}

// TestCheckpointRoundTrip is the image's property test: after seeded
// random ingest (forwarded by the plan's similarity-aware mover), random
// moves, a live replan and a batch of values no wire codec would let in,
// a checkpoint restored into a freshly prepared backend reproduces the
// state bit for bit — store order included —
// with nothing left to replay, the same offset trackers, and the same
// answer to a pinned aggregate query.
func TestCheckpointRoundTrip(t *testing.T) {
	ctx := context.Background()
	coordPool := []string{"", "a|b", "100%", "line\nbreak", "\xff\xfe not utf-8", "liveA"}
	hostileVals := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000123)}
	pcfg := ingest.Config{MaxBatchRecords: 16, FlushInterval: -1, Seed: 3}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		sys := systemOf(t, 2)
		sys.SetReplanEvery(5)
		b := NewEngineBackend(sys)
		fe := New(b, Config{}, nil)
		m, err := durable.Open(durable.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		pipe, _, err := fe.EnableDurableIngest(ctx, pcfg, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A record's coordinates are either those of a row the dataset
		// holds (so it lands in a cell the mover knows) or drawn from the
		// hostile pool.
		record := func(off uint64, measure float64) ingest.Record {
			ds := sys.Workload.Datasets[rng.Intn(len(sys.Workload.Datasets))]
			rows := ds.Rows[rng.Intn(len(ds.Rows))]
			coords := append([]string(nil), rows[rng.Intn(len(rows))].Coords...)
			for j := range coords {
				if rng.Intn(3) == 0 {
					coords[j] = coordPool[rng.Intn(len(coordPool))]
				}
			}
			return ingest.Record{Source: "prop", Offset: off, Dataset: ds.Name,
				Site: rng.Intn(sys.Cluster.N()), Coords: coords, Measure: measure}
		}
		off := uint64(1)
		push := func(n int) {
			recs := make([]ingest.Record, n)
			for i := range recs {
				recs[i] = record(off, rng.NormFloat64())
				off++
			}
			if _, err := pipe.Push(ctx, recs...); err != nil {
				t.Fatal(err)
			}
			if err := pipe.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		push(150)
		b.stateMu.Lock()
		for i := 0; i < 6; i++ {
			ds := sys.Workload.Datasets[i%2].Name
			src := rng.Intn(sys.Cluster.N())
			spec := engine.MoveSpec{Dataset: ds, Src: src, Dst: (src + 1 + rng.Intn(sys.Cluster.N()-1)) % sys.Cluster.N(), MB: sys.Cluster.MB(5 + rng.Intn(40))}
			if _, err := sys.Cluster.ApplyMoves([]engine.MoveSpec{spec}, engine.RandomMover{}, rng); err != nil {
				t.Fatal(err)
			}
		}
		sys.Cluster.Data[0].Add(sys.Workload.Datasets[0].Name, engine.KV{Key: "", Val: hostileVals[0]})
		b.stateMu.Unlock()
		push(150)
		if sys.IngestReplans() == 0 {
			t.Fatal("no live replan ran; the test means to checkpoint after one")
		}
		hostile := make([]ingest.Record, 2*len(hostileVals))
		for i := range hostile {
			hostile[i] = record(uint64(1000+i), hostileVals[i%len(hostileVals)])
		}
		if _, err := b.ApplyBatch(ctx, ingest.Batch{Records: hostile}); err != nil {
			t.Fatal(err)
		}

		if err := fe.SnapshotNow(ctx); err != nil {
			t.Fatal(err)
		}
		want, wantOffs := liveState(b), pipe.OffsetsSnapshot()
		// The pinned query runs on the backend: its answer holds the NaN
		// and infinite sums, which the HTTP response's JSON cannot.
		ds0 := sys.Workload.Datasets[0]
		plan, err := sql.CompileString("SELECT "+ds0.Schema.Dims()[0]+", SUM(measure) FROM "+ds0.Name+" GROUP BY "+ds0.Schema.Dims()[0], ds0.Schema)
		if err != nil {
			t.Fatal(err)
		}
		answer := func(b *EngineBackend) string {
			rows, err := b.Run(ctx, plan)
			if err != nil || len(rows) == 0 {
				t.Fatalf("seed %d: pinned query: %d rows, %v", seed, len(rows), err)
			}
			var out strings.Builder
			for _, kv := range rows {
				fmt.Fprintf(&out, "%q %x\n", kv.Key, math.Float64bits(kv.Val))
			}
			return out.String()
		}
		wantRows := answer(b)
		pipe.Kill()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		sys2 := systemOf(t, 2)
		sys2.SetReplanEvery(5)
		b2 := NewEngineBackend(sys2)
		fe2 := New(b2, Config{}, nil)
		m2, err := durable.Open(durable.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		pipe2, sum, err := fe2.EnableDurableIngest(ctx, pcfg, m2, 0)
		if err != nil {
			t.Fatalf("seed %d: recovering the checkpoint: %v", seed, err)
		}
		if sum.SnapshotSeq == 0 || sum.FramesReplayed != 0 {
			t.Fatalf("seed %d: recovery summary %+v, want the checkpoint and no replay", seed, sum)
		}
		if got := liveState(b2); got != want {
			t.Fatalf("seed %d: restored state differs from the captured one:\n got:\n%s\nwant:\n%s", seed, got, want)
		}
		if got := pipe2.OffsetsSnapshot(); !reflect.DeepEqual(got, wantOffs) {
			t.Fatalf("seed %d: offsets %+v, want %+v", seed, got, wantOffs)
		}
		if got := answer(b2); got != wantRows {
			t.Fatalf("seed %d: pinned query answers differ:\n got:\n%swant:\n%s", seed, got, wantRows)
		}
		pipe2.Kill()
		m2.Close()
	}
}

// TestSnapshotHoldsRecordsOnly bounds the image by what it is for: after
// a run of ingested batches it holds each stored record once — its key,
// a length byte or two and eight bytes of value — plus a frame per
// (dataset, site) block and the header and trailer, and no second copy of
// the data in any other shape.
func TestSnapshotHoldsRecordsOnly(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sys := smallSystem(t)
	fe := New(NewEngineBackend(sys), Config{}, nil)
	m, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	pipe, _, err := fe.EnableDurableIngest(ctx, ingest.Config{MaxBatchRecords: 8, FlushInterval: -1}, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	pushRange(t, sys, pipe, "web", 1, 160)
	if err := fe.SnapshotNow(ctx); err != nil {
		t.Fatal(err)
	}
	const perBlock, headerAndTrailer = 8 + binary.MaxVarintLen64 + 16, 256
	bound := int64(headerAndTrailer)
	for _, ds := range sys.Workload.Datasets {
		for site := 0; site < sys.Cluster.N(); site++ {
			bound += perBlock
			for _, kv := range sys.Cluster.Data[site].Records(ds.Name) {
				bound += int64(len(binary.AppendUvarint(nil, uint64(len(kv.Key)))) + len(kv.Key) + 8)
			}
		}
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files %v, %v; want one", snaps, err)
	}
	info, err := os.Stat(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > bound {
		t.Fatalf("image is %d bytes; its records and framing account for at most %d", info.Size(), bound)
	}
}

// TestSnapshotMetricsInStats checks a checkpoint reports itself through
// the window registry: its whole duration, how long it paused admission,
// and the file's size, all readable from /v1/stats.
func TestSnapshotMetricsInStats(t *testing.T) {
	ctx := context.Background()
	col := obs.NewCollector(obs.WithWallClock())
	win := window.New(nil)
	col.SetSink(win)
	sys := smallSystem(t)
	fe := New(NewEngineBackend(sys), Config{Windows: win}, col)
	m, err := durable.Open(durable.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	pipe, _, err := fe.EnableDurableIngest(ctx, ingest.Config{MaxBatchRecords: 8, FlushInterval: -1}, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	pushRange(t, sys, pipe, "web", 1, 20)
	if err := fe.SnapshotNow(ctx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()
	var stats StatsDoc
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Windows == nil {
		t.Fatal("stats has no windowed snapshot")
	}
	for _, name := range []string{"serve.durable.snapshot_ms", "serve.durable.barrier_ms", "serve.durable.snapshot_bytes"} {
		h := stats.Windows.Histograms[name]["1m"]
		if h.Count != 1 || h.Max <= 0 {
			t.Errorf("%s in /v1/stats = %+v, want one positive observation", name, h)
		}
	}
	snap, barrier := stats.Windows.Histograms["serve.durable.snapshot_ms"]["1m"], stats.Windows.Histograms["serve.durable.barrier_ms"]["1m"]
	if barrier.Max > snap.Max {
		t.Errorf("barrier %v ms longer than the whole checkpoint %v ms", barrier.Max, snap.Max)
	}
	if got := stats.Windows.Counters["serve.durable.snapshots"]["1m"].Sum; got != 1 {
		t.Errorf("serve.durable.snapshots = %v, want 1", got)
	}
}

// TestCheckpointWhileIngesting cuts background checkpoints every second
// batch while a client keeps pushing: the image is encoded from the
// stores' live record slices as later batches append to and move records
// between those stores, which is only sound because a slice a store has
// handed out is never modified. Under -race a write into a captured slice
// would be reported; either way the directory must recover to exactly
// what was acked.
func TestCheckpointWhileIngesting(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	pcfg := ingest.Config{MaxBatchRecords: 4, FlushInterval: -1, Seed: 9}
	sys := smallSystem(t)
	ds := sys.Workload.Datasets[0]
	seed := clusterRecords(sys, ds.Name)
	fe := New(NewEngineBackend(sys), Config{}, nil)
	m, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	pipe, _, err := fe.EnableDurableIngest(ctx, pcfg, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	const total = 400
	for off := uint64(1); off <= total; off += 4 {
		pushRange(t, sys, pipe, "web", off, off+3)
		if err := pipe.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	fe.DrainSnapshots()
	pipe.Kill()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	sys2 := smallSystem(t)
	fe2 := New(NewEngineBackend(sys2), Config{}, nil)
	m2, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	pipe2, sum, err := fe2.EnableDurableIngest(ctx, pcfg, m2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe2.Close()
	if sum.SnapshotSeq == 0 {
		t.Fatal("no background checkpoint landed; the test exercised nothing")
	}
	if got := clusterRecords(sys2, ds.Name); got != seed+total {
		t.Fatalf("recovered %d live records (snapshot seq %d, %d replayed), want %d",
			got-seed, sum.SnapshotSeq, sum.RecordsReplayed, total)
	}
	if w := pipe2.Watermark("web"); w != total {
		t.Fatalf("recovered watermark %d, want %d", w, total)
	}
}
