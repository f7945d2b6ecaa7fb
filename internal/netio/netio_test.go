package netio

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"bohr/internal/engine"
	"bohr/internal/obs"
	"bohr/internal/stats"
	"bohr/internal/wan"
	"bohr/internal/workload"
)

func TestBucketValidation(t *testing.T) {
	if _, err := NewBucket(0, 1); err == nil {
		t.Fatal("zero rate should error")
	}
	b, err := NewBucket(1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.burst != 1000 {
		t.Fatalf("burst = %v, want one second of rate", b.burst)
	}
}

func TestBucketPacing(t *testing.T) {
	// 1 MB/s with a 10 KB burst: sending 100 KB with the contractual sleep
	// after each take must spread over ≈90 ms (burst covers the first 10 KB).
	b, _ := NewBucket(1e6, 1e4)
	start := time.Now()
	for i := 0; i < 10; i++ {
		if d := b.Take(10_000); d > 0 {
			time.Sleep(d)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 70*time.Millisecond || elapsed > 200*time.Millisecond {
		t.Fatalf("paced send took %v, want ≈90ms", elapsed)
	}
	if b.Take(0) != 0 {
		t.Fatal("zero-byte take should not wait")
	}
}

func TestBucketRefills(t *testing.T) {
	b, _ := NewBucket(1e6, 1e6)
	b.Take(1_000_000) // drain the burst
	time.Sleep(50 * time.Millisecond)
	// ~50 KB refilled; a 10 KB take should not wait.
	if d := b.Take(10_000); d > 0 {
		t.Fatalf("after refill take should be free, waited %v", d)
	}
}

func TestMsgRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	env := &Envelope{
		Type:    MsgPut,
		Dataset: "ds",
		Schema:  []string{"a", "b"},
		Records: []engine.KV{{Key: key("x", "y"), Val: 3.5}},
		Cells:   []ProbeCellDTO{{Key: "k", Count: 7}},
	}
	if err := WriteMsg(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgPut || got.Dataset != "ds" || len(got.Records) != 1 ||
		got.Records[0].Val != 3.5 || got.Cells[0].Count != 7 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestReadMsgRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMsg(&buf); err == nil {
		t.Fatal("oversize header should error")
	}
}

// liveCluster starts n workers and a controller on localhost.
func liveCluster(t *testing.T, n int, upMBps float64) (*Controller, []*Worker) {
	t.Helper()
	var workers []*Worker
	var addrs []string
	for i := 0; i < n; i++ {
		w, err := NewWorker(i, "127.0.0.1:0", upMBps, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	ctl, err := Dial(context.Background(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctl.Close()
		for _, w := range workers {
			_ = w.Close()
		}
	})
	return ctl, workers
}

func key(coords ...string) string { return workload.JoinKey(coords) }

func TestDialValidation(t *testing.T) {
	if _, err := Dial(context.Background(), nil); err == nil {
		t.Fatal("no workers should error")
	}
	if _, err := Dial(context.Background(), []string{"127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable worker should error")
	}
}

func TestPutStatsScore(t *testing.T) {
	ctl, _ := liveCluster(t, 2, 0)
	schema := []string{"url", "country"}
	if err := ctl.Put(context.Background(), 0, "logs", schema, []engine.KV{
		{Key: key("u1", "US"), Val: 1},
		{Key: key("u1", "JP"), Val: 1},
		{Key: key("u2", "US"), Val: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Put(context.Background(), 1, "logs", schema, []engine.KV{
		{Key: key("u1", "DE"), Val: 1},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := ctl.Stats(context.Background(), 0, "logs", []string{"url"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 3 || len(st.Top) != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Top[0].Key != "u1" || st.Top[0].Count != 2 {
		t.Fatalf("top cell = %+v", st.Top[0])
	}
	// Probe from site 0 against site 1: u1 matches (2 of 3 mass).
	score, err := ctl.Score(context.Background(), 1, "logs", []string{"url"}, st.Top)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(score-2.0/3) > 1e-9 {
		t.Fatalf("score = %v, want 2/3", score)
	}
}

func TestStatsUnknownDimension(t *testing.T) {
	ctl, _ := liveCluster(t, 1, 0)
	_ = ctl.Put(context.Background(), 0, "d", []string{"a"}, []engine.KV{{Key: "x", Val: 1}})
	if _, err := ctl.Stats(context.Background(), 0, "d", []string{"zzz"}, 5); err == nil {
		t.Fatal("unknown dimension should error")
	}
}

func TestMoveTransfersRecords(t *testing.T) {
	ctl, _ := liveCluster(t, 2, 0)
	schema := []string{"k"}
	var recs []engine.KV
	for i := 0; i < 100; i++ {
		recs = append(recs, engine.KV{Key: fmt.Sprintf("k%d", i%10), Val: 1})
	}
	if err := ctl.Put(context.Background(), 0, "d", schema, recs); err != nil {
		t.Fatal(err)
	}
	dstStats, _ := ctl.Stats(context.Background(), 1, "d", nil, 100)
	moved, err := ctl.Move(context.Background(), 0, 1, "d", 40, true, dstStats.Top)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 40 {
		t.Fatalf("moved = %d", moved)
	}
	s0, _ := ctl.Stats(context.Background(), 0, "d", nil, 0)
	s1, _ := ctl.Stats(context.Background(), 1, "d", nil, 0)
	if s0.Records != 60 || s1.Records != 40 {
		t.Fatalf("post-move counts = %d / %d", s0.Records, s1.Records)
	}
}

func TestDistributedQueryMatchesLocal(t *testing.T) {
	ctl, _ := liveCluster(t, 3, 0)
	schema := []string{"url", "country"}
	var all []engine.KV
	for site := 0; site < 3; site++ {
		var recs []engine.KV
		for i := 0; i < 50; i++ {
			kv := engine.KV{
				Key: key(fmt.Sprintf("u%d", i%7), fmt.Sprintf("c%d", (i+site)%3)),
				Val: float64(i%5) + 1,
			}
			recs = append(recs, kv)
			all = append(all, kv)
		}
		if err := ctl.Put(context.Background(), site, "logs", schema, recs); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ctl.RunQuery(context.Background(), QueryDTO{
		ID: "q1", Dataset: "logs", Dims: []string{"url"}, Combine: engine.OpSum,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: project + sum locally.
	want := map[string]float64{}
	for _, kv := range all {
		url := workload.SplitKey(kv.Key)[0]
		want[url] += kv.Val
	}
	if len(res.Output) != len(want) {
		t.Fatalf("output keys = %d, want %d", len(res.Output), len(want))
	}
	for _, kv := range res.Output {
		if math.Abs(want[kv.Key]-kv.Val) > 1e-9 {
			t.Fatalf("key %q = %v, want %v", kv.Key, kv.Val, want[kv.Key])
		}
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed missing")
	}
	if res.ShuffledRecords <= 0 {
		t.Fatal("expected cross-site shuffle records")
	}
}

func TestDistributedCountQuery(t *testing.T) {
	ctl, _ := liveCluster(t, 2, 0)
	schema := []string{"class"}
	_ = ctl.Put(context.Background(), 0, "jobs", schema, []engine.KV{{Key: "a", Val: 9}, {Key: "a", Val: 9}, {Key: "b", Val: 9}})
	_ = ctl.Put(context.Background(), 1, "jobs", schema, []engine.KV{{Key: "a", Val: 9}})
	res, err := ctl.RunQuery(context.Background(), QueryDTO{
		ID: "count1", Dataset: "jobs", Dims: []string{"class"}, Combine: engine.OpCount,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, kv := range res.Output {
		got[kv.Key] = kv.Val
	}
	if got["a"] != 3 || got["b"] != 1 {
		t.Fatalf("counts = %v (partial counts must sum across sites)", got)
	}
}

// TestLiveReduceMatchesEngine is the live leg of one aggregate over one
// dataset: the same records on three workers and on an engine cluster of
// one executor per site, queried with the same task fractions. Both sides
// fold every key's partials in source-site order — the workers' reducers
// through engine.CombinePartials, the engine through its round's key table
// — so the controller's output equals engine.Run's bit for bit.
func TestLiveReduceMatchesEngine(t *testing.T) {
	ctx := context.Background()
	const n = 3
	ctl, _ := liveCluster(t, n, 0)
	top, err := wan.NewTopology([]string{"a", "b", "c"}, []float64{10, 20, 30}, []float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.NewCluster(top, 1, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"url", "country"}
	rng := stats.NewRand(17)
	for site := 0; site < n; site++ {
		recs := make([]engine.KV, 400)
		for i := range recs {
			recs[i] = engine.KV{
				Key: key(fmt.Sprintf("u%d", rng.Intn(40)), fmt.Sprintf("c%d", rng.Intn(5))),
				Val: (rng.Float64() - 0.4) * 1e3,
			}
		}
		if err := ctl.Put(ctx, site, "logs", names, recs); err != nil {
			t.Fatal(err)
		}
		c.Data[site].Add("logs", recs...)
	}
	frac := []float64{0.2, 0.5, 0.3}
	for _, op := range []engine.CombineOp{engine.OpSum, engine.OpCount, engine.OpMax} {
		live, err := ctl.RunQuery(ctx, QueryDTO{ID: "live-" + op.String(), Dataset: "logs", Dims: []string{"url"}, Combine: op}, frac)
		if err != nil {
			t.Fatal(err)
		}
		q := engine.AggregationQuery(op.String(), "logs", engine.NewView(2, 0))
		q.Combine = op
		sim, err := c.Run(ctx, engine.JobConfig{Query: q, TaskFrac: frac})
		if err != nil {
			t.Fatal(err)
		}
		if live.ShuffledRecords == 0 || len(sim.Output) == 0 || len(live.Output) != len(sim.Output) {
			t.Fatalf("%v: %d live rows after shuffling %d records, %d engine rows", op, len(live.Output), live.ShuffledRecords, len(sim.Output))
		}
		for i, want := range sim.Output {
			if got := live.Output[i]; got.Key != want.Key || math.Float64bits(got.Val) != math.Float64bits(want.Val) {
				t.Fatalf("%v: row %d = %q %v live, %q %v in the engine", op, i, got.Key, got.Val, want.Key, want.Val)
			}
		}
	}
}

func TestTaskFracRoutesReduceWork(t *testing.T) {
	ctl, _ := liveCluster(t, 2, 0)
	_ = ctl.Put(context.Background(), 0, "d", []string{"k"}, []engine.KV{{Key: "x", Val: 1}, {Key: "y", Val: 1}})
	// All reduce tasks at site 1: everything shuffles there.
	res, err := ctl.RunQuery(context.Background(), QueryDTO{ID: "q", Dataset: "d", Combine: engine.OpSum}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShuffledRecords != 2 {
		t.Fatalf("shuffled = %d, want 2", res.ShuffledRecords)
	}
}

// TestStitchedDistributedTrace is the tentpole acceptance check: one live
// two-worker query must leave a single stitched trace on the controller's
// collector, with worker-side map/reduce span subtrees grafted under the
// per-query controller span, wall durations stamped (WithWallClock), and
// worker byte/record counter deltas folded into the controller registry.
func TestStitchedDistributedTrace(t *testing.T) {
	ctl, workers := liveCluster(t, 2, 0)
	col := obs.NewCollector(obs.WithWallClock())
	ctl.SetObs(col)
	for site := 0; site < 2; site++ {
		var recs []engine.KV
		for i := 0; i < 50; i++ {
			recs = append(recs, engine.KV{Key: fmt.Sprintf("k%02d", i%10), Val: 1})
		}
		if err := ctl.Put(context.Background(), site, "d", []string{"k"}, recs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctl.RunQuery(context.Background(), QueryDTO{ID: "q1", Dataset: "d", Combine: engine.OpSum}, nil); err != nil {
		t.Fatal(err)
	}
	q := col.Trace().Find("netio:q1")
	if q == nil {
		t.Fatal("no per-query controller span in trace")
	}
	for _, path := range [][]string{
		{"map@site0", "deserialize"},
		{"map@site0", "map"}, {"map@site0", "scatter"},
		{"map@site1", "map"},
		{"reduce@site0", "gather"}, {"reduce@site0", "reduce"},
		{"reduce@site1", "reduce"},
	} {
		if q.Find(path...) == nil {
			t.Errorf("stitched trace missing %v", path)
		}
	}
	// WithWallClock must stamp wall durations on worker-side spans.
	if s := q.Find("map@site0", "map"); s != nil && s.Wall <= 0 {
		t.Errorf("map@site0/map wall = %v, want > 0", s.Wall)
	}
	if s := q.Find("reduce@site1", "reduce"); s != nil && s.Wall <= 0 {
		t.Errorf("reduce@site1/reduce wall = %v, want > 0", s.Wall)
	}
	// Three-hop stitch: a mapper's scatter push grafts the receiving
	// peer's recv@ subtree under the per-peer span.
	hop3 := false
	for src := 0; src < 2; src++ {
		dst := 1 - src
		if q.Find(fmt.Sprintf("map@site%d", src), "scatter",
			fmt.Sprintf("->site%d", dst), fmt.Sprintf("recv@site%d", dst)) != nil {
			hop3 = true
		}
	}
	if !hop3 {
		t.Error("no scatter push carried the receiver's recv@ subtree")
	}
	// Worker metric deltas fold into the controller registry; workers also
	// keep their own cumulative registries for live export.
	snap := col.MetricsSnapshot()
	if got := snap.Counters["netio.map.records"]; got != 100 {
		t.Errorf("netio.map.records = %v, want 100", got)
	}
	if got := snap.Counters["netio.scatter.bytes"]; got <= 0 {
		t.Errorf("netio.scatter.bytes = %v, want > 0", got)
	}
	if got := workers[0].Obs().MetricsSnapshot().Counters["netio.map.records"]; got != 50 {
		t.Errorf("worker 0 cumulative map.records = %v, want 50", got)
	}
}

func TestRunQueryValidation(t *testing.T) {
	ctl, _ := liveCluster(t, 2, 0)
	if _, err := ctl.RunQuery(context.Background(), QueryDTO{Dataset: "d"}, nil); err == nil {
		t.Fatal("missing query ID should error")
	}
	if _, err := ctl.RunQuery(context.Background(), QueryDTO{ID: "q", Dataset: "d"}, []float64{1}); err == nil {
		t.Fatal("short task fractions should error")
	}
}

func TestShapedUplinkSlowsMovement(t *testing.T) {
	// 1 MB of records through a 2 MB/s uplink must take ≈0.5 s; through an
	// unshaped one it should be near-instant.
	mkRecs := func() []engine.KV {
		// ~100 B per record once gob-encoded; 10k records ≈ 1 MB.
		recs := make([]engine.KV, 10_000)
		for i := range recs {
			recs[i] = engine.KV{Key: fmt.Sprintf("key-%04d-%060d", i, i), Val: float64(i)}
		}
		return recs
	}
	timeMove := func(upMBps float64) time.Duration {
		ctl, _ := liveCluster(t, 2, upMBps)
		if err := ctl.Put(context.Background(), 0, "d", []string{"k"}, mkRecs()); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := ctl.Move(context.Background(), 0, 1, "d", 10_000, false, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	fast := timeMove(0) // unshaped
	slow := timeMove(2) // 2 MB/s with a 0.5 MB burst credit
	// ≈1 MB minus the 0.5 MB burst at 2 MB/s ≥ 150 ms of pacing.
	if slow < 120*time.Millisecond {
		t.Fatalf("shaped move took %v, expected ≥120ms", slow)
	}
	if slow < fast+100*time.Millisecond {
		t.Fatalf("shaping had no effect: fast=%v slow=%v", fast, slow)
	}
}

func TestWorkerCloseIdempotent(t *testing.T) {
	w, err := NewWorker(0, "127.0.0.1:0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
