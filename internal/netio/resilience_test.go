package netio

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"bohr/internal/engine"
	"bohr/internal/faults"
	"bohr/internal/obs"
)

// fastConfig keeps retry/timeout machinery on a test-friendly clock.
func fastConfig() config {
	return config{
		dialTimeout:    time.Second,
		requestTimeout: 2 * time.Second,
		reduceTimeout:  time.Second,
		retries:        8,
		queryRetries:   2,
		retryBase:      60 * time.Millisecond,
		retryCap:       400 * time.Millisecond,
		seed:           7,
	}
}

func TestRemoteErrorTypes(t *testing.T) {
	ctl, ws := liveCluster(t, 1, 0)

	// Unknown message type straight at the worker: bad request, fatal.
	conn, err := net.Dial("tcp", ws[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = call(conn, &Envelope{Type: 200})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("unknown message type returned %T (%v), want *RemoteError", err, err)
	}
	if re.Code != CodeBadRequest || re.Site != 0 || re.Req != 200 {
		t.Fatalf("remote error = %+v, want bad-request at site 0 for req 200", re)
	}
	if re.Retryable() || IsRetryable(re) {
		t.Fatal("bad request must not be retryable")
	}

	// Missing schema / dimension: not-found, fatal.
	if _, err := ctl.Stats(context.Background(), 0, "nope", []string{"x"}, 5); !errors.As(err, &re) || re.Code != CodeNotFound {
		t.Fatalf("missing schema error = %v, want not-found RemoteError", err)
	}
	if err := ctl.Put(context.Background(), 0, "d", []string{"a"}, []engine.KV{{Key: "x", Val: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Stats(context.Background(), 0, "d", []string{"zzz"}, 5); !errors.As(err, &re) || re.Code != CodeNotFound {
		t.Fatalf("missing dimension error = %v, want not-found RemoteError", err)
	}
	if IsRetryable(re) {
		t.Fatal("not-found must not be retryable")
	}

	// Unavailable errors and transport failures are retryable.
	if !IsRetryable(&RemoteError{Code: CodeUnavailable}) {
		t.Fatal("unavailable must be retryable")
	}
	if !IsRetryable(net.ErrClosed) {
		t.Fatal("closed connections must be retryable")
	}
	for _, c := range []ErrCode{CodeUnknown, CodeBadRequest, CodeNotFound, CodeUnavailable} {
		if c.String() == "" {
			t.Fatalf("code %d has no name", c)
		}
	}
}

func TestWorkerCloseForceClosesHungConn(t *testing.T) {
	w, err := NewWorker(0, "127.0.0.1:0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A partial frame leaves the worker's handler blocked in ReadMsg.
	if _, err := conn.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the worker accept and block
	done := make(chan struct{})
	go func() {
		w.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Close blocked on a hung connection")
	}
	// The worker side must be gone: the next read errors out.
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("hung connection still open after Close")
	}
}

func TestWorkerIdleTimeoutDropsSilentConn(t *testing.T) {
	w, err := NewWorker(0, "127.0.0.1:0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetTimeouts(80*time.Millisecond, time.Second)
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing: the worker must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("worker kept a silent connection past its idle timeout")
	}
}

// waitGoroutines polls until the goroutine count settles at or below the
// baseline (plus slack for runtime helpers).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d, baseline %d", n, baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func queryOutputs(res *QueryResult) map[string]float64 {
	out := map[string]float64{}
	for _, kv := range res.Output {
		out[kv.Key] = kv.Val
	}
	return out
}

// TestChaosWorkerKillRestart is the live half of the acceptance scenario:
// a worker dies right as a query starts and comes back 300 ms later at
// the same address; the query must complete correctly via redials and
// retries, and nothing may leak after shutdown.
func TestChaosWorkerKillRestart(t *testing.T) {
	baseline := runtime.NumGoroutine()

	var workers []*Worker
	var addrs []string
	for i := 0; i < 3; i++ {
		w, err := NewWorker(i, "127.0.0.1:0", 0, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	col := obs.NewCollector()
	ctl, err := dial(context.Background(), addrs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl.SetObs(col)
	defer func() {
		ctl.Close()
		for _, w := range workers {
			w.Close()
		}
	}()

	// Data lives at sites 0 and 1 only; site 2 owns most reduce work, so
	// the query cannot complete without it.
	schema := []string{"k"}
	for site := 0; site < 2; site++ {
		var recs []engine.KV
		for i := 0; i < 40; i++ {
			recs = append(recs, engine.KV{Key: fmt.Sprintf("k%d", (i+site)%9), Val: float64(i%4) + 1})
		}
		if err := ctl.Put(context.Background(), site, "d", schema, recs); err != nil {
			t.Fatal(err)
		}
	}
	taskFrac := []float64{0.1, 0.1, 0.8}
	clean, err := ctl.RunQuery(context.Background(), QueryDTO{ID: "pre", Dataset: "d", Combine: engine.OpSum}, taskFrac)
	if err != nil {
		t.Fatal(err)
	}
	want := queryOutputs(clean)

	// Kill site 2, schedule its resurrection at the same address, and run
	// the query against the outage.
	if err := workers[2].Close(); err != nil {
		t.Fatal(err)
	}
	restarted := make(chan *Worker, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		w, err := NewWorker(2, addrs[2], 0, 102)
		if err != nil {
			t.Errorf("restart at %s: %v", addrs[2], err)
			restarted <- nil
			return
		}
		restarted <- w
	}()
	res, err := ctl.RunQuery(context.Background(), QueryDTO{ID: "chaos", Dataset: "d", Combine: engine.OpSum}, taskFrac)
	if w := <-restarted; w != nil {
		workers[2] = w
	}
	if err != nil {
		t.Fatalf("query across worker kill+restart failed: %v", err)
	}
	got := queryOutputs(res)
	if len(got) != len(want) {
		t.Fatalf("chaos query returned %d keys, clean run %d", len(got), len(want))
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Fatalf("key %q = %v after chaos, want %v", k, got[k], v)
		}
	}
	snap := col.MetricsSnapshot()
	if snap.Counters["netio.retries"] <= 0 {
		t.Fatalf("no retries recorded across an outage: %+v", snap.Counters)
	}

	// Full teardown leaks nothing.
	ctl.Close()
	for _, w := range workers {
		w.Close()
	}
	waitGoroutines(t, baseline)
}

// TestInjectorDropsForceRetries wires a fault schedule into the live path:
// site 0's scatter pushes flip drop coins, so queries only finish because
// the controller retries.
func TestInjectorDropsForceRetries(t *testing.T) {
	sched := &faults.Schedule{Seed: 11, Events: []faults.Event{
		{Kind: faults.KindMsgDrop, Site: 0, Start: 0, End: 3600, Prob: 0.5},
	}}
	var workers []*Worker
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := NewWorker(i, "127.0.0.1:0", 0, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	col := obs.NewCollector()
	ctl, err := dial(context.Background(), addrs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl.SetObs(col)
	t.Cleanup(func() {
		ctl.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	var recs []engine.KV
	for i := 0; i < 30; i++ {
		recs = append(recs, engine.KV{Key: fmt.Sprintf("k%d", i%5), Val: 1})
	}
	if err := ctl.Put(context.Background(), 0, "d", []string{"k"}, recs); err != nil {
		t.Fatal(err)
	}
	// Attach the injector only after loading: the controller's existing
	// connection stays clean, while every scatter push site 0 dials from
	// now on goes through the drop coins.
	workers[0].SetInjector(sched.Injector(0, time.Now()))
	// Everything reduces at site 1, so site 0 must push through its faulty
	// uplink; an attempt survives only if every framed write beats a p=0.5
	// coin, and the retry budget absorbs the failures.
	res, err := ctl.RunQuery(context.Background(), QueryDTO{ID: "drop", Dataset: "d", Combine: engine.OpSum}, []float64{0, 1})
	if err != nil {
		t.Fatalf("query under drop faults failed: %v", err)
	}
	if got := queryOutputs(res); got["k0"] != 6 {
		t.Fatalf("outputs = %v, want k0=6", got)
	}
}
