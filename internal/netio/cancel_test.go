package netio

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"bohr/internal/engine"
	"bohr/internal/faults"
	"bohr/internal/obs"
)

// TestDialHonorsContextDeadline points the controller at a listener that
// accepts but never answers the hello; the context deadline must cut the
// handshake short of the configured DialTimeout.
func TestDialHonorsContextDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, say nothing
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = dial(ctx, []string{ln.Addr().String()}, config{
		dialTimeout: 10 * time.Second, requestTimeout: 10 * time.Second,
	})
	if err == nil {
		t.Fatal("dial against a mute listener succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("dial took %v to honor a 150ms context deadline", d)
	}
}

// TestQueryCancellationReleasesResources cancels a query stuck in its
// retry loop (every push from site 0 is dropped by the injector): RunQuery
// must return the context error promptly — aborting the backoff sleep
// rather than finishing it — decrement the inflight gauge, and leave no
// goroutines behind.
func TestQueryCancellationReleasesResources(t *testing.T) {
	var workers []*Worker
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := NewWorker(i, "127.0.0.1:0", 0, int64(200+i))
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	col := obs.NewCollector()
	cfg := fastConfig()
	cfg.retries = 1000 // effectively unbounded: only the ctx stops the loop
	cfg.retryBase = 200 * time.Millisecond
	cfg.retryCap = 400 * time.Millisecond
	ctl, err := dial(context.Background(), addrs, cfg)
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
	// Drop every framed write site 0 makes from now on: scatter pushes can
	// never succeed, so the query lives in the retry/backoff loop until the
	// context ends it.
	sched := &faults.Schedule{Seed: 3, Events: []faults.Event{
		{Kind: faults.KindMsgDrop, Site: 0, Start: 0, End: 3600, Prob: 1},
	}}
	workers[0].SetInjector(sched.Injector(0, time.Now()))

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := ctl.RunQuery(ctx, QueryDTO{ID: "doomed", Dataset: "d", Combine: engine.OpSum}, []float64{0, 1})
		errc <- err
	}()
	time.Sleep(250 * time.Millisecond) // let the scatter start failing
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled query reported success")
		}
		if !errors.Is(err, context.Canceled) {
			// The in-flight attempt may surface as an I/O error instead of
			// the ctx error; either way the loop must have stopped, which
			// the prompt return below proves. But a retryable error with a
			// live ctx would keep looping, so require ctx to be reflected.
			t.Fatalf("cancelled query returned %v, want context.Canceled in the chain", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("RunQuery did not return after cancellation")
	}
	if n := ctl.InflightQueries(); n != 0 {
		t.Fatalf("inflight gauge = %d after cancellation, want 0", n)
	}
	waitGoroutines(t, baseline)
}
