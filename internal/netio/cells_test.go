package netio

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/olap"
	"bohr/internal/similarity"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// localCells counts records in the projection of dims onto schema, the way
// the planner's stores do.
func localCells(t *testing.T, recs []engine.KV, schema, dims []string) engine.CellCounts {
	t.Helper()
	var view engine.View
	if len(dims) > 0 {
		var err error
		if view, err = workload.ViewOf(olap.MustSchema(schema...), dims); err != nil {
			t.Fatal(err)
		}
	}
	st := new(engine.Store)
	st.Add(recs...)
	cells, _ := st.Cells(view)
	return cells
}

// TestStatsScoreMatchProbes: a worker's Stats is similarity.BuildProbe and
// its Score is similarity.ScoreCovered over the same records, in every
// view; after a similarity-aware move, the column the mover keeps (with
// the cells that left at count zero) answers like a fresh one; and a Put
// that only replaces the schema re-projects the records it already holds.
func TestStatsScoreMatchProbes(t *testing.T) {
	ctx := context.Background()
	ctl, _ := liveCluster(t, 2, 0)
	schema := []string{"url", "country"}
	rng := stats.NewRand(5)
	var recs [2][]engine.KV
	for s := range recs {
		for i := 0; i < 120; i++ {
			k := key(fmt.Sprintf("u%d", rng.Intn(9+4*s)), fmt.Sprintf("c%d", rng.Intn(4)))
			recs[s] = append(recs[s], engine.KV{Key: k, Val: 1})
		}
		if err := ctl.Put(ctx, s, "logs", schema, recs[s]); err != nil {
			t.Fatal(err)
		}
	}
	for _, dims := range [][]string{nil, {"url"}, {"country", "url"}} {
		src, dst := localCells(t, recs[0], schema, dims), localCells(t, recs[1], schema, dims)
		for _, k := range []int{1, 2, 5, 0} {
			got, err := ctl.Stats(ctx, 0, "logs", dims, k)
			if err != nil {
				t.Fatal(err)
			}
			pk := k
			if k <= 0 {
				pk = src.Distinct() // every cell
			}
			probe, err := similarity.BuildProbe("logs", src, pk)
			if err != nil {
				t.Fatal(err)
			}
			if got.Records != probe.TotalCount || !reflect.DeepEqual(got.Top, probe.Records) {
				t.Fatalf("dims %v k=%d: stats %d %v, probe %d %v", dims, k, got.Records, got.Top, probe.TotalCount, probe.Records)
			}
			score, err := ctl.Score(ctx, 1, "logs", dims, got.Top)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := similarity.ScoreCovered(probe, dst); score != want {
				t.Fatalf("dims %v k=%d: score %v, ScoreCovered %v", dims, k, score, want)
			}
		}
	}

	dstTop, err := ctl.Stats(ctx, 1, "logs", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Move(ctx, 0, 1, "logs", 70, true, dstTop.Top); err != nil {
		t.Fatal(err)
	}
	kept, err := ctl.Stats(ctx, 0, "logs", nil, 0) // the mover's column
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ctl.Stats(ctx, 0, "logs", schema, 0) // a column of the same keys, built now
	if err != nil {
		t.Fatal(err)
	}
	if kept.Records != 50 || !reflect.DeepEqual(kept, fresh) {
		t.Fatalf("after the move: the mover's column reads %+v, a fresh one %+v", kept, fresh)
	}

	for _, names := range [][]string{schema, {"country", "url"}} {
		if err := ctl.Put(ctx, 0, "logs", names, nil); err != nil {
			t.Fatal(err)
		}
		got, err := ctl.Stats(ctx, 0, "logs", []string{"url"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The url field is the first one under schema, the second under
		// the swapped names, which spell country values there.
		for _, c := range got.Top {
			if c.Key[0] != names[0][0] {
				t.Fatalf("under schema %v, url cells read %v", names, got.Top)
			}
		}
	}
}

// TestPutKeepingPositionsKeepsCells: dims resolve to a View by position, so
// a Put whose schema keeps the dims' positions finds the cell column already
// built for them, and one that moves them builds another.
func TestPutKeepingPositionsKeepsCells(t *testing.T) {
	ctx := context.Background()
	ctl, workers := liveCluster(t, 1, 0)
	recs := []engine.KV{{Key: key("u1", "c1"), Val: 1}, {Key: key("u2", "c1"), Val: 1}, {Key: key("u1", "c2"), Val: 1}}
	if err := ctl.Put(ctx, 0, "logs", []string{"url", "country"}, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Stats(ctx, 0, "logs", []string{"url"}, 0); err != nil { // builds the url column
		t.Fatal(err)
	}
	w := workers[0]
	for _, step := range []struct {
		names  []string
		shared bool
	}{{[]string{"url", "region"}, true}, {[]string{"country", "url"}, false}} {
		if err := ctl.Put(ctx, 0, "logs", step.names, nil); err != nil {
			t.Fatal(err)
		}
		view, err := w.view("logs", []string{"url"})
		if err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		_, hit := w.data.Store("logs").Cells(view)
		w.mu.Unlock()
		if hit != step.shared {
			t.Fatalf("schema %v: url column hit = %v, want %v", step.names, hit, step.shared)
		}
	}
}

// TestWorkerCellsConcurrent drives one worker's Stats, Score, Put and Move
// from four controllers at once, so requests really overlap there: reads of
// the column the mover keeps race its writes unless they share the
// worker's lock. Run under -race (make race). Every record put is still
// somewhere at the end.
func TestWorkerCellsConcurrent(t *testing.T) {
	ctx := context.Background()
	ctl, workers := liveCluster(t, 2, 0)
	schema := []string{"url", "country"}
	const rounds = 25
	var seed []engine.KV
	for i := 0; i < 200; i++ {
		seed = append(seed, engine.KV{Key: key(fmt.Sprintf("u%d", i%13), fmt.Sprintf("c%d", i%3)), Val: 1})
	}
	for site := range workers {
		if err := ctl.Put(ctx, site, "logs", schema, seed); err != nil {
			t.Fatal(err)
		}
	}
	addrs := []string{workers[0].Addr(), workers[1].Addr()}
	ops := []func(c *Controller, r int) error{
		func(c *Controller, r int) error { // Put
			recs := []engine.KV{{Key: key(fmt.Sprintf("u%d", r%17), "c9"), Val: 1}}
			return c.Put(ctx, r%2, "logs", schema, recs)
		},
		func(c *Controller, r int) error { // Stats, both views
			if _, err := c.Stats(ctx, 0, "logs", nil, r%4); err != nil {
				return err
			}
			_, err := c.Stats(ctx, 1, "logs", []string{"url"}, 3)
			return err
		},
		func(c *Controller, r int) error { // Score
			cells := []ProbeCellDTO{{Key: key(fmt.Sprintf("u%d", r%13), "c0"), Count: 2}, {Key: "u1", Count: 1}}
			if _, err := c.Score(ctx, 0, "logs", nil, cells); err != nil {
				return err
			}
			_, err := c.Score(ctx, 1, "logs", []string{"url"}, cells[1:])
			return err
		},
		func(c *Controller, r int) error { // Move, both ways
			dst, err := c.Stats(ctx, 1-r%2, "logs", nil, 8)
			if err != nil {
				return err
			}
			_, err = c.Move(ctx, r%2, 1-r%2, "logs", 3, true, dst.Top)
			return err
		},
	}
	var wg sync.WaitGroup
	for _, op := range ops {
		c, err := Dial(ctx, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := op(c, r); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for s := range addrs {
		st, err := ctl.Stats(ctx, s, "logs", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Records
	}
	if want := 2*len(seed) + rounds; total != want {
		t.Fatalf("%d records at the end, %d were put", total, want)
	}
}
