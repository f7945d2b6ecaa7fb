package placement

import (
	"fmt"
	"reflect"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// refVolumes is how the profiler used to measure a move list: execute it on
// a scratch clone exactly as Plan.Execute does, then replay every dataset's
// dominant map+combine stage at every site.
func refVolumes(t *testing.T, c *engine.Cluster, w *workload.Workload, plan *Plan, seed int64, moves []engine.MoveSpec) [][]float64 {
	t.Helper()
	clone := c.Clone()
	scratch := &Plan{Scheme: plan.Scheme, Moves: moves, movers: plan.movers}
	if _, err := scratch.Execute(clone, stats.Split(seed, 501)); err != nil {
		t.Fatal(err)
	}
	f := make([][]float64, len(w.Datasets))
	for a, ds := range w.Datasets {
		q := ds.DominantQuery().Query
		f[a] = make([]float64, clone.N())
		for i := range f[a] {
			l, _, err := clone.Data[i].Store(ds.Name).Layout(engine.Stage{Exec: clone.Exec[i]})
			if err != nil {
				t.Fatal(err)
			}
			f[a][i] = clone.MB(len(l.Scan(&q).Inter))
		}
	}
	return f
}

// TestProfilerMatchesReplay is the profiler's differential: for every
// scheme × workload kind × seed, every move list a planning round profiles
// — calibration rounds, the heuristic, the final plan — has exactly the
// volumes a scratch clone moved record by record and replayed has.
func TestProfilerMatchesReplay(t *testing.T) {
	lists, moved := 0, 0
	for _, kind := range workload.Kinds() {
		for _, seed := range []int64{42, 7, 1009} {
			c, w := seededSetup(t, kind, false, seed)
			for _, id := range AllSchemes() {
				name := fmt.Sprintf("%v/%d/%v", kind, seed, id)
				plan, prof, err := planScheme(id, c.Clone(), w, Options{Seed: seed})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for k, d := range prof.done {
					lists++
					if len(d.moves) > 0 {
						moved++
					}
					if want := refVolumes(t, c, w, plan, seed, d.moves); !reflect.DeepEqual(d.f, want) {
						t.Errorf("%s: list %d (%d moves) profiled\n%v\nreplayed\n%v", name, k, len(d.moves), d.f, want)
					}
				}
			}
		}
	}
	if moved < lists/2 {
		t.Fatalf("only %d of %d profiled lists moved anything", moved, lists)
	}
}
