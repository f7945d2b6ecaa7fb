package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/rdd"
	"bohr/internal/stats"
)

// TestLayoutMatchesReferenceAcrossWrites is the differential test of the
// key ids: random Add, remove, clone and Restore sequences over stores
// whose keys include foreign widths and the empty key — once with KeyHash,
// once with a hash under which most keys collide in the interning table —
// and after about every third step, so that writes pile up between
// layouts, each live store's layout (executors, distinct-key
// basis, overhead, and so the assignment) under Bohr's assigner, with and
// without cube input, and under round-robin with cube input, must equal the
// reference path's: every record's own hash handed to the assigner and
// distinct keys counted by hash and key compare (engine.RefLayout).
func TestLayoutMatchesReferenceAcrossWrites(t *testing.T) {
	stages := []engine.Stage{
		{Exec: engine.Executors{Machines: 2, PerMachine: 3}, Assigner: rdd.NewAssigner(5), CubeInput: true},
		{Exec: engine.Executors{Machines: 1, PerMachine: 4}, Assigner: rdd.NewAssigner(9)},
		{Exec: engine.Executors{Machines: 2, PerMachine: 2}, CubeInput: true},
	}
	for _, tc := range []struct {
		name string
		hash func(string) uint64
	}{
		{"KeyHash", engine.KeyHash},
		{"colliding", func(k string) uint64 { return engine.KeyHash(k) & 7 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := stats.NewRand(int64(len(tc.name)))
			serial := 0
			batch := func(n int) []engine.KV {
				out := make([]engine.KV, n)
				for i := range out {
					serial++
					key := fmt.Sprintf("k%d%sc%d", rng.Intn(40), engine.KeySep, rng.Intn(3))
					switch rng.Intn(20) {
					case 0:
						key = fmt.Sprintf("lonely%d", rng.Intn(5))
					case 1:
						key = key + engine.KeySep + "x"
					case 2:
						key = ""
					}
					out[i] = engine.KV{Key: key, Val: float64(serial)}
				}
				return out
			}
			stores := []*engine.Store{new(engine.Store)}
			stores[0].Add(batch(200)...)
			engine.ForceKeyHash(stores[0], tc.hash) // before any key is interned
			for step := 0; step < 240; step++ {
				st := stores[rng.Intn(len(stores))]
				op := ""
				switch k := rng.Intn(10); {
				case k < 4:
					op = "Add"
					st.Add(batch(1 + rng.Intn(60))...)
				case k < 7:
					op = "remove"
					if err := engine.Forward(st, 1+rng.Intn(st.Len()/3+1), rand.New(rand.NewSource(rng.Int63()))); err != nil {
						t.Fatal(err)
					}
				case k < 9:
					op = "clone"
					if stores = append(stores, engine.CloneStore(st)); len(stores) > 3 {
						stores = slices.Delete(stores, 0, 1)
					}
				default:
					op = "Restore"
					recs := batch(30 + rng.Intn(100))
					if other := stores[rng.Intn(len(stores))]; rng.Intn(2) == 0 && other.Len() > 0 {
						recs = other.Records() // what a snapshot load hands back
					}
					st.Restore(recs)
					engine.ForceKeyHash(st, tc.hash)
				}
				if rng.Intn(3) > 0 && step < 239 {
					continue // writes pile up between layouts, as between queries
				}
				for si, s := range stores {
					for _, stage := range stages {
						l, _, err := s.Layout(stage)
						if err != nil {
							t.Fatal(err)
						}
						want, err := engine.RefLayout(s.Records(), stage, tc.hash)
						if err != nil {
							t.Fatal(err)
						}
						if got := l.Shape(); !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d (%s), store %d of %d records, %+v: layout %+v, the reference's %+v",
								step, op, si, s.Len(), stage, got, want)
						}
					}
				}
			}
		})
	}
}
