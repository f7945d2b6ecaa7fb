package engine_test

import (
	"slices"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/rdd"
)

// TestCarriedKeyHashesMatchRestoredLayout runs engine.WriteSequence's
// seeded writes and after every step builds the store's key-hash column,
// which carries across writes the way the key columns do: it must equal
// KeyHash of every record. The store's layout under Bohr's assigner with
// cube input, which reads that column, must then equal a Restore-d copy's,
// whose column is hashed afresh: each executor's records in scan order and
// distinct-key basis, and the modeled assignment overhead.
func TestCarriedKeyHashesMatchRestoredLayout(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		stage := engine.Stage{
			Exec:      engine.Executors{Machines: 2, PerMachine: 2},
			Assigner:  rdd.NewAssigner(seed),
			CubeInput: true,
		}
		engine.WriteSequence(t, seed, func(step string, st *engine.Store) int {
			t.Helper()
			hashes, fresh := engine.KeyHashes(st)
			recs := st.Records()
			if len(hashes) != len(recs) {
				t.Fatalf("seed %d, %s: %d hashes for %d records", seed, step, len(hashes), len(recs))
			}
			for i, r := range recs {
				if hashes[i] != engine.KeyHash(r.Key) {
					t.Fatalf("seed %d, %s: record %d (%q) carries hash %x, not %x", seed, step, i, r.Key, hashes[i], engine.KeyHash(r.Key))
				}
			}
			got, _, err := st.Layout(stage)
			if err != nil {
				t.Fatal(err)
			}
			var cp engine.Store
			cp.Restore(slices.Clone(recs))
			want, _, err := cp.Layout(stage)
			if err != nil {
				t.Fatal(err)
			}
			if got.AssignOverhead != want.AssignOverhead {
				t.Fatalf("seed %d, %s: assignment overhead %v, a restored copy's %v", seed, step, got.AssignOverhead, want.AssignOverhead)
			}
			g, w := got.Execs(), want.Execs()
			if len(g) != len(w) {
				t.Fatalf("seed %d, %s: %d executors, a restored copy has %d", seed, step, len(g), len(w))
			}
			for e := range w {
				if !slices.Equal(g[e].Records, w[e].Records) || g[e].Basis != w[e].Basis {
					t.Fatalf("seed %d, %s: executor %d scans %d records on basis %d, a restored copy's %d on %d",
						seed, step, e, len(g[e].Records), g[e].Basis, len(w[e].Records), w[e].Basis)
				}
			}
			return fresh
		})
	}
}
