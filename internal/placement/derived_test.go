package placement

import (
	"reflect"
	"sync"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/workload"
)

// coldCopy rebuilds a cluster record by record: same records in the same
// order at every site, no content shared with c.
func coldCopy(t *testing.T, c *engine.Cluster) *engine.Cluster {
	t.Helper()
	out, err := engine.NewCluster(c.Top, c.Exec[0].Machines, c.Exec[0].PerMachine, c.BytesPerRecord)
	if err != nil {
		t.Fatal(err)
	}
	for i, sd := range c.Data {
		for _, name := range c.DatasetNames() {
			for _, r := range sd.Records(name) {
				out.Data[i].Add(name, r)
			}
		}
	}
	return out
}

// samePlan compares what a plan decided and the inputs it decided from.
func samePlan(t *testing.T, name string, got, want *Plan) {
	t.Helper()
	if !reflect.DeepEqual(got.Moves, want.Moves) {
		t.Errorf("%s: moves differ:\n%+v\nvs\n%+v", name, got.Moves, want.Moves)
	}
	if !reflect.DeepEqual(got.TaskFrac, want.TaskFrac) {
		t.Errorf("%s: task fractions differ: %v vs %v", name, got.TaskFrac, want.TaskFrac)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: planner statistics differ", name)
	}
	if got.LPTime != want.LPTime {
		t.Errorf("%s: LP time %v vs %v", name, got.LPTime, want.LPTime)
	}
}

// TestPlanWarmMemoMatchesCold is the memo's differential: for every scheme
// and workload kind, a plan made on a clone whose contents already carry
// the derived state of an earlier plan on a sibling clone equals the plan
// made on a cluster rebuilt record by record, which shares nothing and so
// derives everything itself.
func TestPlanWarmMemoMatchesCold(t *testing.T) {
	for _, kind := range workload.Kinds() {
		c, w := testSetup(t, kind, false)
		opts := Options{Seed: 11}
		// Warm the snapshot's contents: the dominant view's cell columns,
		// which every scheme probes and profiles on and Bohr's mover selects
		// from.
		if _, err := PlanScheme(Bohr, c.Clone(), w, opts); err != nil {
			t.Fatal(err)
		}
		for _, id := range AllSchemes() {
			name := kind.String() + "/" + id.String()
			warm, err := PlanScheme(id, c.Clone(), w, opts)
			if err != nil {
				t.Fatalf("%s warm: %v", name, err)
			}
			if warm.DerivedHits == 0 || warm.DerivedMisses != 0 {
				t.Errorf("%s: the warm plan hit the memo %d times and missed it %d times, want only hits",
					name, warm.DerivedHits, warm.DerivedMisses)
			}
			cold, err := PlanScheme(id, coldCopy(t, c), w, opts)
			if err != nil {
				t.Fatalf("%s cold: %v", name, err)
			}
			samePlan(t, name, warm, cold)
			if cold.DerivedMisses == 0 {
				t.Errorf("%s: the cold plan never missed the memo — it shared contents", name)
			}
			if warm.DerivedHits+warm.DerivedMisses != cold.DerivedHits+cold.DerivedMisses {
				t.Errorf("%s: %d lookups warm, %d cold", name,
					warm.DerivedHits+warm.DerivedMisses, cold.DerivedHits+cold.DerivedMisses)
			}
		}
	}
}

// TestPlanConcurrentClonesOfOneSnapshot plans two clones of one snapshot
// from two goroutines, the way the experiments run a figure's schemes: the
// clones share contents, so both goroutines look up, build and adopt the
// same memo entries while their profiles' dry runs copy the shared cell
// indexes and their moves copy-on-write them. Run under -race (make race);
// the plans must also equal the ones made alone.
func TestPlanConcurrentClonesOfOneSnapshot(t *testing.T) {
	c, w := testSetup(t, workload.TPCDS, false)
	opts := Options{Seed: 5}
	ids := []SchemeID{Bohr, BohrSim}
	plans := make([]*Plan, len(ids))
	var wg sync.WaitGroup
	for k, id := range ids {
		clone := c.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := PlanScheme(id, clone, w, opts)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := p.Execute(clone, 1); err != nil {
				t.Error(err)
			}
			plans[k] = p
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k, id := range ids {
		alone, err := PlanScheme(id, coldCopy(t, c), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		samePlan(t, id.String(), plans[k], alone)
	}
}

// TestPlanSchemeRejectsAmbiguousQueryNames: a workload in which a name
// does not identify a query must not reach the planner.
func TestPlanSchemeRejectsAmbiguousQueryNames(t *testing.T) {
	c, w := testSetup(t, workload.TPCDS, false)
	ds := w.Datasets[0]
	ds.Queries[1].Query.Name = ds.Queries[0].Query.Name
	if _, err := PlanScheme(Iridium, c, w, Options{}); err == nil {
		t.Fatal("planned a workload with two queries of one name")
	}
}

// TestPlanMemoRebuildsOnlyChangedDatasets is the snapshot memo's
// invalidation and isolation. After Iridium planned on a clone, Iridium-C
// on a sibling reuses its dry runs. An Add to two sites of one dataset on a
// clone makes the clone's next plan rebuild that dataset's inputs, missing
// exactly the changed sites' columns, and reuse every other dataset's; the
// plan equals one on a cold copy. A sibling clone still plans on its own
// snapshot's contents, and a cold copy shares nothing.
func TestPlanMemoRebuildsOnlyChangedDatasets(t *testing.T) {
	c, w := testSetup(t, workload.TPCDS, false)
	opts := Options{Seed: 3}
	first, before, err := planScheme(Iridium, c.Clone(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ic, err := planScheme(IridiumC, c.Clone(), w, opts); err != nil || ic.hits == 0 {
		t.Fatalf("Iridium-C after Iridium: %d dry-run lookups served by the memo, err %v", ic.hits, err)
	}

	touched := c.Clone()
	a := w.Datasets[0].Name
	for _, site := range []int{1, 3} {
		touched.Data[site].Add(a, touched.Data[site].Records(a)[0])
	}
	plan, after, err := planScheme(Iridium, touched, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.DerivedMisses != 2 {
		t.Errorf("after writes to 2 sites the plan missed %d columns", plan.DerivedMisses)
	}
	for k, ds := range w.Datasets {
		if reused := after.profiles[k].in == before.profiles[k].in; reused != (ds.Name != a) {
			t.Errorf("%s: inputs reused = %v after a write to %s", ds.Name, reused, a)
		}
	}
	cold, err := PlanScheme(Iridium, coldCopy(t, touched), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, "touched", plan, cold)

	sibling, sib, err := planScheme(Iridium, c.Clone(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, "sibling", sibling, first)
	if sibling.DerivedMisses != 0 {
		t.Errorf("the sibling missed %d columns of its own snapshot", sibling.DerivedMisses)
	}
	if sib.profiles[0].in == after.profiles[0].in {
		t.Errorf("the sibling planned %s on the touched clone's inputs", a)
	}

	fresh, isolated, err := planScheme(Iridium, coldCopy(t, c), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, "cold copy", fresh, first)
	if want := c.N() * len(w.Datasets); fresh.DerivedMisses != want {
		t.Errorf("the cold copy missed %d columns, want all %d", fresh.DerivedMisses, want)
	}
	for k, pr := range isolated.profiles {
		if pr.in == before.profiles[k].in || pr.in == after.profiles[k].in || pr.in == sib.profiles[k].in {
			t.Errorf("the cold copy shares %s's inputs", w.Datasets[k].Name)
		}
	}
}

// TestDryRunMemoKeysTheRngPosition: a memoized dry run is served only at
// the rng position it was made at. Two lists, profiled on sibling clones,
// move the second dataset alike with a RandomMover after first-dataset moves
// that draw different amounts; each list's volumes equal a replay.
func TestDryRunMemoKeysTheRngPosition(t *testing.T) {
	c, w := testSetup(t, workload.TPCDS, false)
	plan := &Plan{movers: map[string]engine.Mover{}}
	for _, ds := range w.Datasets {
		plan.movers[ds.Name] = engine.RandomMover{}
	}
	a, b, mb := w.Datasets[0].Name, w.Datasets[1].Name, c.MB(40)
	same := engine.MoveSpec{Dataset: b, Src: 0, Dst: 2, MB: mb}
	lists := [][]engine.MoveSpec{
		{{Dataset: a, Src: 0, Dst: 1, MB: mb}, same},
		{{Dataset: a, Src: 0, Dst: 1, MB: mb}, {Dataset: a, Src: 2, Dst: 3, MB: mb}, same},
	}
	for k, moves := range lists {
		f, err := newProfiler(t, c.Clone(), w, plan, 5).volumes(moves)
		if err != nil {
			t.Fatal(err)
		}
		if want := refVolumes(t, c, w, plan, 5, moves); !reflect.DeepEqual(f, want) {
			t.Errorf("list %d profiled\n%v\nreplayed\n%v", k, f, want)
		}
	}
}
