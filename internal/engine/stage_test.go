package engine_test

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/rdd"
	"bohr/internal/sql"
	"bohr/internal/workload"
)

// partitionsPerExecutor is the engine's fixed partition granularity.
const partitionsPerExecutor = 4

// refStage is the map→combine stage as the engine ran it before the
// streaming rewrite, kept as the oracle a layout's scan is compared against:
// copy every executor's records into one slice, materialize the mapped
// records, fold them in a map and sort the result by key. It returns the
// combined records per executor, in (machine, executor) order.
func refStage(records []engine.KV, q *engine.Query, st engine.Stage) (perExec [][]engine.KV, raw int, mapTime, assignOverhead float64, err error) {
	ex := st.Exec
	if len(records) == 0 {
		return nil, 0, 0, 0, nil
	}
	perMachine := (len(records) + ex.Machines - 1) / ex.Machines
	for m := 0; m < ex.Machines; m++ {
		lo := m * perMachine
		if lo >= len(records) {
			break
		}
		hi := lo + perMachine
		if hi > len(records) {
			hi = len(records)
		}
		parts, perr := engine.PartitionRecords(records[lo:hi], ex.PerMachine*partitionsPerExecutor)
		if perr != nil {
			return nil, 0, 0, 0, perr
		}
		assignment, overhead, aerr := st.Assigner.Assign(parts, ex.PerMachine)
		if aerr != nil {
			return nil, 0, 0, 0, aerr
		}
		if overhead > assignOverhead {
			assignOverhead = overhead
		}
		inputs := make([][]engine.KV, ex.PerMachine)
		for pi, e := range assignment {
			inputs[e] = append(inputs[e], parts[pi].Records...)
		}
		for _, recs := range inputs {
			if len(recs) == 0 {
				continue
			}
			costBasis := len(recs)
			if st.CubeInput {
				costBasis = engine.DistinctKeys(recs)
			}
			if t := float64(costBasis) * q.MapCost; t > mapTime {
				mapTime = t
			}
			mapped := refApplyMap(q, recs)
			raw += len(mapped)
			perExec = append(perExec, refCombine(mapped, q.Combine))
		}
	}
	return perExec, raw, mapTime, assignOverhead, nil
}

func refApplyMap(q *engine.Query, in []engine.KV) []engine.KV {
	m := q.Map
	if q.Select != nil {
		m = func(r engine.KV, emit func(string, float64)) { refSelect(q.Select, r, emit) }
	}
	if m == nil {
		return in
	}
	var out []engine.KV
	for _, r := range in {
		m(r, func(k string, v float64) { out = append(out, engine.KV{Key: k, Val: v}) })
	}
	return out
}

// refSelect is what a Select means, one record at a time on split strings.
func refSelect(sel *engine.Select, r engine.KV, emit func(string, float64)) {
	fields := strings.Split(r.Key, engine.KeySep)
	shaped, keep := len(fields) == sel.View.Width(), sel.View.Keep()
	if len(sel.Where) > 0 && !shaped {
		return
	}
	for _, c := range sel.Where {
		if !c.Pass(fields[c.Field]) {
			return
		}
	}
	key := engine.GroupAll
	if len(keep) > 0 {
		key = r.Key
		if shaped {
			kept := make([]string, len(keep))
			for k, f := range keep {
				kept[k] = fields[f]
			}
			key = strings.Join(kept, engine.KeySep)
		}
	}
	emit(key, r.Val)
}

func refCombine(records []engine.KV, op engine.CombineOp) []engine.KV {
	initial := func(v float64) float64 {
		if op == engine.OpCount {
			return 1
		}
		return v
	}
	acc := make(map[string]float64, len(records))
	for _, r := range records {
		v, ok := acc[r.Key]
		switch {
		case !ok:
			acc[r.Key] = initial(r.Val)
		case op == engine.OpSum || op == engine.OpCount:
			acc[r.Key] = v + initial(r.Val)
		case op == engine.OpMax:
			acc[r.Key] = math.Max(v, r.Val)
		case op == engine.OpMin:
			acc[r.Key] = math.Min(v, r.Val)
		}
	}
	out := make([]engine.KV, 0, len(acc))
	for k, v := range acc {
		out = append(out, engine.KV{Key: k, Val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// siteRecords renders one site's rows the way Workload.Populate stores them.
func siteRecords(ds *workload.Dataset, site int) []engine.KV {
	recs := make([]engine.KV, len(ds.Rows[site]))
	for i, row := range ds.Rows[site] {
		recs[i] = engine.KV{Key: workload.JoinKey(row.Coords), Val: row.Measure}
	}
	return recs
}

// stageCase is one (records, query) pair the oracle runs on.
type stageCase struct {
	name    string
	records []engine.KV
	query   engine.Query
	rounds  int
}

// stageCases builds every workload kind's dominant query over a generated
// site, the three statement shapes bench/querymiss.go sends, and a
// three-iteration UDF.
func stageCases(t *testing.T) []stageCase {
	t.Helper()
	var cases []stageCase
	var amplab *workload.Dataset
	var amplabRecs []engine.KV
	for _, kind := range workload.Kinds() {
		cfg := workload.DefaultConfig(kind)
		cfg.Sites, cfg.Datasets, cfg.RowsPerSite, cfg.KeysPerPool = 2, 1, 1500, 300
		w, err := workload.Generate(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds := w.Datasets[0]
		recs := siteRecords(ds, 0)
		cases = append(cases, stageCase{name: kind.String(), records: recs, query: ds.DominantQuery().Query, rounds: 1})
		if kind == workload.BigDataUDF {
			udf := ds.DominantQuery().Query
			udf.Iterations = 3
			cases = append(cases, stageCase{name: "udf x3", records: recs, query: udf, rounds: 3})
		}
		if kind == workload.BigDataScan {
			amplab, amplabRecs = ds, recs
		}
	}
	for _, text := range []string{
		"SELECT url, SUM(measure) FROM %s WHERE country != 'JP' AND hour != 'n7' GROUP BY url ORDER BY value DESC LIMIT 9",
		"SELECT country, hour, SUM(measure) FROM %s WHERE country != 'US' AND url != 'n3' GROUP BY country, hour",
		"SELECT country, COUNT(*) FROM %s WHERE hour != '07' AND url != 'n5' GROUP BY country",
		// beyond the bench: a non-contiguous projection, numeric and
		// ordering predicates, and the ungrouped aggregates
		"SELECT hour, url, MAX(measure) FROM %s WHERE hour >= 12 GROUP BY hour, url",
		"SELECT url, hour, MIN(measure) FROM %s WHERE country < 'J' GROUP BY url, hour",
		"SELECT COUNT(*) FROM %s",
		"SELECT SUM(measure) FROM %s WHERE country = 'DE'",
	} {
		plan, err := sql.CompileString(fmt.Sprintf(text, amplab.Name), amplab.Schema)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, stageCase{name: text, records: amplabRecs, query: plan.Query, rounds: 1})
	}
	// Keys of a foreign shape pass through a projection untouched.
	foreign := append([]engine.KV{{Key: "lonely", Val: 2}, {Key: "a" + engine.KeySep + "b", Val: 3}, {Key: "", Val: 4}}, amplabRecs[:50]...)
	cases = append(cases, stageCase{name: "foreign keys", records: foreign, query: amplab.DominantQuery().Query, rounds: 1})
	return cases
}

// sameStage compares two stage results field by field, values bit for bit.
func sameStage(a, b engine.StageResult) bool {
	if a.Raw != b.Raw || a.MapTime != b.MapTime ||
		a.AssignOverhead != b.AssignOverhead || len(a.Inter) != len(b.Inter) {
		return false
	}
	for i := range a.Inter {
		if a.Inter[i].Key != b.Inter[i].Key || math.Float64bits(a.Inter[i].Val) != math.Float64bits(b.Inter[i].Val) {
			return false
		}
	}
	return true
}

// TestMapCombineMatchesReference is the differential oracle of the
// streaming stage: against the materialize-then-sort reference a layout's
// scan must produce, per executor, the same groups with bit-equal values,
// and the same raw count, map time and assignment overhead — with
// cube-input cost accounting on and off, under both assigners, round after
// round. Round 0 runs the way the engine runs it, on the layout a store
// keeps: the first lookup builds it, the second is served the same value,
// and a layout built from the bare records scans to the same result.
func TestMapCombineMatchesReference(t *testing.T) {
	assigners := map[string]func() engine.Assigner{
		"round-robin": func() engine.Assigner { return engine.RoundRobinAssigner{} },
		"rdd":         func() engine.Assigner { return rdd.NewAssigner(11) },
	}
	for _, tc := range stageCases(t) {
		store := &engine.Store{}
		store.Add(tc.records...)
		for aname, mk := range assigners {
			for _, cube := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/cube=%v", tc.name, aname, cube)
				st := engine.Stage{
					Exec:     engine.Executors{Machines: 2, PerMachine: 3},
					Assigner: mk(), CubeInput: cube,
				}
				input := tc.records
				for round := 0; round < tc.rounds; round++ {
					want, wantRaw, wantMap, wantAssign, err := refStage(input, &tc.query, st)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					layout, err := engine.NewLayout(input, st)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := layout.Scan(&tc.query)
					if round == 0 {
						// A second assigner of the same configuration is the
						// same key: a new plan over an unwritten site hits.
						for lookup, stage := range []engine.Stage{st, {Exec: st.Exec, Assigner: mk(), CubeInput: cube}} {
							kept, hit, err := store.Layout(stage)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if hit != (lookup == 1) {
								t.Fatalf("%s: lookup %d of the store's layout: hit = %v", name, lookup, hit)
							}
							if !sameStage(kept.Scan(&tc.query), got) {
								t.Fatalf("%s: lookup %d: the store's layout scans differently from one built from its records", name, lookup)
							}
						}
					}
					if got.Raw != wantRaw || got.MapTime != wantMap || got.AssignOverhead != wantAssign {
						t.Fatalf("%s round %d: raw/mapTime/assign = %d/%v/%v, reference %d/%v/%v",
							name, round, got.Raw, got.MapTime, got.AssignOverhead, wantRaw, wantMap, wantAssign)
					}
					rest := got.Inter
					for e, exec := range want {
						if len(rest) < len(exec) {
							t.Fatalf("%s round %d: executor %d: %d records left, reference has %d", name, round, e, len(rest), len(exec))
						}
						mine := append([]engine.KV(nil), rest[:len(exec)]...)
						rest = rest[len(exec):]
						sort.Slice(mine, func(i, j int) bool { return mine[i].Key < mine[j].Key })
						for i := range exec {
							if mine[i].Key != exec[i].Key || math.Float64bits(mine[i].Val) != math.Float64bits(exec[i].Val) {
								t.Fatalf("%s round %d: executor %d record %d = %+v, reference %+v", name, round, e, i, mine[i], exec[i])
							}
						}
					}
					if len(rest) != 0 {
						t.Fatalf("%s round %d: %d records beyond the reference's", name, round, len(rest))
					}
					// The next round maps what this round's reducer put out.
					input = engine.CombinePartials(got.Inter, tc.query.Combine)
				}
			}
		}
	}
}

// TestLayoutRejectsBadStage: a stage is caller-built (Stage is
// exported), so a layout refuses one without executors instead of dividing by
// it, and an assigner that misplaces a partition; a store keeps neither.
func TestLayoutRejectsBadStage(t *testing.T) {
	recs := []engine.KV{{Key: "a", Val: 1}, {Key: "b", Val: 2}, {Key: "c", Val: 3}}
	store := &engine.Store{}
	store.Add(recs...)
	for _, ex := range []engine.Executors{{}, {Machines: 0, PerMachine: 2}, {Machines: 2, PerMachine: 0}, {Machines: -1, PerMachine: 1}} {
		for _, input := range [][]engine.KV{recs, nil} {
			if _, err := engine.NewLayout(input, engine.Stage{Exec: ex}); err == nil {
				t.Errorf("executors %+v over %d records: layout built", ex, len(input))
			}
		}
		for i := 0; i < 2; i++ {
			if _, hit, err := store.Layout(engine.Stage{Exec: ex}); err == nil || hit {
				t.Errorf("executors %+v: store lookup %d: hit = %v, err = %v", ex, i, hit, err)
			}
		}
	}
	if _, err := engine.NewLayout(recs, engine.Stage{Exec: engine.Executors{Machines: 1, PerMachine: 2}, Assigner: strayAssigner{}}); err == nil {
		t.Error("a partition placed on executor 2 of 2 was accepted")
	}
}

// TestLayoutKeyedByAssignerConfig: one store serves differently configured
// assigners without cross-talk — another seed is another layout, the same
// configuration minted again (a replan's new plan) is the same one.
func TestLayoutKeyedByAssignerConfig(t *testing.T) {
	tc := stageCases(t)[0]
	store := &engine.Store{}
	store.Add(tc.records...)
	stage := func(seed int64) engine.Stage {
		return engine.Stage{Exec: engine.Executors{Machines: 2, PerMachine: 3}, Assigner: rdd.NewAssigner(seed), CubeInput: true}
	}
	for _, step := range []struct {
		seed    int64
		wantHit bool
	}{{5, false}, {6, false}, {5, true}, {6, true}} {
		kept, hit, err := store.Layout(stage(step.seed))
		if err != nil {
			t.Fatal(err)
		}
		if hit != step.wantHit {
			t.Fatalf("seed %d: hit = %v, want %v", step.seed, hit, step.wantHit)
		}
		cold, err := engine.NewLayout(tc.records, stage(step.seed))
		if err != nil {
			t.Fatal(err)
		}
		if !sameStage(kept.Scan(&tc.query), cold.Scan(&tc.query)) {
			t.Fatalf("seed %d: the store served a layout of another configuration", step.seed)
		}
	}
	five, _, _ := store.Layout(stage(5))
	six, _, _ := store.Layout(stage(6))
	if sameStage(five.Scan(&tc.query), six.Scan(&tc.query)) {
		t.Fatal("seeds 5 and 6 place alike on this input: the test cannot tell their layouts apart")
	}
}

// strayAssigner places every partition one past the last executor.
type strayAssigner struct{}

func (strayAssigner) Assign(parts []engine.Partition, executors int) ([]int, float64, error) {
	out := make([]int, len(parts))
	for i := range out {
		out[i] = executors
	}
	return out, 0, nil
}

// sliceAssigner is round-robin behind a value that cannot be a map key;
// ptrAssigner behind a pointer, whose identity says nothing about what it
// points at.
type sliceAssigner struct{ pad []int }

func (sliceAssigner) Assign(parts []engine.Partition, executors int) ([]int, float64, error) {
	return engine.RoundRobinAssigner{}.Assign(parts, executors)
}

type ptrAssigner struct{ offset int }

func (a *ptrAssigner) Assign(parts []engine.Partition, executors int) ([]int, float64, error) {
	out := make([]int, len(parts))
	for i := range out {
		out[i] = (i + a.offset) % executors
	}
	return out, 0, nil
}

// TestLayoutUnkeyableAssignerNotMemoized: an assigner whose value cannot
// key the memo is served a fresh layout every time — never a panic from
// hashing it, never a stale layout of a pointee that has changed since.
func TestLayoutUnkeyableAssignerNotMemoized(t *testing.T) {
	store := &engine.Store{}
	for i := 0; i < 40; i++ {
		store.Add(engine.KV{Key: fmt.Sprintf("k%d", i%8), Val: 1})
	}
	ex := engine.Executors{Machines: 1, PerMachine: 2}
	q := engine.ScanQuery("q", "d")
	for i := 0; i < 2; i++ {
		if _, hit, err := store.Layout(engine.Stage{Exec: ex, Assigner: sliceAssigner{pad: []int{1}}}); err != nil || hit {
			t.Fatalf("slice-valued assigner, lookup %d: hit = %v, err = %v", i, hit, err)
		}
	}
	pa := &ptrAssigner{}
	for _, offset := range []int{0, 1, 0} {
		pa.offset = offset
		l, hit, err := store.Layout(engine.Stage{Exec: ex, Assigner: pa})
		if err != nil || hit {
			t.Fatalf("pointer assigner at offset %d: hit = %v, err = %v", offset, hit, err)
		}
		want, err := engine.NewLayout(store.Records(), engine.Stage{Exec: ex, Assigner: pa})
		if err != nil {
			t.Fatal(err)
		}
		if !sameStage(l.Scan(&q), want.Scan(&q)) {
			t.Fatalf("pointer assigner at offset %d: the store served another configuration's layout", offset)
		}
	}
}

// TestMapCombineAllocsScaleWithGroups pins the point of the streaming
// stage: scanning a 10,000-record site — under a Select or the workload's
// own MapFn — allocates for the groups it opens (the combiner's table and
// output growing), never per record.
func TestMapCombineAllocsScaleWithGroups(t *testing.T) {
	cfg := workload.DefaultConfig(workload.BigDataAggr)
	cfg.Sites, cfg.Datasets, cfg.RowsPerSite = 1, 1, 10000
	w, err := workload.Generate(workload.BigDataAggr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := w.Datasets[0]
	recs := siteRecords(ds, 0)
	st := engine.Stage{
		Exec:     engine.Executors{Machines: 2, PerMachine: 4},
		Assigner: engine.RoundRobinAssigner{},
	}
	queries := map[string]engine.Query{"dominant MapFn": ds.DominantQuery().Query}
	for _, text := range []string{
		"SELECT country, hour, SUM(measure) FROM %s WHERE country != 'US' AND url != 'n3' GROUP BY country, hour",
		"SELECT url, SUM(measure) FROM %s WHERE hour != 'n7' GROUP BY url",
	} {
		plan, err := sql.CompileString(fmt.Sprintf(text, ds.Name), ds.Schema)
		if err != nil {
			t.Fatal(err)
		}
		queries[text] = plan.Query
	}
	for text, q := range queries {
		layout, err := engine.NewLayout(recs, st)
		if err != nil {
			t.Fatal(err)
		}
		var res engine.StageResult
		allocs := testing.AllocsPerRun(5, func() { res = layout.Scan(&q) })
		if res.Raw < len(recs)/2 {
			t.Fatalf("%s: only %d of %d records passed the filter; the guard needs a scan that emits", text, res.Raw, len(recs))
		}
		// A growing slice and map allocate O(log groups) times per
		// executor; one allocation per group is already a generous bound.
		if limit := float64(len(res.Inter) + 64); allocs > limit {
			t.Fatalf("%s: %.0f allocations for %d records in %d groups, want at most %.0f", text, allocs, len(recs), len(res.Inter), limit)
		}
		t.Logf("%d records, %d groups, %.0f allocations", len(recs), len(res.Inter), allocs)
	}
}

// TestSelectGroupsByNameWhenTuplesDoNotPack: nine kept fields of 256 values
// each have 2^72 tuples, more than 64 bits count (packed regardless, the
// product wraps to zero), so the scan groups by the materialized key instead
// of by packed codes — to the same result as the reference, executor by
// executor.
func TestSelectGroupsByNameWhenTuplesDoNotPack(t *testing.T) {
	const width = 9
	recs := make([]engine.KV, 600)
	for i := range recs {
		fields := make([]string, width)
		for f := range fields {
			fields[f] = fmt.Sprintf("v%d", (i+7*f)%256)
		}
		recs[i] = engine.KV{Key: strings.Join(fields, engine.KeySep), Val: float64(i) / 7}
	}
	q := engine.Query{Name: "wide", Dataset: "d", Combine: engine.OpSum, MapCost: engine.DefaultMapCost,
		Select: &engine.Select{View: engine.NewView(width, 8, 7, 6, 5, 4, 3, 2, 1, 0),
			Where: []engine.Cond{{Field: 0, Pass: func(s string) bool { return s != "v3" }}}}}
	st := engine.Stage{Exec: engine.Executors{Machines: 1, PerMachine: 2}, Assigner: engine.RoundRobinAssigner{}}
	want, wantRaw, _, _, err := refStage(recs, &q, st)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := engine.NewLayout(recs, st)
	if err != nil {
		t.Fatal(err)
	}
	got := layout.Scan(&q)
	if got.Raw != wantRaw {
		t.Fatalf("raw %d, reference %d", got.Raw, wantRaw)
	}
	rest := got.Inter
	for e, exec := range want {
		mine := append([]engine.KV(nil), rest[:min(len(exec), len(rest))]...)
		rest = rest[len(mine):]
		sort.Slice(mine, func(i, j int) bool { return mine[i].Key < mine[j].Key })
		if !reflect.DeepEqual(mine, exec) {
			t.Fatalf("executor %d: %d groups differ from the reference's %d", e, len(mine), len(exec))
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d groups beyond the reference's", len(rest))
	}
}
