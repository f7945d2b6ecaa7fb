package engine_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/rdd"
	"bohr/internal/sql"
	"bohr/internal/workload"
)

// refStage is the map→combine stage as the engine ran it before the
// streaming rewrite, kept as the oracle MapCombine is compared against:
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
		parts, perr := engine.PartitionRecords(records[lo:hi], ex.PerMachine*st.PartitionsPerExecutor)
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
	if q.Map == nil {
		return in
	}
	var out []engine.KV
	for _, r := range in {
		q.Map(r, func(k string, v float64) { out = append(out, engine.KV{Key: k, Val: v}) })
	}
	return out
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
	foreign := append([]engine.KV{{Key: "lonely", Val: 2}, {Key: "a\x1fb", Val: 3}, {Key: "", Val: 4}}, amplabRecs[:50]...)
	cases = append(cases, stageCase{name: "foreign keys", records: foreign, query: amplab.DominantQuery().Query, rounds: 1})
	return cases
}

// TestMapCombineMatchesReference is the differential oracle of the
// streaming stage: against the materialize-then-sort reference it must
// produce, per executor, the same groups with bit-equal values, and the
// same raw count, map time and assignment overhead — with cube-input cost
// accounting on and off, under both assigners, round after round.
func TestMapCombineMatchesReference(t *testing.T) {
	assigners := map[string]func() engine.Assigner{
		"round-robin": func() engine.Assigner { return engine.RoundRobinAssigner{} },
		"rdd":         func() engine.Assigner { return rdd.NewAssigner(11) },
	}
	for _, tc := range stageCases(t) {
		for aname, mk := range assigners {
			for _, cube := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/cube=%v", tc.name, aname, cube)
				st := engine.Stage{
					Exec:     engine.Executors{Machines: 2, PerMachine: 3},
					Assigner: mk(), PartitionsPerExecutor: 4, CubeInput: cube,
				}
				input := tc.records
				for round := 0; round < tc.rounds; round++ {
					want, wantRaw, wantMap, wantAssign, err := refStage(input, &tc.query, st)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					got, err := engine.MapCombine(input, &tc.query, st)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got.Raw != wantRaw || got.MapTime != wantMap || got.AssignOverhead != wantAssign {
						t.Fatalf("%s round %d: raw/mapTime/assign = %d/%v/%v, reference %d/%v/%v",
							name, round, got.Raw, got.MapTime, got.AssignOverhead, wantRaw, wantMap, wantAssign)
					}
					if got.Count != len(got.Inter) {
						t.Fatalf("%s round %d: Count %d but %d records", name, round, got.Count, len(got.Inter))
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
					counted := st
					counted.CountOnly = true
					only, err := engine.MapCombine(input, &tc.query, counted)
					if err != nil {
						t.Fatal(err)
					}
					if only.Inter != nil || only.Count != got.Count || only.Raw != got.Raw ||
						only.MapTime != got.MapTime || only.AssignOverhead != got.AssignOverhead {
						t.Fatalf("%s round %d: count-only stage = %+v, full stage counted %d", name, round, only, got.Count)
					}
					// The next round maps what this round's reducer put out.
					input = engine.CombinePartials(got.Inter, tc.query.Combine)
				}
			}
		}
	}
}

// TestMapCombineAllocsScaleWithGroups pins the point of the streaming
// stage: scanning a 10,000-record site allocates for the groups it opens
// (the combiner's table and output growing), never per record.
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
		Assigner: engine.RoundRobinAssigner{}, PartitionsPerExecutor: 4,
	}
	for _, text := range []string{
		"SELECT country, hour, SUM(measure) FROM %s WHERE country != 'US' AND url != 'n3' GROUP BY country, hour",
		"SELECT url, SUM(measure) FROM %s WHERE hour != 'n7' GROUP BY url",
	} {
		plan, err := sql.CompileString(fmt.Sprintf(text, ds.Name), ds.Schema)
		if err != nil {
			t.Fatal(err)
		}
		var res engine.StageResult
		allocs := testing.AllocsPerRun(5, func() {
			if res, err = engine.MapCombine(recs, &plan.Query, st); err != nil {
				t.Fatal(err)
			}
		})
		if res.Raw < len(recs)/2 {
			t.Fatalf("%s: only %d of %d records passed the filter; the guard needs a scan that emits", text, res.Raw, len(recs))
		}
		// A growing slice and map allocate O(log groups) times per
		// executor; one allocation per group is already a generous bound.
		if limit := float64(res.Count + 64); allocs > limit {
			t.Fatalf("%s: %.0f allocations for %d records in %d groups, want at most %.0f", text, allocs, len(recs), res.Count, limit)
		}
		t.Logf("%d records, %d groups, %.0f allocations", len(recs), res.Count, allocs)
	}
}
