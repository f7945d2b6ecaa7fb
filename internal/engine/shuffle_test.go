package engine_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/faults"
	"bohr/internal/parallel"
	"bohr/internal/sql"
	"bohr/internal/stats"
	"bohr/internal/wan"
	"bohr/internal/workload"
)

// refRun is RunConcurrent as the engine ran it before a round's partials
// folded into one key table, kept as the oracle the table is compared
// against: every intermediate record is routed by its own KeyOwner call and
// copied into its owner's arrivals, each reducer combines and sorts what
// arrived, and the query's output re-combines the reducers' concatenated
// outputs.
func refRun(t *testing.T, c *engine.Cluster, cfgs []engine.JobConfig) []*engine.RunResult {
	t.Helper()
	n := c.N()
	type job struct {
		cfg    engine.JobConfig
		q      engine.Query
		frac   []float64
		rounds int
		input  [][]engine.KV
		res    *engine.RunResult
	}
	jobs := make([]*job, len(cfgs))
	maxRounds := 0
	var fs *faults.Schedule
	var clock float64
	for ji, cfg := range cfgs {
		q := cfg.Query
		frac := cfg.TaskFrac
		if frac == nil {
			frac = engine.UplinkProportional(c.Top)
		}
		jobs[ji] = &job{cfg: cfg, q: q, frac: frac, rounds: max(q.Iterations, 1),
			res: &engine.RunResult{IntermediateMBPerSite: make([]float64, n)}}
		maxRounds = max(maxRounds, jobs[ji].rounds)
		if fs == nil && cfg.Faults != nil {
			fs, clock = cfg.Faults, cfg.FaultClock
		}
	}
	for round := 0; round < maxRounds; round++ {
		type state struct {
			rm       engine.RoundMetrics
			arriving [][]engine.KV
		}
		states := make([]*state, len(jobs))
		var flows []wan.Transfer
		for ji, j := range jobs {
			if round >= j.rounds {
				continue
			}
			st := &state{rm: engine.RoundMetrics{IntermediateMB: make([]float64, n)}, arriving: make([][]engine.KV, n)}
			states[ji] = st
			for i := 0; i < n; i++ {
				stage := engine.Stage{Exec: c.Exec[i], Assigner: j.cfg.Assigner, CubeInput: j.cfg.CubeInput}
				var l *engine.Layout
				var err error
				switch {
				case round == 0 && len(c.Data[i].Records(j.q.Dataset)) > 0:
					l, _, err = c.Data[i].Store(j.q.Dataset).Layout(stage)
				case round > 0 && len(j.input[i]) > 0:
					l, err = engine.NewLayout(j.input[i], stage)
				default:
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				sr := l.Scan(&j.q)
				st.rm.MapTime = max(st.rm.MapTime, sr.MapTime*fs.ComputeFactor(i, clock))
				st.rm.AssignOverhead = max(st.rm.AssignOverhead, sr.AssignOverhead)
				st.rm.IntermediateMB[i] = c.MB(len(sr.Inter))
				j.res.IntermediateMBPerSite[i] += st.rm.IntermediateMB[i]
				crossMB := make([]float64, n)
				for _, rec := range sr.Inter {
					owner := engine.KeyOwner(rec.Key, j.frac)
					st.arriving[owner] = append(st.arriving[owner], rec)
					if owner != i {
						crossMB[owner] += c.BytesPerRecord / 1e6
					}
				}
				for dst, mb := range crossMB {
					if mb > 0 {
						flows = append(flows, wan.Transfer{Src: wan.SiteID(i), Dst: wan.SiteID(dst), MB: mb})
						st.rm.ShuffleMB += mb
					}
				}
			}
		}
		mapEnd := clock
		for _, st := range states {
			if st != nil {
				mapEnd = max(mapEnd, clock+st.rm.MapTime+st.rm.AssignOverhead)
			}
		}
		shuffle := c.Top.Estimate(flows, fs, mapEnd)
		reduceStart := mapEnd + shuffle
		var maxReduce float64
		for ji, j := range jobs {
			st := states[ji]
			if st == nil {
				continue
			}
			st.rm.ShuffleTime = shuffle
			j.res.TotalShuffleMB += st.rm.ShuffleMB
			j.input = make([][]engine.KV, n)
			for r := range j.input {
				j.input[r] = refReduce(st.arriving[r], j.q.Combine)
				rt := float64(len(st.arriving[r])) * j.q.ReduceCost / float64(c.Exec[r].Total())
				st.rm.ReduceTime = max(st.rm.ReduceTime, rt*fs.ComputeFactor(r, reduceStart))
			}
			maxReduce = max(maxReduce, st.rm.ReduceTime)
			j.res.Rounds = append(j.res.Rounds, st.rm)
			j.res.QCT += st.rm.MapTime + st.rm.AssignOverhead + st.rm.ShuffleTime + st.rm.ReduceTime
		}
		clock = reduceStart + maxReduce
	}
	out := make([]*engine.RunResult, len(jobs))
	for ji, j := range jobs {
		j.res.QCT += j.cfg.ExtraQCT
		var all []engine.KV
		for _, recs := range j.input {
			all = append(all, recs...)
		}
		j.res.SetOutput(refReduce(all, j.q.Combine))
		out[ji] = j.res
	}
	return out
}

// refReduce is the reducer refRun runs: combine partials by key in arrival
// order, COUNT's partial counts summed, sorted by key.
func refReduce(records []engine.KV, op engine.CombineOp) []engine.KV {
	if op == engine.OpCount {
		op = engine.OpSum
	}
	return refCombine(records, op)
}

// runBits renders every number a RunResult carries bit for bit, one line
// per field, so two results compare exactly and a difference names itself.
func runBits(r *engine.RunResult) []string {
	var out []string
	f := func(name string, v float64) { out = append(out, fmt.Sprintf("%s=%016x", name, math.Float64bits(v))) }
	f("QCT", r.QCT)
	f("TotalShuffleMB", r.TotalShuffleMB)
	for i, v := range r.IntermediateMBPerSite {
		f(fmt.Sprintf("IntermediateMBPerSite[%d]", i), v)
	}
	for k, rm := range r.Rounds {
		f(fmt.Sprintf("Rounds[%d].MapTime", k), rm.MapTime)
		f(fmt.Sprintf("Rounds[%d].AssignOverhead", k), rm.AssignOverhead)
		f(fmt.Sprintf("Rounds[%d].ShuffleTime", k), rm.ShuffleTime)
		f(fmt.Sprintf("Rounds[%d].ReduceTime", k), rm.ReduceTime)
		f(fmt.Sprintf("Rounds[%d].ShuffleMB", k), rm.ShuffleMB)
		for i, v := range rm.IntermediateMB {
			f(fmt.Sprintf("Rounds[%d].IntermediateMB[%d]", k, i), v)
		}
	}
	for _, kv := range r.Output() {
		f(fmt.Sprintf("Output[%q]", kv.Key), kv.Val)
	}
	return out
}

// shuffleCluster is four sites of unequal links, 2×2 executors each (so a
// key leaves one site as up to four partials), holding a generated amplab
// dataset and a "pages" dataset whose values are order-sensitive floats of
// both signs over keys every site shares.
func shuffleCluster(t *testing.T) (*engine.Cluster, *workload.Dataset) {
	t.Helper()
	top, err := wan.NewTopology([]string{"a", "b", "c", "d"}, []float64{5, 40, 15, 25}, []float64{10, 30, 15, 50})
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.NewCluster(top, 2, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(workload.BigDataScan)
	cfg.Sites, cfg.Datasets, cfg.RowsPerSite, cfg.KeysPerPool = 4, 1, 800, 120
	w, err := workload.Generate(workload.BigDataScan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(c); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(29)
	for i := 0; i < c.N(); i++ {
		for r := 0; r < 700+150*i; r++ {
			k := rng.Intn(90)
			c.Data[i].Add("pages", engine.KV{Key: fmt.Sprintf("p%d%s%d", k*k%90/10, engine.KeySep, k*k%90%10), Val: (rng.Float64() - 0.3) * math.Pow(10, float64(rng.Intn(7)-3))})
		}
	}
	return c, w.Datasets[0]
}

// TestRunMatchesReference is the key table's differential: RunConcurrent
// must equal refRun bit for bit — output, every round's metrics, per-site
// volumes, shuffle volume and QCT — for every combine op, a three-round UDF
// beside a one-round scan, SQL Selects and MapFn queries, task fractions
// with zeros, under a fault schedule, at pool width 1 and 4.
func TestRunMatchesReference(t *testing.T) {
	c, amplab := shuffleCluster(t)
	sqlQuery := func(text string) engine.Query {
		plan, err := sql.CompileString(fmt.Sprintf(text, amplab.Name), amplab.Schema)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Query
	}
	op := func(name string, combine engine.CombineOp, view engine.View) engine.Query {
		q := engine.AggregationQuery(name, "pages", view)
		q.Combine = combine
		return q
	}
	prefix, whole := engine.NewView(2, 0), engine.View{}
	batches := [][]engine.Query{
		{
			op("sum", engine.OpSum, whole), op("count", engine.OpCount, whole),
			op("max", engine.OpMax, whole), op("min", engine.OpMin, whole),
		},
		{
			op("sum by prefix", engine.OpSum, prefix), op("count by prefix", engine.OpCount, prefix),
			op("max by prefix", engine.OpMax, prefix), op("min by prefix", engine.OpMin, prefix),
		},
		{engine.UDFQuery("udf x3", "pages", 3), engine.ScanQuery("scan beside udf", amplab.Name)},
		{
			sqlQuery("SELECT url, SUM(measure) FROM %s WHERE country != 'JP' GROUP BY url"),
			sqlQuery("SELECT country, COUNT(*) FROM %s GROUP BY country"),
			sqlQuery("SELECT hour, url, MAX(measure) FROM %s WHERE hour >= 12 GROUP BY hour, url"),
			sqlQuery("SELECT url, MIN(measure) FROM %s GROUP BY url"),
			sqlQuery("SELECT SUM(measure) FROM %s"),
		},
		{amplab.DominantQuery().Query},
	}
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindStraggler, Site: 1, Start: 0, End: 1e4, Factor: 3},
		{Kind: faults.KindLinkDegrade, Site: 0, Start: 5, End: 1e4, Factor: 0.25},
	}}
	defer parallel.SetDefaultWidth(parallel.DefaultWidth())
	for _, width := range []int{1, 4} {
		parallel.SetDefaultWidth(width)
		for _, qs := range batches {
			for _, frac := range [][]float64{nil, {0.45, 0, 0.55, 0}, {0, 0, 0, 1}} {
				for _, fault := range []*faults.Schedule{nil, sched} {
					cfgs := make([]engine.JobConfig, len(qs))
					for k, q := range qs {
						cfgs[k] = engine.JobConfig{Query: q, TaskFrac: frac, Faults: fault, FaultClock: 2, ExtraQCT: 0.5}
					}
					label := fmt.Sprintf("width %d/frac %v/faults %v", width, frac, fault != nil)
					got, err := c.RunConcurrent(context.Background(), cfgs)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want := refRun(t, c, cfgs)
					for k := range want {
						if len(want[k].Output()) == 0 {
							t.Fatalf("%s: %s has no output to compare", label, qs[k].Name)
						}
						g, w := runBits(got[k]), runBits(want[k])
						for i := range max(len(g), len(w)) {
							if i >= len(g) || i >= len(w) || g[i] != w[i] {
								t.Fatalf("%s: %s: %d fields, reference %d; first difference at %d:\n got %v\nwant %v",
									label, qs[k].Name, len(g), len(w), i, g[min(i, len(g)-1)], w[min(i, len(w)-1)])
							}
						}
					}
				}
			}
		}
	}
}

// TestOutputSortsOnceUnderConcurrentReads calls Output on each result of a
// batch from many goroutines at once, the first call being the one that
// sorts: every call must return refRun's sorted output, bit for bit, and
// (under -race) without a data race.
func TestOutputSortsOnceUnderConcurrentReads(t *testing.T) {
	c, amplab := shuffleCluster(t)
	cfgs := []engine.JobConfig{
		{Query: engine.UDFQuery("udf x3", "pages", 3)},
		{Query: amplab.DominantQuery().Query},
		{Query: engine.AggregationQuery("count", "pages", engine.NewView(2, 0))},
	}
	got, err := c.RunConcurrent(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	want := refRun(t, c, cfgs)
	const readers = 8
	for k, res := range got {
		outs := make([][]engine.KV, readers)
		var wg sync.WaitGroup
		for r := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[r] = res.Output()
			}()
		}
		wg.Wait()
		ref := want[k].Output()
		if len(ref) == 0 {
			t.Fatalf("%s: no output to compare", cfgs[k].Query.Name)
		}
		for r, out := range outs {
			if len(out) != len(ref) {
				t.Fatalf("%s: reader %d got %d rows, reference %d", cfgs[k].Query.Name, r, len(out), len(ref))
			}
			for i := range out {
				if out[i].Key != ref[i].Key || math.Float64bits(out[i].Val) != math.Float64bits(ref[i].Val) {
					t.Fatalf("%s: reader %d row %d = %+v, reference %+v", cfgs[k].Query.Name, r, i, out[i], ref[i])
				}
			}
		}
	}
}
