package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"bohr/internal/stats"
)

// refSeconds is the run length the op counts below are calibrated for on
// the reference box (2 shared vCPUs, Xeon 2.1 GHz, go1.24). -seconds
// scales the ops of a round linearly; the work of a run is fixed by its
// counts, never by a deadline, because ingest grows state and equal time
// would not be equal work.
const refSeconds = 20

// rounds is how many times a run repeats its round. A round sets the
// system up from scratch, which is timed, and runs the same sequence of ops
// on it, so a run has six set-up times to take a median of, and state that
// grows under ingest grows to the same size six times over.
//
// Every timing is scaled by the speed of the box around it (see ruler.go
// for why and how). The scaled op timings of all rounds form one pool:
// throughput is ops per second of that pool, p50 and p90 its percentiles,
// so a run of 6 x 20 ops has 120 latency samples and 12 beyond p90.
// Set-up time is the median of the rounds' scaled set-up times.
const rounds = 6

// instance is one set-up system under load.
type instance interface {
	// op runs timed operation i and returns whether every check on its
	// output held.
	op(i int, tr *tracer) bool
	// finish runs the oracles that need a whole round; with recover set it
	// also runs the ones that take seconds (crash recovery).
	finish(recover bool) error
	// layers adds the workload's per-layer numbers for a traced phase of n
	// ops to out.
	layers(n int, tr *tracer, out map[string]float64) error
	close()
}

// workloadSpec is one entry of BENCHMARK.json's workloads.
type workloadSpec struct {
	name string
	// opUnit says what one op is.
	opUnit string
	// warm and ops are the warm-up and timed op counts of one round at
	// refSeconds.
	warm, ops int
	// traceWarm, when set, replaces warm in the traced run.
	traceWarm int
	// setup builds a system from the seed and runs warm warm-up ops.
	setup func(seed int64, warm int) (instance, error)
}

// warmOps is the warm-up op count of one set-up at the given run length.
func (w workloadSpec) warmOps(seconds int, traced bool) int {
	if traced && w.traceWarm > 0 {
		return scaled(w.traceWarm, seconds, 1)
	}
	return scaled(w.warm, seconds, 1)
}

func workloads() []workloadSpec {
	return []workloadSpec{fig6Workload, queryMissWorkload, mixWorkload, ingestWorkload}
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scaled converts a count calibrated at refSeconds to the requested run
// length, never below min.
func scaled(n, seconds, min int) int {
	v := (n*seconds + refSeconds/2) / refSeconds
	if v < min {
		v = min
	}
	return v
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits and layerUnits name every metric BENCHMARK.json lists,
// with its unit; bench_test.go checks the three stay in step.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"throughput":      "op/s",
	"latency_p50_ms":  "ms",
	"latency_p90_ms":  "ms",
	"alloc_kb_per_op": "kB/op",
}

var layerUnits = map[string]string{
	"trace.overhead_frac": "frac",
	"trace.coverage":      "frac",

	"fig6.pass_ms":                "ms",
	"workload.generate_ms":        "ms",
	"workload.records":            "count",
	"engine.vanilla_ms":           "ms",
	"placement.stats_ms":          "ms",
	"placement.plan_ms.iridium":   "ms",
	"placement.plan_ms.iridium-c": "ms",
	"placement.plan_ms.bohr":      "ms",
	"placement.moves":             "count",
	"engine.move_ms":              "ms",
	"engine.run_ms":               "ms",
	"olap.build_cube_ms":          "ms",
	"lp.solve_ms":                 "ms",
	"core.qct_bohr_over_iridium":  "ratio",

	"sql.parse_compile_us":         "us",
	"serve.content_hash_ms":        "ms",
	"engine.query_ms":              "ms",
	"serve.overhead_us":            "us",
	"query.shape_ms.scan":          "ms",
	"query.shape_ms.aggr":          "ms",
	"query.shape_ms.count":         "ms",
	"engine.records_scanned":       "count",
	"serve.rows_returned":          "count",
	"serve.cache_insert_at_cap_us": "us",

	"serve.hit_us":   "us",
	"serve.miss_ms":  "ms",
	"serve.hit_frac": "frac",

	"ingest.decode_us":           "us",
	"ingest.ack_ms":              "ms",
	"ingest.deliver_ms":          "ms",
	"serve.apply_ms":             "ms",
	"durable.wal_append_ms":      "ms",
	"serve.snapshot_ms":          "ms",
	"durable.snapshot_bytes":     "bytes",
	"durable.disk_bytes_per_rec": "bytes",
	"ingest.first_decile_ms":     "ms",
	"ingest.last_decile_ms":      "ms",
	"ingest.records_per_s":       "1/s",
	"durable.recover_ms":         "ms",
	"durable.records_replayed":   "count",
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// phase is what one timed pass over a range of ops measured.
type phase struct {
	failed  int
	wall    time.Duration
	startMS []float64 // per op, when it started (milliseconds into the phase)
	latMS   []float64 // per op, its wall time
	ticks   []tick    // the ruler, read after each op (nil without a ruler)
}

// add accumulates another phase's wall time and failures.
func (p *phase) add(q phase) {
	p.wall += q.wall
	p.failed += q.failed
}

// runPhase executes ops [lo, hi) on inst from the one load goroutine,
// closed loop: the next op starts when the previous one returned (and,
// with a ruler, it was read).
func runPhase(inst instance, lo, hi int, tr *tracer, rul *ruler) phase {
	var ph phase
	start := time.Now()
	for i := lo; i < hi; i++ {
		t0 := time.Now()
		root := tr.startOp(i)
		ok := inst.op(i, tr)
		tr.pop(root)
		lat := time.Since(t0)
		ph.startMS = append(ph.startMS, float64(t0.Sub(start).Nanoseconds())/1e6)
		ph.latMS = append(ph.latMS, float64(lat.Nanoseconds())/1e6)
		if !ok {
			ph.failed++
		}
		if rul != nil {
			for end := time.Now().Add(time.Duration(tickShare * float64(lat))); ; {
				ph.ticks = append(ph.ticks, rul.tick(start))
				if !time.Now().Before(end) {
					break
				}
			}
		}
	}
	ph.wall = time.Since(start)
	return ph
}

// setupTicks is how many times the ruler is read before and after a
// set-up.
const setupTicks = 8

// runEndToEnd is the untraced run: nRounds rounds of set-up, n timed ops
// and the oracles; crash recovery is checked on the last round's system.
func runEndToEnd(w workloadSpec, seed int64, seconds, nRounds int) (result, error) {
	warm, n := w.warmOps(seconds, false), scaled(w.ops, seconds, 2)
	res := result{Metrics: map[string]metric{}}
	rul := newRuler()
	// Every timing is scaled by the box's speed around it as soon as its
	// round is over; the op timings of all rounds go into one pool.
	var setups, ops, rawOps []float64
	var allocBytes uint64
	for r := 0; r < nRounds; r++ {
		start := time.Now()
		ticks := rul.read(setupTicks, start)
		t0 := time.Now()
		inst, err := w.setup(seed, warm)
		if err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS := time.Since(t0).Seconds()
		ticks = append(ticks, rul.read(setupTicks, start)...)
		setups = append(setups, setupS*speed(ticks))
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		ph := runPhase(inst, 0, n, nil, rul)
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		for j, l := range ph.latMS {
			rawOps = append(rawOps, l)
			ops = append(ops, l*speedAround(ph.ticks, ph.startMS[j], ph.startMS[j]+l))
		}
		res.Attempted += n + 1
		res.Failed += ph.failed
		if err := inst.finish(r == nRounds-1); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: round %d: oracle: %v\n", w.name, r, err)
			res.Failed++
		}
		inst.close()
	}
	res.Correct = res.Failed == 0

	sort.Float64s(ops)
	sort.Float64s(rawOps)
	total := len(ops)
	put := func(name string, v float64) { res.Metrics[name] = metric{v, endToEndUnits[name]} }
	put("setup_s", stats.Median(setups))
	put("throughput", float64(total)/(stats.Sum(ops)/1e3))
	put("latency_p50_ms", percentile(ops, 0.50))
	put("latency_p90_ms", percentile(ops, 0.90))
	put("alloc_kb_per_op", float64(allocBytes)/1e3/float64(total))
	fmt.Printf("%s: %d rounds of (set-up with %d warm-up ops, %d timed %s ops): %d latency samples, %d beyond p90\n",
		w.name, nRounds, warm, n, w.opUnit, total, total-int(math.Ceil(0.9*float64(total))))
	fmt.Printf("%s: unscaled: throughput %.4g op/s, p50 %.4g ms, p90 %.4g ms\n",
		w.name, float64(total)/(stats.Sum(rawOps)/1e3), percentile(rawOps, 0.50), percentile(rawOps, 0.90))
	return res, nil
}

// runTraced is the traced run: the ops of two rounds on two identically
// set-up systems, one untraced and one with spans recorded, taking turns
// so that both see the same drift of the box. The per-layer numbers come
// from the traced system, trace.overhead_frac from the difference in wall
// time.
func runTraced(w workloadSpec, seed int64, seconds int, traceOut string) (result, error) {
	warm, per := w.warmOps(seconds, true), scaled(w.ops, seconds, 2)
	const turns = 2
	n := turns * per
	base, err := w.setup(seed, warm)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer base.close()
	inst, err := w.setup(seed, warm)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	tr := newTracer()
	var plain, traced phase
	for t := 0; t < turns; t++ {
		plain.add(runPhase(base, t*per, (t+1)*per, nil, nil))
		traced.add(runPhase(inst, t*per, (t+1)*per, tr, nil))
	}
	res := result{Attempted: 2*n + 1, Failed: plain.failed + traced.failed, Metrics: map[string]metric{}}
	if err := inst.finish(true); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: oracle: %v\n", w.name, err)
		res.Failed++
	}
	vals := map[string]float64{}
	if err := inst.layers(n, tr, vals); err != nil {
		return result{}, fmt.Errorf("%s: layers: %w", w.name, err)
	}
	vals["trace.overhead_frac"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
	vals["trace.coverage"] = tr.coverage()
	for name := range vals {
		if _, ok := layerUnits[name]; !ok {
			return result{}, fmt.Errorf("%s: layer metric %q is not declared", w.name, name)
		}
	}
	for name, unit := range layerUnits {
		res.Metrics[name] = metric{vals[name], unit} // a layer the workload leaves idle reads 0
	}
	res.Correct = res.Failed == 0
	if traceOut != "" {
		if err := tr.write(traceOut); err != nil {
			return result{}, err
		}
	}
	fmt.Printf("%s: traced %d %s ops, %d spans, %.2f s untraced beside %.2f s traced\n",
		w.name, n, w.opUnit, len(tr.spans), plain.wall.Seconds(), traced.wall.Seconds())
	return res, nil
}
