package engine

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sync"

	"bohr/internal/faults"
	"bohr/internal/obs"
	"bohr/internal/parallel"
	"bohr/internal/wan"
)

// JobConfig configures one query execution on a cluster.
type JobConfig struct {
	Query Query
	// Obs optionally collects per-query phase spans (map, assign, shuffle,
	// reduce) and shuffle metrics. The query span attaches under the
	// collector's current span. Nil disables collection at no cost.
	Obs *obs.Collector
	// TaskFrac is r_i, the fraction of reduce tasks at each site; it must
	// sum to ~1. nil assigns fractions proportional to uplink bandwidth.
	TaskFrac []float64
	// Assigner places partitions on executors per machine; nil uses
	// round-robin (the Spark default Bohr's RDD similarity replaces).
	Assigner Assigner
	// ExtraQCT is added to the final QCT: the paper includes LP solving
	// and RDD-similarity checking time in measured QCT (§8.5).
	ExtraQCT float64
	// CubeInput models OLAP-cube storage: the cube holds pre-aggregated
	// cells, so scanning costs one map operation per *distinct* key
	// rather than per raw record (the Iridium-C vs Iridium gain of §8.2).
	// Data volume semantics are unchanged — only scan cost drops, and it
	// drops more for duplicate-heavy (similar) data.
	CubeInput bool
	// Faults is an optional fault schedule applied in modeled time:
	// straggler windows scale per-site map and reduce times, and
	// degraded/blacked-out links slow the shared shuffle through
	// wan.Topology.Estimate. Concurrent jobs share the schedule of the first config
	// that sets one (they share the WAN, so they must share its faults).
	Faults *faults.Schedule
	// FaultClock is the modeled time at which this execution starts on
	// the schedule's timeline (queries launched after the lag window
	// start at t = Lag).
	FaultClock float64
}

// RoundMetrics reports one map-shuffle-reduce round.
type RoundMetrics struct {
	MapTime        float64
	AssignOverhead float64
	ShuffleTime    float64
	ReduceTime     float64
	// IntermediateMB[i] is the post-combiner shuffle volume produced at
	// site i this round.
	IntermediateMB []float64
	// ShuffleMB is the volume that actually crossed the WAN this round.
	ShuffleMB float64
}

// RunResult is the outcome of executing a query.
type RunResult struct {
	// QCT is the query completion time in modeled seconds.
	QCT    float64
	Rounds []RoundMetrics
	// IntermediateMBPerSite sums per-site post-combiner volumes over all
	// rounds — the quantity Figures 8/9/11 compare.
	IntermediateMBPerSite []float64
	// TotalShuffleMB sums cross-WAN shuffle volume over all rounds.
	TotalShuffleMB float64
	// output is the last round's key table, sorted on the first Output.
	output     []KV
	sortOutput sync.Once
}

// Output is the final reduce output across all sites, merged and sorted
// by key. The sort runs on the first call, so a run whose output nobody
// reads (every modeled experiment) never sorts; any number of goroutines
// may call it.
func (r *RunResult) Output() []KV {
	r.sortOutput.Do(func() { slices.SortFunc(r.output, byKey) })
	return r.output
}

// Run executes the query on the cluster and returns timing and volume
// metrics. The cluster's data is not modified; rounds after the first
// operate on reduce outputs held per site.
//
// The context is honored at chunk boundaries — between stages and between
// per-site map fan-out items, never inside a kernel — so a run that is not
// cancelled produces byte-identical results regardless of when (or
// whether) a deadline was attached.
func (c *Cluster) Run(ctx context.Context, cfg JobConfig) (*RunResult, error) {
	res, err := c.RunConcurrent(ctx, []JobConfig{cfg})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunConcurrent executes several queries together, the way recurring
// queries over many datasets actually arrive: each query's map, combine
// and reduce run in its own right, but every round's shuffle shares the
// WAN — the stage ends when the slowest site drains the union of all
// jobs' flows. This is exactly the link sharing objective (2) of §5
// optimizes for, and it is where joint placement pays off. Iterative
// queries keep shuffling in later rounds after shorter jobs finish.
//
// Cancellation is checked at chunk boundaries (round starts, stage
// transitions, per-site fan-out items): in-flight kernels finish their
// current chunk, then the whole batch returns ctx.Err() without touching
// further state.
func (c *Cluster) RunConcurrent(ctx context.Context, cfgs []JobConfig) ([]*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: run: %w", err)
	}
	n := c.N()
	type jobState struct {
		cfg      JobConfig
		q        Query
		taskFrac []float64
		// input is what the next round maps: the previous round's reduce
		// output per site. Round 0 reads the dataset's stores.
		input [][]KV
		res   *RunResult
		// sp is the query's trace span; stage children accumulate via
		// Child().Add() because concurrent jobs interleave rounds.
		sp *obs.Span
	}
	jobs := make([]*jobState, len(cfgs))
	maxRounds := 0
	for ji, cfg := range cfgs {
		if err := cfg.Query.Validate(); err != nil {
			return nil, err
		}
		q := cfg.Query
		taskFrac := cfg.TaskFrac
		if taskFrac == nil {
			taskFrac = UplinkProportional(c.Top)
		}
		if len(taskFrac) != n {
			return nil, fmt.Errorf("engine: job %d task fractions sized %d, want %d", ji, len(taskFrac), n)
		}
		var fracSum float64
		for i, f := range taskFrac {
			if f < -1e-9 {
				return nil, fmt.Errorf("engine: job %d negative task fraction %v at site %d", ji, f, i)
			}
			fracSum += f
		}
		if math.Abs(fracSum-1) > 1e-3 {
			return nil, fmt.Errorf("engine: job %d task fractions sum to %v, want 1", ji, fracSum)
		}
		jobs[ji] = &jobState{
			cfg: cfg, q: q, taskFrac: taskFrac,
			res: &RunResult{IntermediateMBPerSite: make([]float64, n)},
			sp:  cfg.Obs.Current().Child(fmt.Sprintf("q%02d:%s", ji, q.Name)),
		}
		if r := q.rounds(); r > maxRounds {
			maxRounds = r
		}
	}

	// Concurrent jobs share the WAN, so they share one fault schedule
	// and one modeled clock: the first config that sets a schedule
	// governs the batch. The clock advances stage by stage so fault
	// windows hit the stages that are actually running when they fire.
	var fs *faults.Schedule
	var clock float64
	for _, cfg := range cfgs {
		if cfg.Faults != nil {
			fs = cfg.Faults
			clock = cfg.FaultClock
			break
		}
	}

	// The stages' buffers serve the whole batch, job after job and round
	// after round, and come from pools that keep them across calls: a
	// combiner per site, taken at the site's first scan, and the key index
	// each job's fold hands to the next (keyTable.done). Both go back
	// emptied when the call ends, however it ends; the index is empty
	// already unless a fold stopped halfway.
	combiners := make([]*combiner, n)
	index, _ := keyIndexPool.Get().(map[string]int32)
	defer func() {
		for _, cb := range combiners {
			if cb != nil {
				cb.empty()
				combinerPool.Put(cb)
			}
		}
		if index != nil {
			clear(index)
			keyIndexPool.Put(index)
		}
	}()

	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("engine: run round %d: %w", round, err)
		}
		var flows []wan.Transfer
		type roundState struct {
			rm   RoundMetrics
			keys *keyTable
			// mapSite / reduceSite hold per-site stage times for the
			// trace's per-site child spans (critical-path attribution).
			mapSite    []float64
			reduceSite []float64
		}
		states := make([]*roundState, len(jobs))

		// Map + combine per job, and collect every job's shuffle flows.
		for ji, job := range jobs {
			if round >= job.q.rounds() {
				continue
			}
			st := &roundState{
				rm:         RoundMetrics{IntermediateMB: make([]float64, n)},
				mapSite:    make([]float64, n),
				reduceSite: make([]float64, n),
			}
			states[ji] = st
			jobFlowStart := len(flows)
			// Per-site map+combine stages are independent (they read the
			// site's own input and the shared read-only query/assigner), so
			// they fan out over the worker pool; everything that touches
			// shared state — metric observation, shuffle routing, flow
			// accumulation — folds the pooled results sequentially in site
			// order below, preserving the sequential path byte for byte.
			// looked says the site's layout was asked of its store; hit that
			// the store already had it; cols and colsHit the same of the key
			// columns a Select reads.
			type siteStage struct {
				StageResult
				looked, hit, colsHit bool
				cols                 *columns
			}
			outs, err := parallel.MapOrdered(0, n, func(i int) (siteStage, error) {
				// One site's map+combine is the cancellation chunk: a
				// cancelled batch stops launching new sites but never
				// truncates a site already mapping.
				if cerr := ctx.Err(); cerr != nil {
					return siteStage{}, fmt.Errorf("engine: job %d site %d round %d: %w", ji, i, round, cerr)
				}
				stage := Stage{Exec: c.Exec[i], Assigner: job.cfg.Assigner, CubeInput: job.cfg.CubeInput}
				var out siteStage
				var l *Layout
				var lerr error
				switch store := c.Data[i].Store(job.q.Dataset); {
				case round == 0 && store.Len() > 0:
					out.looked = true
					l, out.hit, lerr = store.Layout(stage)
				case round > 0 && len(job.input[i]) > 0:
					// Reduce output: nobody scans it again, nobody keeps
					// its layout.
					l, lerr = NewLayout(job.input[i], stage)
				default:
					return out, nil
				}
				if lerr != nil {
					return out, fmt.Errorf("engine: job %d site %d round %d: %w", ji, i, round, lerr)
				}
				if sel := job.q.Select; sel != nil {
					out.cols, out.colsHit = l.columns(sel.View.Width())
				}
				cb := combiners[i]
				if cb == nil {
					cb = combinerPool.Get().(*combiner)
					combiners[i] = cb
				}
				out.StageResult = l.scan(&job.q, cb)
				return out, nil
			})
			if err != nil {
				return nil, err
			}
			// The round's partials fold into one key table in (site, Inter)
			// order, which routes each key once, on its first arrival. It is
			// sized for the most partials one site sends, and the fold is done
			// before the next job's scans overwrite the combiners.
			hint := 0
			for i := range outs {
				hint = max(hint, len(outs[i].Inter))
			}
			st.keys = newKeyTable(job.q.Combine, job.taskFrac, hint, index)
			crossMB := make([]float64, n)
			var hits, misses, colsHits, encoded int
			for i := 0; i < n; i++ {
				inter, raw, mapT, assignT := outs[i].Inter, outs[i].Raw, outs[i].MapTime, outs[i].AssignOverhead
				if raw > 0 && job.cfg.Obs != nil {
					job.cfg.Obs.Observe("combine.reduction.ratio", 1-float64(len(inter))/float64(raw))
				}
				if outs[i].hit {
					hits++
				} else if outs[i].looked {
					misses++
				}
				if outs[i].colsHit {
					colsHits++
				} else if outs[i].cols != nil {
					encoded += outs[i].cols.encoded
					if job.cfg.Obs.WallClock() {
						job.cfg.Obs.Observe(HistColumnsBuild, outs[i].cols.buildS)
					}
				}
				mapT *= fs.ComputeFactor(i, clock)
				st.mapSite[i] = mapT
				if mapT > st.rm.MapTime {
					st.rm.MapTime = mapT
				}
				if assignT > st.rm.AssignOverhead {
					st.rm.AssignOverhead = assignT
				}
				st.rm.IntermediateMB[i] = c.MB(len(inter))
				job.res.IntermediateMBPerSite[i] += st.rm.IntermediateMB[i]

				clear(crossMB)
				for _, rec := range inter {
					if owner := st.keys.add(rec); int(owner) != i {
						crossMB[owner] += c.BytesPerRecord / 1e6
					}
				}
				for j := 0; j < n; j++ {
					if crossMB[j] > 0 {
						flows = append(flows, wan.Transfer{Src: wan.SiteID(i), Dst: wan.SiteID(j), MB: crossMB[j]})
						st.rm.ShuffleMB += crossMB[j]
					}
				}
			}
			index = st.keys.done()
			wan.RecordFlows(job.cfg.Obs, c.Top, "shuffle", flows[jobFlowStart:])
			job.cfg.Obs.Count("engine.shuffle.mb", st.rm.ShuffleMB)
			if round == 0 {
				job.cfg.Obs.Count(CounterLayoutHits, float64(hits))
				job.cfg.Obs.Count(CounterLayoutMisses, float64(misses))
				if job.q.Select != nil { // looked up wherever a layout was
					job.cfg.Obs.Count(CounterColumnsHits, float64(colsHits))
					job.cfg.Obs.Count(CounterColumnsMisses, float64(hits+misses-colsHits))
					job.cfg.Obs.Count(CounterColumnsEncoded, float64(encoded))
				}
			}
		}

		// The shuffle starts when the slowest job's map+assign finishes.
		mapEnd := clock
		for _, st := range states {
			if st == nil {
				continue
			}
			if end := clock + st.rm.MapTime + st.rm.AssignOverhead; end > mapEnd {
				mapEnd = end
			}
		}

		// One shared shuffle: with many parallel flows the access links
		// saturate, so the stage time is the paper's per-link aggregate
		// model (Eqs. 3-4) over the union of all jobs' flows — drained
		// through fault-scaled link capacities when a schedule is set.
		shuffleTime := c.Top.Estimate(flows, fs, mapEnd)
		reduceStart := mapEnd + shuffleTime

		// Stage boundary: a cancellation arriving during the modeled
		// shuffle stops the batch before any reducer runs.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("engine: run round %d reduce: %w", round, err)
		}

		// Reduce per job.
		var maxReduce float64
		for ji, job := range jobs {
			st := states[ji]
			if st == nil {
				continue
			}
			st.rm.ShuffleTime = shuffleTime
			job.res.TotalShuffleMB += st.rm.ShuffleMB
			for j := 0; j < n; j++ {
				execs := c.Exec[j].Total()
				t := float64(st.keys.arrivals[j]) * job.q.ReduceCost / float64(execs)
				t *= fs.ComputeFactor(j, reduceStart)
				st.reduceSite[j] = t
				if t > st.rm.ReduceTime {
					st.rm.ReduceTime = t
				}
			}
			if st.rm.ReduceTime > maxReduce {
				maxReduce = st.rm.ReduceTime
			}
			job.res.Rounds = append(job.res.Rounds, st.rm)
			job.res.QCT += st.rm.MapTime + st.rm.AssignOverhead + st.rm.ShuffleTime + st.rm.ReduceTime
			ms := job.sp.Child("map")
			ms.Add(st.rm.MapTime)
			for i, mt := range st.mapSite {
				if mt > 0 {
					ms.Child(c.Top.Sites[i].Name).Add(mt)
				}
			}
			job.sp.Child("assign").Add(st.rm.AssignOverhead)
			job.sp.Child("shuffle").Add(st.rm.ShuffleTime)
			rs := job.sp.Child("reduce")
			rs.Add(st.rm.ReduceTime)
			for j, rt := range st.reduceSite {
				if rt > 0 {
					rs.Child(c.Top.Sites[j].Name).Add(rt)
				}
			}
			// The next round maps each reducer's output where it ran; the
			// last round's outputs, disjoint by owner, sorted together on
			// demand are the query's.
			if round+1 < job.q.rounds() {
				job.input = st.keys.runs()
			} else {
				job.res.output = st.keys.slots
			}
		}
		clock = reduceStart + maxReduce
	}

	out := make([]*RunResult, len(jobs))
	for ji, job := range jobs {
		job.res.QCT += job.cfg.ExtraQCT
		job.sp.Add(job.res.QCT)
		out[ji] = job.res
	}
	return out, nil
}

// Counter names of round 0's layout lookups, one per site that holds
// records of the query's dataset. Exactly one miss per content × stage,
// however many queries ask first, so the totals are identical at any pool
// width.
const (
	CounterLayoutHits   = "engine.layout.hits"
	CounterLayoutMisses = "engine.layout.misses"
)

// Stage configures the executor layout of one site's map→combine stage.
// A store memoizes its layouts under the stage's value (Store.Layout), so
// everything a layout depends on besides the records is in here.
type Stage struct {
	// Exec is the site's compute: records split evenly across machines,
	// each machine's share into PerMachine×partitionsPerExecutor partitions
	// that Assigner (default round-robin) places on the machine's
	// executors.
	Exec     Executors
	Assigner Assigner
	// CubeInput charges an executor's map cost per distinct input key
	// (pre-aggregated cube cell) instead of per raw record. Only a layout
	// built with it counts distinct keys.
	CubeInput bool
}

// partitionsPerExecutor is the partition granularity: how many partitions
// a machine's share is cut into per executor.
const partitionsPerExecutor = 4

func (st Stage) withDefaults() Stage {
	if st.Assigner == nil {
		st.Assigner = RoundRobinAssigner{}
	}
	return st
}

// Layout is the half of one site's map→combine stage that does not depend
// on the statement: which records each executor scans, in which order, and
// what the modeled stage charges for it (§6's runtime RDD-similarity step
// is a function of a machine's partitions, not of the query). It is
// immutable; any number of Scans may share one.
type Layout struct {
	// AssignOverhead is the largest per-machine modeled assignment cost.
	AssignOverhead float64
	// records are what its ranges index: the slice derive handed the
	// build, or NewLayout's caller. ct is their content, which their key
	// columns and hashes are kept under.
	records []KV
	ct      *content
	// execs are the executors in (machine, executor) order.
	execs []execLayout
}

type execLayout struct {
	// parts are the executor's partitions in partition order, each an index
	// range of the site's records — and of their columns.
	parts []span
	// records counts the parts' records; basis is what the executor's
	// modeled map cost is charged per: them, or under CubeInput their
	// distinct keys.
	records, basis int
}

type span struct{ lo, hi int }

// NewLayout partitions the records, has the stage's assigner place every
// machine's partitions on its executors and validates what it returned.
// The layout references the records: they must not be modified afterwards
// (a store's never are).
func NewLayout(records []KV, st Stage) (*Layout, error) {
	return newLayout(records, &content{}, st)
}

// newLayout lays out records, whose content is ct. Their key hashes, kept
// per content and carried across writes (content.keyHashes), are read only
// when something reads keys: an assigner other than round-robin, or a
// distinct count.
func newLayout(records []KV, ct *content, st Stage) (*Layout, error) {
	var hashes []uint64
	if _, rr := st.withDefaults().Assigner.(RoundRobinAssigner); len(records) > 0 && (!rr || st.CubeInput) {
		hashes = ct.keyHashes(records)
	}
	execs, overhead, err := st.lay(len(records), records, hashes)
	if err != nil {
		return nil, err
	}
	l := &Layout{AssignOverhead: overhead, records: records, ct: ct, execs: execs}
	for e := range l.execs {
		el := &l.execs[e]
		el.basis = el.records
		if st.CubeInput {
			el.basis = distinctKeys(records, hashes, el.parts, el.records)
		}
	}
	return l, nil
}

// keySets are the scratch tables of distinctKeys, reused across layouts.
var keySets = sync.Pool{New: func() any { return new([]openSlot) }}

// distinctKeys counts the distinct keys among the records in parts (n of
// them) through an open-addressed set of their hashes: a slot holds a hash
// and the position, from 1, of the first record seen with it. A record
// whose hash matches a slot's is that key again only when the keys are
// equal, so the count is exact whatever the hashes are.
func distinctKeys(recs []KV, hashes []uint64, parts []span, n int) int {
	set := keySets.Get().(*[]openSlot)
	defer keySets.Put(set)
	size := 1 << bits.Len(uint(2*n))
	tab, mask, distinct := cleared(set, size), uint64(size-1), 0
	for _, p := range parts {
		for i := p.lo; i < p.hi; i++ {
			h, j := hashes[i], hashes[i]&mask
			for tab[j].ord != 0 && (tab[j].tuple != h || recs[tab[j].ord-1].Key != recs[i].Key) {
				j = (j + 1) & mask
			}
			if tab[j].ord == 0 {
				tab[j] = openSlot{tuple: h, ord: int32(i + 1)}
				distinct++
			}
		}
	}
	return distinct
}

// lay cuts n records into the stage's executors and returns them with the
// largest per-machine assignment overhead. records are what the assigner
// reads, beside their hashes when those are known; nil under the default
// one, which counts partitions only.
func (st Stage) lay(n int, records []KV, hashes []uint64) ([]execLayout, float64, error) {
	ex := st.Exec
	if ex.Machines <= 0 || ex.PerMachine <= 0 {
		return nil, 0, fmt.Errorf("engine: stage needs positive executors, got %d×%d", ex.Machines, ex.PerMachine)
	}
	st = st.withDefaults()
	if n == 0 {
		return nil, 0, nil
	}
	perMachine := (n + ex.Machines - 1) / ex.Machines
	// Only the machines that get records have executors in the layout.
	execs := make([]execLayout, 0, (n+perMachine-1)/perMachine*ex.PerMachine)
	var overhead float64
	for lo := 0; lo < n; lo += perMachine {
		spans := partitionSpans(lo, min(lo+perMachine, n), ex.PerMachine*partitionsPerExecutor)
		parts := make([]Partition, len(spans))
		for pi, s := range spans {
			parts[pi].Index = pi
			if records != nil {
				parts[pi].Records = records[s.lo:s.hi]
			}
			if hashes != nil {
				parts[pi].Hashes = hashes[s.lo:s.hi:s.hi]
			}
		}
		assignment, oh, err := st.Assigner.Assign(parts, ex.PerMachine)
		if err != nil {
			return nil, 0, err
		}
		if len(assignment) != len(parts) {
			return nil, 0, fmt.Errorf("assigner returned %d assignments for %d partitions", len(assignment), len(parts))
		}
		overhead = max(overhead, oh)
		machine := len(execs)
		execs = execs[:machine+ex.PerMachine]
		for pi, e := range assignment {
			if e < 0 || e >= ex.PerMachine {
				return nil, 0, fmt.Errorf("assigner placed partition %d on executor %d of %d", pi, e, ex.PerMachine)
			}
			el := &execs[machine+e]
			el.parts = append(el.parts, spans[pi])
			el.records += spans[pi].hi - spans[pi].lo
		}
	}
	return execs, overhead, nil
}

// layoutKey is the memo key of a store's layout: the stage, defaults
// filled in.
type layoutKey Stage

// Layout returns the store's layout for the stage, built once per content
// (derive): a recurring query, a new statement or a new plan over a site
// nobody wrote to re-partitions, re-clusters and re-counts nothing. hit is
// false for the caller that built it. An assigner whose value cannot stand
// for what it does — not comparable, or a pointer, whose identity says
// nothing about its configuration — is never memoized.
func (s *Store) Layout(st Stage) (l *Layout, hit bool, err error) {
	st = st.withDefaults()
	var ct *content
	if s != nil {
		ct = s.content
	}
	build := func(recs []KV) (*Layout, error) { return newLayout(recs, ct, st) }
	if t := reflect.TypeOf(st.Assigner); !t.Comparable() || t.Kind() == reflect.Pointer {
		l, err = build(s.Records())
		return l, false, err
	}
	return derive(s, layoutKey(st), build)
}

// StageResult is what one site's map→combine stage produced.
type StageResult struct {
	// Inter holds the post-combiner records: executors in (machine,
	// executor) order, each executor's groups in first-emit order. Records
	// are NOT combined across executors — exactly the inefficiency §6's RDD
	// similarity clustering reduces.
	Inter []KV
	// Raw is the pre-combiner emitted total, the denominator of the
	// combiner reduction ratio.
	Raw int
	// MapTime is the modeled time of the slowest executor; AssignOverhead
	// the largest per-machine assignment overhead.
	MapTime, AssignOverhead float64
}

// Scan is the map→combine stage of one statement on its own combiner:
// stream each executor's partitions in place through q.Map into that
// executor's combiner. Nothing is copied per record, so a scan allocates
// for the groups it opens, not the records it reads. The engine's jobs
// run it through scan on a batch's shared combiner; Scan itself is the
// reference tests read (sql's coded-versus-closure differential,
// placement's volume profile).
//
// The combiner keeps groups in first-emit order instead of sorting them.
// One key appears at most once per executor, so a reducer still meets each
// key's partials in (site, machine, executor) order: every reduced sum and
// every modeled time is bit-identical to a sorting combiner's, at any pool
// width (DESIGN.md §8).
func (l *Layout) Scan(q *Query) StageResult { return l.scan(q, new(combiner)) }

// scan is Scan folding into cb: Inter is cb's buffer, valid until cb's
// next scan.
func (l *Layout) scan(q *Query, cb *combiner) StageResult {
	res := StageResult{AssignOverhead: l.AssignOverhead}
	if len(l.execs) == 0 {
		return res
	}
	if q.Select != nil {
		cols, _ := l.columns(q.Select.View.Width())
		return l.scanSelect(cols, q, cb)
	}
	cb.reset(q.Combine)
	emit := cb.emit // one method value for the whole scan
	for i := range l.execs {
		ex := &l.execs[i]
		cb.next()
		for _, p := range ex.parts {
			for _, r := range l.records[p.lo:p.hi] {
				if q.Map == nil {
					emit(r.Key, r.Val)
				} else {
					q.Map(r, emit)
				}
			}
		}
		// Machines and executors run in parallel.
		res.MapTime = max(res.MapTime, float64(ex.basis)*q.MapCost)
	}
	res.Inter, res.Raw = cb.out, cb.raw
	return res
}

// KeyOwner picks the reduce site of a key with probability proportional to
// the task fractions, deterministically, via weighted rendezvous hashing.
func KeyOwner(key string, taskFrac []float64) int {
	h := fnv1a(key)
	best := 0
	bestScore := math.Inf(1)
	for j, w := range taskFrac {
		if w <= 0 {
			continue
		}
		// Uniform (0,1) draw from the (key, site) pair; the smallest
		// exponential race time wins with probability proportional to w.
		u := float64(mix(h^(uint64(j)*0x9E3779B97F4A7C15))%(1<<53)+1) / float64(1<<53+1)
		score := -math.Log(u) / w
		if score < bestScore {
			bestScore = score
			best = j
		}
	}
	return best
}

func mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// UplinkProportional returns task fractions proportional to each site's
// uplink bandwidth — the baseline task placement heuristic, and the prior
// the planner falls back to when the task LP stalls. A topology with no
// uplink capacity at all splits evenly.
func UplinkProportional(top *wan.Topology) []float64 {
	ups := top.Uplinks()
	var total float64
	for _, u := range ups {
		total += u
	}
	out := make([]float64, len(ups))
	for i, u := range ups {
		if total <= 0 {
			out[i] = 1 / float64(len(ups))
		} else {
			out[i] = u / total
		}
	}
	return out
}
