package core

import (
	"context"

	"bohr/internal/engine"
	"bohr/internal/obs"
	"bohr/internal/obs/critpath"
	"bohr/internal/placement"
	"bohr/internal/workload"
)

// ReportSchemaVersion is bumped whenever the Report JSON schema changes
// incompatibly, so downstream consumers can detect what they are parsing.
// v2 added the resilience section (fault-event list + retry/timeout
// counters) emitted by fault-injected runs. v3 added per-site children
// under the trace's map/reduce stage spans and the crit_paths section
// (per-query critical-path decomposition). v4 added the similarity-cache
// hit/miss counters (olap.cubeset.*, similarity.sigcache.*,
// placement.cubecache.*) to the metrics snapshot. v5 added the bounded
// memo layer's level counters (<cache>.entries/.bytes/.evictions for
// each of the three caches) to the metrics snapshot and the optional
// dynamic section (§8.6 run summary). v6: the planner's cube cache is
// gone (derived state lives on the stores' contents), so dynamic reports
// lose placement.cubecache.* and gain placement.derived.{hits,misses} —
// deterministic at any pool width: exactly one miss per content × key.
// They count the planner's lookups of a site's dominant-view cell column,
// its only per-site derived state since it stopped building olap cubes.
// v7: the signature cache is gone (a site's executor layout is derived
// state of its store), so the metrics snapshot loses
// similarity.sigcache.{hits,misses,entries,bytes,evictions} and reports
// whose queries ran under the collector (RunAll, which the §8.6 arrival
// script also runs once per arrival) gain engine.layout.{hits,misses}, one
// lookup per query and site holding records of its dataset.
// v8: the live TCP substrate is gone, so the resilience section loses
// retries and timeouts, whose counters had no writer left, and carries
// the fault events alone.
const ReportSchemaVersion = 8

// DynamicReport summarizes a §8.6 dynamic run: recurring queries over a
// prepared system while batches arrive through IngestBatch. It marshals
// stably (fixed field order) and carries no memo or timing state, so two
// runs of one seed produce byte-identical reports at any pool width.
type DynamicReport struct {
	Scheme placement.SchemeID `json:"scheme"`
	// QCTs per query arrival, averaged over datasets.
	QCTs []float64 `json:"qcts"`
	// MeanQCT across all arrivals.
	MeanQCT float64 `json:"mean_qct_s"`
	// Replans counts placement computations: Prepare's plus every
	// ingest-triggered replan (1 + IngestReplans).
	Replans int `json:"replans"`
	// BatchesDelivered counts the applied ingest batches (IngestBatches).
	BatchesDelivered int `json:"batches_delivered"`
}

// ResilienceReport captures a run's failure handling: the fault events
// on the modeled timeline. Present (non-nil, possibly empty) exactly when
// a fault schedule was attached to the run.
type ResilienceReport struct {
	// FaultEvents is the run's event timeline in deterministic order:
	// the injected schedule's events, in schedule order.
	FaultEvents []obs.Event `json:"fault_events"`
}

// Report is the one machine-readable result document of the reproduction:
// a stable-schema JSON tree subsuming the prepare-phase summary, the
// run-phase summary, the phase-span trace and the metrics registry.
// bohrbench -json and bohrctl -json emit it; experiments nest one child
// per (workload, scheme, repetition) under a per-experiment parent.
//
// All numeric content is modeled (deterministic) unless the collector was
// built with obs.WithWallClock, so serializing the same seeded run twice
// produces byte-identical output.
type Report struct {
	// SchemaVersion identifies the JSON layout (ReportSchemaVersion).
	SchemaVersion int `json:"schema_version"`
	// Experiment names the figure/table this report belongs to, when the
	// report was produced by the experiments driver ("fig6", "table5", …).
	Experiment string `json:"experiment,omitempty"`
	// Scheme is the placement scheme's display name ("Bohr", "Iridium", …).
	Scheme string `json:"scheme,omitempty"`
	// Workload is the workload kind's display name.
	Workload string `json:"workload,omitempty"`
	// Rep is the repetition index (1-based) for multi-run experiments.
	Rep int `json:"rep,omitempty"`
	// Seed is the run's master seed.
	Seed int64 `json:"seed,omitempty"`
	// Prepare summarizes the offline phase (nil when Prepare never ran).
	Prepare *PrepareReport `json:"prepare,omitempty"`
	// Run summarizes workload execution (nil when RunAll never ran).
	Run *RunReport `json:"run,omitempty"`
	// DataReductionPct is the per-site data reduction vs the vanilla
	// baseline (entries ≤ ReductionUndefined flag an undefined ratio).
	DataReductionPct []float64 `json:"data_reduction_pct,omitempty"`
	// Resilience reports the injected schedule's fault events; nil
	// unless the run carried a fault schedule.
	Resilience *ResilienceReport `json:"resilience,omitempty"`
	// Dynamic summarizes a §8.6 dynamic run (per-arrival QCTs, replan
	// and batch counts); nil for single-shot runs.
	Dynamic *DynamicReport `json:"dynamic,omitempty"`
	// Trace is the phase-span tree (prepare → probes/lp/move, run →
	// per-query map/shuffle/reduce); nil without a collector.
	Trace *obs.Span `json:"trace,omitempty"`
	// Metrics is the metrics-registry snapshot; nil without a collector.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// CritPaths decomposes each query's QCT into its dominant chain
	// (slowest map site → bottleneck link → slowest reducer), derived
	// from Trace + Metrics; nil without a collector.
	CritPaths []critpath.QueryPath `json:"crit_paths,omitempty"`
	// Children nest sub-reports (per-experiment → per-scheme-run).
	Children []*Report `json:"children,omitempty"`
}

// Report assembles the system's machine-readable result document from
// whatever has run so far: the cached Prepare and RunAll summaries plus,
// when a collector is attached, the span trace and metrics snapshot.
func (s *System) Report() *Report {
	r := &Report{
		SchemaVersion: ReportSchemaVersion,
		Scheme:        s.Scheme.String(),
		Seed:          s.Opts.Seed,
		Prepare:       s.prepRep,
		Run:           s.lastRun,
	}
	if s.Workload != nil {
		r.Workload = s.Workload.Kind.String()
	}
	r.Trace = s.Obs.Trace()
	r.Metrics = s.Obs.MetricsSnapshot()
	r.CritPaths = critpath.Analyze(r.Trace, r.Metrics)
	if s.Opts.Faults != nil {
		res := &ResilienceReport{FaultEvents: s.Obs.EventLog()}
		if res.FaultEvents == nil {
			res.FaultEvents = []obs.Event{}
		}
		r.Resilience = res
	}
	return r
}

// Run is the one-shot pipeline: assemble a System, Prepare it (probes,
// placement planning, data movement in the lag) and execute the full
// workload, returning the machine-readable Report. It replaces the
// hand-rolled New/Prepare/RunAll dance for callers that only want the
// result document; keep the System form when you need to issue further
// queries against the prepared cluster.
//
// The context is the run's lifetime: it is honored at phase boundaries
// (planning, movement) and at the engine's chunk boundaries, so a
// deadline or cancellation stops the pipeline within one stage. opts
// configure placement, as they do for New.
func Run(ctx context.Context, c *engine.Cluster, w *workload.Workload, scheme placement.SchemeID, opts placement.Options) (*Report, error) {
	sys, err := New(c, w, scheme, opts)
	if err != nil {
		return nil, err
	}
	if _, err := sys.Prepare(ctx); err != nil {
		return nil, err
	}
	if _, err := sys.RunAll(ctx); err != nil {
		return nil, err
	}
	return sys.Report(), nil
}
