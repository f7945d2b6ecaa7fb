package core

import (
	"bohr/internal/faults"
	"bohr/internal/obs"
	"bohr/internal/parallel"
	"bohr/internal/placement"
)

// Option is a functional configuration knob for the one-shot pipelines
// (Run, RunDynamic). It subsumes the placement.Options struct the
// positional forms took — WithPlacement adopts a whole struct, the other
// options tune individual fields — and adds the one run-scoped knob the
// struct never carried: the worker-pool width.
type Option func(*runConfig)

// runConfig is the resolved option set one Run call executes under.
type runConfig struct {
	placement placement.Options
	// width, when positive, pins the parallel kernel pool width for the
	// duration of the run (0 keeps the process default).
	width int
}

// resolve folds the options into a config.
func resolve(opts []Option) runConfig {
	var rc runConfig
	for _, fn := range opts {
		fn(&rc)
	}
	return rc
}

// apply pins run-scoped process state (pool width) and returns the
// restore function; Run defers it so nested or subsequent runs see the
// prior defaults again.
func (rc runConfig) apply() (restore func()) {
	if rc.width <= 0 {
		return func() {}
	}
	prev := parallel.SetDefaultWidth(rc.width)
	return func() { parallel.SetDefaultWidth(prev) }
}

// WithPlacement adopts a full placement.Options struct — the bridge from
// the deprecated positional forms. Options applied after it override its
// fields.
func WithPlacement(o placement.Options) Option {
	return func(rc *runConfig) { rc.placement = o }
}

// WithObs attaches an observability collector gathering phase spans and
// metrics for the whole pipeline.
func WithObs(col *obs.Collector) Option {
	return func(rc *runConfig) { rc.placement.Obs = col }
}

// WithFaults attaches a fault schedule: planning consumes its degraded
// bandwidth view and the modeled run applies its events in modeled time.
func WithFaults(s *faults.Schedule) Option {
	return func(rc *runConfig) { rc.placement.Faults = s }
}

// WithSeed sets the seed driving random record selection.
func WithSeed(seed int64) Option {
	return func(rc *runConfig) { rc.placement.Seed = seed }
}

// WithLag sets T, the time between recurring query arrivals (seconds).
func WithLag(t float64) Option {
	return func(rc *runConfig) { rc.placement.Lag = t }
}

// WithProbeK sets the total probe record budget per dataset.
func WithProbeK(k int) Option {
	return func(rc *runConfig) { rc.placement.ProbeK = k }
}

// WithWidth pins the parallel worker-pool width for the duration of the
// run (1 = sequential). It adjusts the process-wide default and restores
// the previous value when the run returns, so it must not race another
// concurrently-starting run that also sets a width.
func WithWidth(n int) Option {
	return func(rc *runConfig) { rc.width = n }
}
