package core

import (
	"bohr/internal/faults"
	"bohr/internal/placement"
)

// Option is a functional configuration knob for the one-shot pipelines
// (Run, RunDynamic). It subsumes the placement.Options struct the
// positional forms took: WithPlacement adopts a whole struct, the other
// options tune individual fields.
type Option func(*placement.Options)

// resolve folds the options into the placement options one Run call
// executes under.
func resolve(opts []Option) placement.Options {
	var o placement.Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithPlacement adopts a full placement.Options struct — the bridge from
// the deprecated positional forms. Options applied after it override its
// fields.
func WithPlacement(o placement.Options) Option {
	return func(opts *placement.Options) { *opts = o }
}

// WithFaults attaches a fault schedule: planning consumes its degraded
// bandwidth view and the modeled run applies its events in modeled time.
func WithFaults(s *faults.Schedule) Option {
	return func(o *placement.Options) { o.Faults = s }
}

// WithSeed sets the seed driving random record selection.
func WithSeed(seed int64) Option {
	return func(o *placement.Options) { o.Seed = seed }
}

// WithLag sets T, the time between recurring query arrivals (seconds).
func WithLag(t float64) Option {
	return func(o *placement.Options) { o.Lag = t }
}

// WithProbeK sets the total probe record budget per dataset.
func WithProbeK(k int) Option {
	return func(o *placement.Options) { o.ProbeK = k }
}
