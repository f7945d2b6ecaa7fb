// Package faults is the deterministic fault-injection subsystem of the
// Bohr reproduction. A Schedule of typed events — link degradation and
// blackout windows, site crash/restart, straggler slow-down factors — is
// applied in modeled time by the fluid internal/wan model and the
// engine's compute clock, so results stay byte-deterministic for a
// fixed seed.
//
// The timeline convention shared with the engine: t = 0 is the start of
// the run (Prepare), data moves occupy [0, lag), and recurring queries
// start at the lag boundary. All event times are modeled seconds on
// that axis.
package faults

import (
	"encoding/json"
	"fmt"
	"math"
)

// Kind enumerates the typed fault events a Schedule can carry.
type Kind int

const (
	// KindLinkDegrade scales a site's up/down link capacity by Factor
	// (0 < Factor ≤ 1) for the window's duration.
	KindLinkDegrade Kind = iota
	// KindLinkBlackout zeroes a site's WAN links for the window: the
	// site is unreachable but keeps computing.
	KindLinkBlackout
	// KindSiteCrash takes the whole site down for the window — no links,
	// no compute — and restarts it at End.
	KindSiteCrash
	// KindStraggler multiplies the site's compute time by Factor
	// (Factor ≥ 1) for the window.
	KindStraggler
)

var kindNames = [...]string{"degrade", "blackout", "crash", "straggler"}

// String returns the spec-language name of the kind ("degrade",
// "blackout", "crash", "straggler").
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// KindFromString parses a spec-language kind name.
func KindFromString(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown kind %q", s)
}

// MarshalJSON encodes the kind by its spec-language name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a spec-language kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	kk, err := KindFromString(s)
	if err != nil {
		return err
	}
	*k = kk
	return nil
}

// Event is one fault window on the modeled timeline, active on
// [Start, End) at one site.
type Event struct {
	Kind  Kind    `json:"kind"`
	Site  int     `json:"site"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	// Factor is the link-capacity multiplier for degrade events
	// (0 < Factor ≤ 1) or the compute-time multiplier for stragglers
	// (Factor ≥ 1).
	Factor float64 `json:"factor,omitempty"`
}

// active reports whether the event window covers modeled time t.
func (e Event) active(t float64) bool { return t >= e.Start && t < e.End }

// Schedule is one run's full fault plan: its event list. The zero value
// and the nil pointer are both valid empty schedules — every query method
// is nil-safe and reports "no fault".
type Schedule struct {
	Events []Event `json:"events"`
}

// Validate checks event well-formedness: non-negative site, a finite
// window with Start < End, degrade factors in (0, 1], straggler factors
// ≥ 1.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		if e.Site < 0 {
			return fmt.Errorf("faults: event %d: negative site %d", i, e.Site)
		}
		if math.IsNaN(e.Start) || math.IsInf(e.Start, 0) || math.IsNaN(e.End) || math.IsInf(e.End, 0) {
			return fmt.Errorf("faults: event %d: non-finite window [%v, %v)", i, e.Start, e.End)
		}
		if e.Start < 0 || e.Start >= e.End {
			return fmt.Errorf("faults: event %d: bad window [%v, %v)", i, e.Start, e.End)
		}
		switch e.Kind {
		case KindLinkDegrade:
			if !(e.Factor > 0 && e.Factor <= 1) {
				return fmt.Errorf("faults: event %d: degrade factor %v outside (0, 1]", i, e.Factor)
			}
		case KindStraggler:
			if e.Factor < 1 {
				return fmt.Errorf("faults: event %d: straggler factor %v < 1", i, e.Factor)
			}
		case KindLinkBlackout, KindSiteCrash:
			// window-only events
		default:
			return fmt.Errorf("faults: event %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Empty reports whether the schedule carries no events.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// UpFactor returns the multiplier on site's uplink capacity at modeled
// time t: the product of active degrade factors, or 0 while a blackout
// or crash window is active.
func (s *Schedule) UpFactor(site int, t float64) float64 { return s.linkFactor(site, t) }

// DownFactor returns the multiplier on site's downlink capacity at
// modeled time t. Links degrade symmetrically in this model.
func (s *Schedule) DownFactor(site int, t float64) float64 { return s.linkFactor(site, t) }

func (s *Schedule) linkFactor(site int, t float64) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, e := range s.Events {
		if e.Site != site || !e.active(t) {
			continue
		}
		switch e.Kind {
		case KindLinkDegrade:
			f *= e.Factor
		case KindLinkBlackout, KindSiteCrash:
			return 0
		}
	}
	return f
}

// ComputeFactor returns the multiplier on site's compute time at
// modeled time t: the product of active straggler factors (≥ 1).
// Crash windows do not scale compute — SiteDown covers them.
func (s *Schedule) ComputeFactor(site int, t float64) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, e := range s.Events {
		if e.Kind == KindStraggler && e.Site == site && e.active(t) {
			f *= e.Factor
		}
	}
	return f
}

// SiteDown reports whether a crash window covers site at modeled time t.
func (s *Schedule) SiteDown(site int, t float64) bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Kind == KindSiteCrash && e.Site == site && e.active(t) {
			return true
		}
	}
	return false
}

// NextBoundary returns the earliest event Start or End strictly after
// modeled time `after`, and whether one exists. The fluid simulator
// steps its piecewise-constant capacity model on these boundaries.
func (s *Schedule) NextBoundary(after float64) (float64, bool) {
	if s == nil {
		return 0, false
	}
	best, ok := 0.0, false
	consider := func(t float64) {
		if t > after && (!ok || t < best) {
			best, ok = t, true
		}
	}
	for _, e := range s.Events {
		consider(e.Start)
		consider(e.End)
	}
	return best, ok
}
