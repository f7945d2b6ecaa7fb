package faults

import (
	"bohr/internal/stats"
)

// Random generates a reproducible schedule over `sites` sites and a
// modeled horizon of `horizon` seconds, with severity and event count
// scaled by intensity in [0, 1]. intensity 0 yields an empty schedule;
// intensity 1 degrades most links heavily, crashes roughly a third of
// the sites for up to a quarter of the horizon each, and makes half the
// sites stragglers. The same (seed, sites, intensity, horizon) always
// yields the same schedule — this is what the fault-sweep experiment
// sweeps.
func Random(seed int64, sites int, intensity, horizon float64) *Schedule {
	s := &Schedule{}
	if intensity <= 0 || sites <= 0 || horizon <= 0 {
		return s
	}
	if intensity > 1 {
		intensity = 1
	}
	rng := stats.NewRand(stats.Split(seed, 1))

	// window draws a fault window of at most maxLen seconds, fully
	// inside [0, horizon).
	window := func(maxLen float64) (start, end float64) {
		length := maxLen * (0.25 + 0.75*rng.Float64())
		if length > horizon {
			length = horizon
		}
		start = rng.Float64() * (horizon - length)
		return start, start + length
	}

	nDegrade := int(intensity*float64(sites) + 0.5)
	for i := 0; i < nDegrade; i++ {
		start, end := window(horizon / 2)
		// Heavier intensity pushes the floor of the factor toward 0.1.
		factor := 1 - intensity*(0.3+0.6*rng.Float64())
		if factor < 0.1 {
			factor = 0.1
		}
		s.Events = append(s.Events, Event{
			Kind: KindLinkDegrade, Site: rng.Intn(sites),
			Start: start, End: end, Factor: factor,
		})
	}

	nCrash := int(intensity*float64(sites)/3 + 0.5)
	for i := 0; i < nCrash; i++ {
		start, end := window(horizon / 4)
		s.Events = append(s.Events, Event{
			Kind: KindSiteCrash, Site: rng.Intn(sites),
			Start: start, End: end,
		})
	}

	nStraggle := int(intensity*float64(sites)/2 + 0.5)
	for i := 0; i < nStraggle; i++ {
		start, end := window(horizon)
		s.Events = append(s.Events, Event{
			Kind: KindStraggler, Site: rng.Intn(sites),
			Start: start, End: end, Factor: 1 + 3*intensity*rng.Float64(),
		})
	}
	return s
}
