package faults

import (
	"bohr/internal/wan"
)

// deadSiteScale is the capacity multiplier applied to sites the planner
// decides are unreachable. The LP handles arbitrary positive
// capacities, so an epsilon link (rather than a removed site) keeps the
// formulation square while pushing essentially all data and tasks off
// the dead site.
const deadSiteScale = 1e-3

// probeRounds is how many bandwidth probing rounds, 1 s apart, the
// planner replays before planning; probeAlpha is the EWMA factor that
// smooths them (§7: bandwidth is relatively stable at the granularity of
// minutes, so the planner reads smoothed probes, not the instantaneous
// truth).
const (
	probeRounds = 6
	probeAlpha  = 0.3
)

// PlannerView builds the topology a fault-aware planner should hand to
// the LP at modeled planning time planT: it replays probeRounds bandwidth
// probing rounds (1 s apart, ending at planT) against the schedule —
// sites inside a crash or blackout window simply produce no sample,
// degraded links are observed at their scaled capacity — smooths each
// site's samples with an EWMA (the first sample as it is, then
// α·new + (1−α)·old), and then demotes sites that are down at planT to
// epsilon capacity so the LP re-solves around them. A site never heard
// from is one of those (for planT ≥ 0 the last round samples at planT),
// so it needs no rule of its own. Deterministic: no noise beyond the
// schedule itself. An empty schedule returns truth.
func PlannerView(truth *wan.Topology, s *Schedule, planT float64) *wan.Topology {
	if s.Empty() {
		return truth
	}
	out := &wan.Topology{Sites: append([]wan.Site(nil), truth.Sites...)}
	seen := make([]bool, truth.N())
	for r := 0; r < probeRounds; r++ {
		tm := planT - float64(probeRounds-1-r)
		if tm < 0 {
			tm = 0
		}
		for i, site := range truth.Sites {
			upF, downF := s.UpFactor(i, tm), s.DownFactor(i, tm)
			if s.SiteDown(i, tm) || upF <= 0 || downF <= 0 {
				continue // dropout: a dead site/link yields no sample
			}
			up, down := site.UpMBps*upF, site.DownMBps*downF
			if o := &out.Sites[i]; seen[i] {
				o.UpMBps = probeAlpha*up + (1-probeAlpha)*o.UpMBps
				o.DownMBps = probeAlpha*down + (1-probeAlpha)*o.DownMBps
			} else {
				o.UpMBps, o.DownMBps, seen[i] = up, down, true
			}
		}
	}
	for i := range out.Sites {
		if s.SiteDown(i, planT) || s.linkFactor(i, planT) <= 0 {
			out.Sites[i].UpMBps *= deadSiteScale
			out.Sites[i].DownMBps *= deadSiteScale
		}
	}
	return out
}
