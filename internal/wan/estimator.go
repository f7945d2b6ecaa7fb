package wan

import (
	"fmt"
	"sync"
)

// BandwidthEstimator tracks the available bandwidth of every site the way
// the Bohr prototype does (§7): it periodically observes noisy samples of
// each link and smooths them, assuming bandwidth is relatively stable at
// the granularity of minutes. The placement planner consumes the smoothed
// values rather than the instantaneous truth.
type BandwidthEstimator struct {
	mu    sync.Mutex
	alpha float64 // EWMA smoothing factor in (0, 1]
	up    []float64
	down  []float64
	seen  []bool
	// round counts probing rounds (BeginRound calls); lastRound records
	// the round of each site's latest sample so the planner can spot
	// sites that stopped reporting.
	round     int
	lastRound []int
}

// NewBandwidthEstimator creates an estimator for n sites with EWMA factor
// alpha. alpha=1 means "trust only the latest sample"; small alpha smooths
// aggressively.
func NewBandwidthEstimator(n int, alpha float64) (*BandwidthEstimator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wan: estimator needs at least one site, got %d", n)
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("wan: EWMA alpha must be in (0,1], got %v", alpha)
	}
	e := &BandwidthEstimator{
		alpha:     alpha,
		up:        make([]float64, n),
		down:      make([]float64, n),
		seen:      make([]bool, n),
		lastRound: make([]int, n),
	}
	for i := range e.lastRound {
		e.lastRound[i] = -1
	}
	return e, nil
}

// BeginRound marks the start of one probing round. Observations that
// follow are stamped with this round for staleness accounting.
func (e *BandwidthEstimator) BeginRound() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.round++
}

// Observe folds one bandwidth measurement for a site into the estimate.
func (e *BandwidthEstimator) Observe(site SiteID, upMBps, downMBps float64) error {
	if int(site) < 0 || int(site) >= len(e.up) {
		return fmt.Errorf("wan: observe: site %d out of range [0,%d)", site, len(e.up))
	}
	if upMBps <= 0 || downMBps <= 0 {
		return fmt.Errorf("wan: observe: non-positive sample for site %d", site)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastRound[site] = e.round
	if !e.seen[site] {
		e.up[site], e.down[site] = upMBps, downMBps
		e.seen[site] = true
		return nil
	}
	e.up[site] = e.alpha*upMBps + (1-e.alpha)*e.up[site]
	e.down[site] = e.alpha*downMBps + (1-e.alpha)*e.down[site]
	return nil
}

// Staleness returns how many rounds have passed since the site's last
// sample (0 = observed this round). ok is false if the site has never
// been observed or is out of range.
func (e *BandwidthEstimator) Staleness(site SiteID) (rounds int, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if int(site) < 0 || int(site) >= len(e.lastRound) || e.lastRound[site] < 0 {
		return 0, false
	}
	return e.round - e.lastRound[site], true
}

// StaleSites lists sites whose latest sample is older than maxAge
// rounds — including sites never observed at all. These are the sites a
// degraded-mode planner should treat as unreachable.
func (e *BandwidthEstimator) StaleSites(maxAge int) []SiteID {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []SiteID
	for i := range e.lastRound {
		if e.lastRound[i] < 0 || e.round-e.lastRound[i] > maxAge {
			out = append(out, SiteID(i))
		}
	}
	return out
}

// Estimate returns the current smoothed estimate for a site. ok is false
// if the site has never been observed.
func (e *BandwidthEstimator) Estimate(site SiteID) (upMBps, downMBps float64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if int(site) < 0 || int(site) >= len(e.up) || !e.seen[site] {
		return 0, 0, false
	}
	return e.up[site], e.down[site], true
}

// Snapshot builds a Topology from the current estimates, falling back to
// the provided truth for never-observed sites. This is what the planner
// hands to the LP.
func (e *BandwidthEstimator) Snapshot(truth *Topology) *Topology {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := &Topology{Sites: make([]Site, truth.N())}
	for i, s := range truth.Sites {
		out.Sites[i] = s
		if i < len(e.seen) && e.seen[i] {
			out.Sites[i].UpMBps = e.up[i]
			out.Sites[i].DownMBps = e.down[i]
		}
	}
	return out
}
