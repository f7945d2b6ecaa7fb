package wan

import (
	"fmt"
	"math"
)

// Transfer is one WAN flow: MB megabytes moving from Src to Dst.
// (The unit is MB throughout so that MB / MBps = seconds.)
type Transfer struct {
	Src, Dst SiteID
	MB       float64
}

// LinkFaults is the WAN models' view of a fault schedule: a
// piecewise-constant multiplier on each site's uplink and downlink
// capacity over modeled time, with NextBoundary exposing the instants
// where any multiplier changes. faults.Schedule satisfies it; wan
// deliberately does not import the faults package so the dependency
// points one way. A nil LinkFaults is the empty schedule: factor 1
// everywhere and no boundaries.
type LinkFaults interface {
	UpFactor(site int, t float64) float64
	DownFactor(site int, t float64) float64
	NextBoundary(after float64) (float64, bool)
}

// noFaults is what a nil LinkFaults reads as.
type noFaults struct{}

func (noFaults) UpFactor(int, float64) float64        { return 1 }
func (noFaults) DownFactor(int, float64) float64      { return 1 }
func (noFaults) NextBoundary(float64) (float64, bool) { return 0, false }

func orNoFaults(f LinkFaults) LinkFaults {
	if f == nil {
		return noFaults{}
	}
	return f
}

// Estimate computes the aggregate per-site transfer time under the
// placement model of §5: each site uploads the sum of its outgoing bytes
// through its uplink and downloads the sum of its incoming bytes through
// its downlink, independently, each link's capacity scaled by the
// schedule's piecewise-constant factors from modeled time start. The
// returned value is the makespan — the duration (seconds after start)
// until the last site's upload or download finishes. Without active
// faults this is exactly the quantity constraints (3)-(6) of the LP bound.
func (t *Topology) Estimate(transfers []Transfer, f LinkFaults, start float64) float64 {
	f = orNoFaults(f)
	upB := make([]float64, t.N())
	downB := make([]float64, t.N())
	for _, tr := range transfers {
		if tr.Src == tr.Dst || tr.MB <= 0 {
			continue
		}
		upB[tr.Src] += tr.MB
		downB[tr.Dst] += tr.MB
	}
	var makespan float64
	for i, s := range t.Sites {
		up := drainTime(upB[i], s.UpMBps, func(tm float64) float64 { return f.UpFactor(i, tm) }, f, start)
		down := drainTime(downB[i], s.DownMBps, func(tm float64) float64 { return f.DownFactor(i, tm) }, f, start)
		if up > makespan {
			makespan = up
		}
		if down > makespan {
			makespan = down
		}
	}
	return makespan
}

// drainTime integrates mb megabytes through a link whose rate is
// cap·factor(t), piecewise-constant between fault boundaries, starting
// at modeled time start. Returns the drain duration.
func drainTime(mb, cap float64, factor func(float64) float64, f LinkFaults, start float64) float64 {
	if mb <= 0 {
		return 0
	}
	// Elapsed accumulates separately from the absolute clock so that a
	// schedule with no active windows yields bit-identical arithmetic to
	// the plain mb/cap division.
	var elapsed float64
	now := start
	for {
		rate := cap * factor(now)
		b, ok := f.NextBoundary(now)
		if !ok {
			// No boundaries remain: the factor is constant forever. Fault
			// windows are finite, so a zero rate here means a malformed
			// schedule rather than a transient.
			if rate <= 0 {
				panic(fmt.Sprintf("wan: link permanently dead at t=%.3f with %.3f MB left", now, mb))
			}
			return elapsed + mb/rate
		}
		if rate > 0 {
			if dt := mb / rate; dt <= b-now {
				return elapsed + dt
			}
			mb -= rate * (b - now)
		}
		elapsed += b - now
		now = b
	}
}

// flow is the mutable state of one simulated transfer.
type flow struct {
	idx       int
	src, dst  SiteID
	remaining float64
	rate      float64
	frozen    bool // rate fixed during the current progressive-filling pass
	done      bool
}

// FlowResult reports the completion time of one simulated transfer.
type FlowResult struct {
	Transfer
	Finish float64 // seconds from simulation start
}

// SimResult is the outcome of a fluid simulation.
type SimResult struct {
	Flows    []FlowResult
	Makespan float64
}

// Simulate runs the transfer set, starting at modeled time 0, to
// completion under max-min fair sharing of the per-site uplink and
// downlink capacities (a fluid model: rates are recomputed by progressive
// filling at every flow completion and every fault boundary, with
// capacities scaled by the schedule's factors at the current time). It
// returns per-flow completion times and the makespan.
//
// The fluid model reflects how parallel flows actually share access
// links, and is never faster than Estimate's per-link aggregate bound.
func (t *Topology) Simulate(transfers []Transfer, f LinkFaults) SimResult {
	f = orNoFaults(f)
	flows := make([]*flow, 0, len(transfers))
	results := make([]FlowResult, len(transfers))
	for i, tr := range transfers {
		results[i] = FlowResult{Transfer: tr}
		if tr.Src == tr.Dst || tr.MB <= 0 {
			continue // local or empty: completes instantly
		}
		flows = append(flows, &flow{idx: i, src: tr.Src, dst: tr.Dst, remaining: tr.MB})
	}

	n := t.N()
	upCap := make([]float64, n)
	downCap := make([]float64, n)
	now := 0.0
	active := len(flows)
	for active > 0 {
		for i, s := range t.Sites {
			upCap[i] = s.UpMBps * f.UpFactor(i, now)
			downCap[i] = s.DownMBps * f.DownFactor(i, now)
		}
		fillRates(flows, upCap, downCap)
		// Earliest completion among active flows.
		next := math.Inf(1)
		for _, fl := range flows {
			if fl.done || fl.rate <= 0 {
				continue
			}
			if dt := fl.remaining / fl.rate; dt < next {
				next = dt
			}
		}
		b, haveB := f.NextBoundary(now)
		if math.IsInf(next, 1) {
			// Every remaining flow is blacked out; jump to the next fault
			// boundary and retry. No boundary left means a permanent outage.
			if !haveB {
				panic(fmt.Sprintf("wan: fluid simulation stalled at t=%.3f with %d active flows", now, active))
			}
			now = b
			continue
		}
		step := next
		if haveB && b-now < step {
			step = b - now
		}
		for _, fl := range flows {
			if fl.done {
				continue
			}
			fl.remaining -= fl.rate * step
			if fl.remaining <= 1e-9 {
				fl.remaining = 0
				fl.done = true
				active--
				results[fl.idx].Finish = now + step
			}
		}
		now += step
	}
	return SimResult{Flows: results, Makespan: now}
}

// fillRates assigns max-min fair rates to active flows via progressive
// filling: repeatedly find the most contended link (smallest per-flow fair
// share), freeze its flows at that share, subtract the frozen rates from
// link capacities, and repeat until every flow is frozen. Capacities are
// consumed (mutated) during filling. A zero capacity leaves its flows at
// rate 0.
func fillRates(flows []*flow, upCap, downCap []float64) {
	n := len(upCap)
	unfrozen := 0
	for _, f := range flows {
		f.frozen = f.done
		f.rate = 0
		if !f.done {
			unfrozen++
		}
	}
	upCnt := make([]int, n)
	downCnt := make([]int, n)
	for unfrozen > 0 {
		for i := 0; i < n; i++ {
			upCnt[i], downCnt[i] = 0, 0
		}
		for _, f := range flows {
			if f.frozen {
				continue
			}
			upCnt[f.src]++
			downCnt[f.dst]++
		}
		// Smallest fair share over all loaded links.
		share := math.Inf(1)
		for i := 0; i < n; i++ {
			if upCnt[i] > 0 {
				if s := upCap[i] / float64(upCnt[i]); s < share {
					share = s
				}
			}
			if downCnt[i] > 0 {
				if s := downCap[i] / float64(downCnt[i]); s < share {
					share = s
				}
			}
		}
		if math.IsInf(share, 1) {
			break
		}
		// Freeze flows crossing any link saturated at this share.
		for _, f := range flows {
			if f.frozen {
				continue
			}
			srcSat := upCap[f.src]/float64(upCnt[f.src]) <= share+1e-12
			dstSat := downCap[f.dst]/float64(downCnt[f.dst]) <= share+1e-12
			if srcSat || dstSat {
				f.rate = share
				f.frozen = true
				unfrozen--
				upCap[f.src] -= share
				downCap[f.dst] -= share
			}
		}
	}
}
