package wan

import (
	"math"
	"testing"
)

// stubFaults is a hand-rolled LinkFaults for tests: one fault window
// per site with a capacity factor. (The real faults.Schedule satisfies
// the same interface but lives upstream of wan in the import DAG.)
type stubFaults struct {
	site       int
	start, end float64
	factor     float64
}

func (s stubFaults) factorAt(site int, t float64) float64 {
	if site == s.site && t >= s.start && t < s.end {
		return s.factor
	}
	return 1
}
func (s stubFaults) UpFactor(site int, t float64) float64   { return s.factorAt(site, t) }
func (s stubFaults) DownFactor(site int, t float64) float64 { return s.factorAt(site, t) }
func (s stubFaults) NextBoundary(after float64) (float64, bool) {
	if after < s.start {
		return s.start, true
	}
	if after < s.end {
		return s.end, true
	}
	return 0, false
}

func twoEqualSites(t *testing.T) *Topology {
	t.Helper()
	top, err := NewTopology([]string{"a", "b"}, []float64{10, 10}, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestEstimateFaultsHandComputed(t *testing.T) {
	top := twoEqualSites(t)
	tr := []Transfer{{Src: 0, Dst: 1, MB: 100}}
	// Clean: 100 MB / 10 MBps = 10 s, both with nil faults and with a
	// schedule whose window misses the transfer.
	if got := top.Estimate(tr, nil, 0); got != 10 {
		t.Fatalf("nil faults: %v, want 10", got)
	}
	miss := stubFaults{site: 0, start: 100, end: 200, factor: 0.5}
	if got := top.Estimate(tr, miss, 0); math.Abs(got-10) > 1e-9 {
		t.Fatalf("missed window: %v, want 10", got)
	}
	// Uplink at half speed for t ∈ [0, 10): drains 50 MB in the window,
	// the remaining 50 MB at full speed → 10 + 5 = 15 s.
	half := stubFaults{site: 0, start: 0, end: 10, factor: 0.5}
	if got := top.Estimate(tr, half, 0); math.Abs(got-15) > 1e-9 {
		t.Fatalf("half-speed window: %v, want 15", got)
	}
	// Blackout for t ∈ [2, 7): 2 s of progress, 5 s stalled, 8 s more →
	// finishes at 15, i.e. 15 s after start 0.
	dark := stubFaults{site: 0, start: 2, end: 7, factor: 0}
	if got := top.Estimate(tr, dark, 0); math.Abs(got-15) > 1e-9 {
		t.Fatalf("blackout window: %v, want 15", got)
	}
	// Same blackout but the transfer starts at t=7: no overlap, 10 s.
	if got := top.Estimate(tr, dark, 7); math.Abs(got-10) > 1e-9 {
		t.Fatalf("start after blackout: %v, want 10", got)
	}
}

func TestSimulateFaultsHandComputed(t *testing.T) {
	top := twoEqualSites(t)
	tr := []Transfer{{Src: 0, Dst: 1, MB: 100}}
	dark := stubFaults{site: 0, start: 2, end: 7, factor: 0}
	res := top.Simulate(tr, dark)
	if math.Abs(res.Makespan-15) > 1e-9 {
		t.Fatalf("blackout makespan %v, want 15", res.Makespan)
	}
	if math.Abs(res.Flows[0].Finish-15) > 1e-9 {
		t.Fatalf("flow finish %v, want 15", res.Flows[0].Finish)
	}
	// Nil faults must agree exactly with a schedule whose window misses.
	clean := top.Simulate(tr, nil)
	if got := top.Simulate(tr, stubFaults{site: 0, start: 100, end: 200, factor: 0.5}); got.Makespan != clean.Makespan {
		t.Fatalf("nil faults diverged: %v vs %v", clean.Makespan, got.Makespan)
	}
	// Two flows sharing site 0's uplink under a half-speed window
	// [0, 12): each gets 2.5 MBps while degraded, so the 25 MB flow
	// finishes at t=10 and the 75 MB flow has 50 MB left. It then owns
	// the whole degraded uplink (5 MBps) until the fault lifts at t=12
	// (40 MB left), and drains the rest at 10 MBps → done at t=16.
	trs := []Transfer{{Src: 0, Dst: 1, MB: 25}, {Src: 0, Dst: 1, MB: 75}}
	res2 := top.Simulate(trs, stubFaults{site: 0, start: 0, end: 12, factor: 0.5})
	if math.Abs(res2.Flows[0].Finish-10) > 1e-6 {
		t.Errorf("small flow finish %v, want 10", res2.Flows[0].Finish)
	}
	if math.Abs(res2.Makespan-16) > 1e-6 {
		t.Errorf("makespan %v, want 16", res2.Makespan)
	}
}
