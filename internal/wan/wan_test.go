package wan

import (
	"math"
	"testing"
	"testing/quick"

	"bohr/internal/stats"
)

func twoSites(t *testing.T) *Topology {
	t.Helper()
	top, err := NewTopology([]string{"a", "b"}, []float64{10, 20}, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology([]string{"a"}, []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths should error")
	}
	if _, err := NewTopology([]string{"a"}, []float64{0}, []float64{1}); err == nil {
		t.Fatal("zero capacity should error")
	}
	if _, err := NewTopology([]string{"a"}, []float64{1}, []float64{-1}); err == nil {
		t.Fatal("negative capacity should error")
	}
}

func TestTopologyAccessors(t *testing.T) {
	top := twoSites(t)
	if top.N() != 2 {
		t.Fatalf("N = %d", top.N())
	}
	if s := top.Site(1); s.Name != "b" || s.UpMBps != 20 {
		t.Fatalf("Site(1) = %+v", s)
	}
	if _, ok := top.ByName("a"); !ok {
		t.Fatal("ByName(a) should exist")
	}
	if _, ok := top.ByName("zzz"); ok {
		t.Fatal("ByName(zzz) should not exist")
	}
	up, down := top.Uplinks(), top.Downlinks()
	if up[0] != 10 || up[1] != 20 || down[0] != 10 || down[1] != 20 {
		t.Fatalf("uplinks %v downlinks %v", up, down)
	}
}

func TestEC2TenRegionsRatios(t *testing.T) {
	top := EC2TenRegions(20)
	if top.N() != 10 {
		t.Fatalf("want 10 regions, got %d", top.N())
	}
	sg, _ := top.ByName("Singapore")
	va, _ := top.ByName("Virginia")
	ld, _ := top.ByName("London")
	if sg.UpMBps/ld.UpMBps != 5 {
		t.Fatalf("Singapore/London ratio = %v, want 5", sg.UpMBps/ld.UpMBps)
	}
	if sg.UpMBps/va.UpMBps != 2.5 {
		t.Fatalf("Singapore/Virginia ratio = %v, want 2.5", sg.UpMBps/va.UpMBps)
	}
	// Defaults on non-positive base.
	if d := EC2TenRegions(0); d.Sites[0].UpMBps <= 0 {
		t.Fatal("default base should give positive capacity")
	}
}

func TestEstimateSingleFlow(t *testing.T) {
	top := twoSites(t)
	// 100 MB from a (10 MBps up) to b (20 MBps down): bound by uplink, 10 s.
	got := top.Estimate([]Transfer{{Src: 0, Dst: 1, MB: 100}}, nil, 0)
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("Estimate = %v, want 10", got)
	}
}

func TestEstimateIgnoresLocalAndEmpty(t *testing.T) {
	top := twoSites(t)
	got := top.Estimate([]Transfer{
		{Src: 0, Dst: 0, MB: 1000},
		{Src: 0, Dst: 1, MB: 0},
		{Src: 0, Dst: 1, MB: -5},
	}, nil, 0)
	if got != 0 {
		t.Fatalf("Estimate = %v, want 0", got)
	}
}

func TestSimulateSingleFlowMatchesEstimate(t *testing.T) {
	top := twoSites(t)
	tr := []Transfer{{Src: 0, Dst: 1, MB: 100}}
	res := top.Simulate(tr, nil)
	if math.Abs(res.Makespan-top.Estimate(tr, nil, 0)) > 1e-6 {
		t.Fatalf("simulate %v != estimate %v", res.Makespan, top.Estimate(tr, nil, 0))
	}
	if math.Abs(res.Flows[0].Finish-10) > 1e-6 {
		t.Fatalf("flow finish = %v", res.Flows[0].Finish)
	}
}

func TestSimulateFairSharing(t *testing.T) {
	top := twoSites(t)
	// Two flows share a's 10 MBps uplink; each gets 5 MBps; both need 50 MB.
	res := top.Simulate([]Transfer{
		{Src: 0, Dst: 1, MB: 50},
		{Src: 0, Dst: 1, MB: 50},
	}, nil)
	if math.Abs(res.Makespan-10) > 1e-6 {
		t.Fatalf("makespan = %v, want 10", res.Makespan)
	}
}

func TestSimulateRateReallocation(t *testing.T) {
	top := twoSites(t)
	// Flows of 25 MB and 75 MB share the 10 MBps uplink. First 25 MB flow
	// finishes at t=5 (5 MBps each); then the big flow gets the full 10
	// MBps for its remaining 50 MB: finish at 5 + 5 = 10.
	res := top.Simulate([]Transfer{
		{Src: 0, Dst: 1, MB: 25},
		{Src: 0, Dst: 1, MB: 75},
	}, nil)
	if math.Abs(res.Flows[0].Finish-5) > 1e-6 {
		t.Fatalf("small flow finish = %v, want 5", res.Flows[0].Finish)
	}
	if math.Abs(res.Flows[1].Finish-10) > 1e-6 {
		t.Fatalf("big flow finish = %v, want 10", res.Flows[1].Finish)
	}
}

func TestSimulateDownlinkBottleneck(t *testing.T) {
	top, err := NewTopology([]string{"a", "b", "c"},
		[]float64{100, 100, 100}, []float64{100, 100, 5})
	if err != nil {
		t.Fatal(err)
	}
	// Two fast sources converge on c's 5 MBps downlink: 2.5 MBps each.
	res := top.Simulate([]Transfer{
		{Src: 0, Dst: 2, MB: 25},
		{Src: 1, Dst: 2, MB: 25},
	}, nil)
	if math.Abs(res.Makespan-10) > 1e-6 {
		t.Fatalf("makespan = %v, want 10", res.Makespan)
	}
}

func TestSimulateNeverBeatsEstimate(t *testing.T) {
	top := EC2TenRegions(20)
	rng := stats.NewRand(11)
	for trial := 0; trial < 25; trial++ {
		var trs []Transfer
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			trs = append(trs, Transfer{
				Src: SiteID(rng.Intn(10)),
				Dst: SiteID(rng.Intn(10)),
				MB:  rng.Float64() * 500,
			})
		}
		est := top.Estimate(trs, nil, 0)
		sim := top.Simulate(trs, nil).Makespan
		if sim < est-1e-6 {
			t.Fatalf("trial %d: simulate %v beat the per-link bound %v", trial, sim, est)
		}
	}
}

func TestSimulateEmptyAndLocal(t *testing.T) {
	top := twoSites(t)
	res := top.Simulate(nil, nil)
	if res.Makespan != 0 {
		t.Fatalf("empty makespan = %v", res.Makespan)
	}
	res = top.Simulate([]Transfer{{Src: 1, Dst: 1, MB: 99}}, nil)
	if res.Makespan != 0 || res.Flows[0].Finish != 0 {
		t.Fatalf("local flow should complete instantly: %+v", res)
	}
}

// Property: the fluid makespan conserves work — total bytes delivered over
// the makespan can't exceed aggregate uplink capacity, so makespan ≥
// totalBytes / sum(uplinks).
func TestSimulateWorkConservationProperty(t *testing.T) {
	top := EC2TenRegions(10)
	totalUp := stats.Sum(top.Uplinks())
	f := func(seed int64, nRaw uint8) bool {
		rng := stats.NewRand(seed)
		n := int(nRaw%20) + 1
		var trs []Transfer
		var total float64
		for i := 0; i < n; i++ {
			src := SiteID(rng.Intn(10))
			dst := SiteID(rng.Intn(10))
			mb := 1 + rng.Float64()*200
			if src != dst {
				total += mb
			}
			trs = append(trs, Transfer{Src: src, Dst: dst, MB: mb})
		}
		mk := top.Simulate(trs, nil).Makespan
		return mk >= total/totalUp-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimulateShuffle100Flows(b *testing.B) {
	top := EC2TenRegions(20)
	rng := stats.NewRand(1)
	var trs []Transfer
	for i := 0; i < 100; i++ {
		trs = append(trs, Transfer{
			Src: SiteID(rng.Intn(10)), Dst: SiteID(rng.Intn(10)), MB: 1 + rng.Float64()*100,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top.Simulate(trs, nil)
	}
}
