package faults

import (
	"testing"

	"bohr/internal/wan"
)

func TestPlannerViewDemotesDeadSite(t *testing.T) {
	truth, err := wan.NewTopology(
		[]string{"a", "b", "c"},
		[]float64{100, 100, 100},
		[]float64{100, 100, 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	s := &Schedule{Events: []Event{
		{Kind: KindSiteCrash, Site: 1, Start: 0, End: 3600},
		{Kind: KindLinkDegrade, Site: 2, Start: 0, End: 3600, Factor: 0.5},
	}}
	view := PlannerView(truth, s, 30)
	if view.Sites[0].UpMBps != 100 {
		t.Errorf("healthy site capacity changed: %v", view.Sites[0].UpMBps)
	}
	if view.Sites[1].UpMBps > 1 {
		t.Errorf("dead site kept capacity %v, want epsilon", view.Sites[1].UpMBps)
	}
	if view.Sites[1].UpMBps <= 0 {
		t.Errorf("dead site capacity must stay positive for the LP, got %v", view.Sites[1].UpMBps)
	}
	got := view.Sites[2].UpMBps
	if got < 40 || got > 60 {
		t.Errorf("degraded site estimate %v, want ≈50", got)
	}
	// A schedule whose faults have all ended by planning time restores
	// the full view through smoothing.
	past := &Schedule{Events: []Event{{Kind: KindSiteCrash, Site: 1, Start: 0, End: 5}}}
	view2 := PlannerView(truth, past, 30)
	if view2.Sites[1].UpMBps < 99 {
		t.Errorf("recovered site still demoted: %v", view2.Sites[1].UpMBps)
	}
	// A degrade lifting mid-probing: rounds at t = 25..30 sample site 2 at
	// 50, 50, then 100 four times, smoothed as an EWMA with α = 0.3 from
	// the first sample.
	lifted := &Schedule{Events: []Event{{Kind: KindLinkDegrade, Site: 2, Start: 0, End: 27, Factor: 0.5}}}
	want := 50.0
	for _, sample := range []float64{50, 100, 100, 100, 100} {
		want = 0.3*sample + 0.7*want
	}
	if got := PlannerView(truth, lifted, 30).Sites[2]; got.UpMBps != want || got.DownMBps != want {
		t.Errorf("smoothed estimate %v/%v, want %v", got.UpMBps, got.DownMBps, want)
	}
	// Empty schedule: truth passes through.
	if PlannerView(truth, nil, 30) != truth {
		t.Error("nil schedule should return truth unchanged")
	}
}
