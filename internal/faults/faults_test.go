package faults

import (
	"encoding/json"
	"math"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "blackout:site=1,start=10,end=20;crash:site=2,start=40,end=70;degrade:site=0,start=30,end=90,factor=0.25;straggler:site=4,start=5,end=95,factor=2.5"
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(s.Events))
	}
	if got := s.String(); got != spec {
		t.Errorf("round trip drifted:\n got %s\nwant %s", got, spec)
	}
	// Whitespace tolerance and empty segments.
	s2, err := Parse(" crash: site=1 , start=1 , end=2 ; ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Events) != 1 || s2.Events[0].Kind != KindSiteCrash {
		t.Fatalf("whitespace parse: %+v", s2.Events)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"meltdown:site=0,start=0,end=1",             // unknown kind
		"crash site=0",                              // missing colon
		"crash:site",                                // missing '='
		"crash:site=0,start=5,end=5",                // empty window
		"crash:site=0,start=-1,end=5",               // negative start
		"crash:site=-1,start=0,end=5",               // negative site
		"degrade:site=0,start=0,end=1,factor=0",     // zero degrade factor
		"degrade:site=0,start=0,end=1,factor=2",     // factor > 1
		"straggler:site=0,start=0,end=1,factor=0.5", // speedup straggler
		"drop:site=0,start=0,end=1,prob=0.5",        // unknown kind
		"delay:site=0,start=0,end=1,delay_ms=20",    // unknown kind
		"crash:site=0,start=0,end=1,frob=2",         // unknown field
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := KindLinkDegrade; k <= KindStraggler; k++ {
		raw, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v", k, back)
		}
	}
	var bad Kind
	if err := json.Unmarshal([]byte(`"meltdown"`), &bad); err == nil {
		t.Error("unknown kind name unmarshalled without error")
	}
}

func TestScheduleFactors(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindLinkDegrade, Site: 0, Start: 10, End: 20, Factor: 0.5},
		{Kind: KindLinkDegrade, Site: 0, Start: 15, End: 30, Factor: 0.4},
		{Kind: KindLinkBlackout, Site: 1, Start: 5, End: 8},
		{Kind: KindSiteCrash, Site: 2, Start: 50, End: 60},
		{Kind: KindStraggler, Site: 3, Start: 0, End: 100, Factor: 3},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Overlapping degrades multiply; windows are half-open [Start, End).
	if got := s.UpFactor(0, 17); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("UpFactor(0,17) = %v, want 0.2", got)
	}
	if got := s.UpFactor(0, 10); got != 0.5 {
		t.Errorf("UpFactor(0,10) = %v, want 0.5 (start inclusive)", got)
	}
	if got := s.UpFactor(0, 20); got != 0.4 {
		t.Errorf("UpFactor(0,20) = %v, want 0.4 (end exclusive)", got)
	}
	if got := s.DownFactor(1, 6); got != 0 {
		t.Errorf("blackout DownFactor = %v, want 0", got)
	}
	if s.SiteDown(1, 6) {
		t.Error("blackout reported as SiteDown; only crashes take the site down")
	}
	if !s.SiteDown(2, 55) || s.SiteDown(2, 60) {
		t.Error("crash window membership wrong")
	}
	if got := s.UpFactor(2, 55); got != 0 {
		t.Errorf("crashed site UpFactor = %v, want 0", got)
	}
	if got := s.ComputeFactor(3, 50); got != 3 {
		t.Errorf("ComputeFactor = %v, want 3", got)
	}
	if got := s.ComputeFactor(2, 55); got != 1 {
		t.Errorf("crash must not scale compute, got %v", got)
	}
	// Nil schedule is a no-op.
	var nils *Schedule
	if nils.UpFactor(0, 0) != 1 || nils.SiteDown(0, 0) || nils.ComputeFactor(0, 0) != 1 {
		t.Error("nil schedule not a clean no-op")
	}
}

func TestNextBoundary(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindSiteCrash, Site: 0, Start: 10, End: 20},
		{Kind: KindLinkDegrade, Site: 1, Start: 15, End: 40, Factor: 0.5},
	}}
	want := []float64{10, 15, 20, 40}
	at := -1.0
	for _, w := range want {
		b, ok := s.NextBoundary(at)
		if !ok || b != w {
			t.Fatalf("NextBoundary(%v) = %v,%v, want %v", at, b, ok, w)
		}
		at = b
	}
	if _, ok := s.NextBoundary(40); ok {
		t.Error("boundary past the last event")
	}
	if _, ok := (*Schedule)(nil).NextBoundary(0); ok {
		t.Error("nil schedule has boundaries")
	}
}

func TestRandomDeterministicAndScaled(t *testing.T) {
	a := Random(7, 10, 0.5, 100)
	b := Random(7, 10, 0.5, 100)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("same seed produced different schedules")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Empty() {
		t.Fatal("intensity 0.5 over 10 sites produced no events")
	}
	for i, e := range a.Events {
		if e.Start < 0 || e.End > 100 {
			t.Errorf("event %d window [%v,%v) escapes horizon", i, e.Start, e.End)
		}
		if e.Site < 0 || e.Site >= 10 {
			t.Errorf("event %d site %d out of range", i, e.Site)
		}
	}
	if !Random(7, 10, 0, 100).Empty() {
		t.Error("intensity 0 should be empty")
	}
	if len(Random(7, 10, 1, 100).Events) <= len(a.Events) {
		t.Error("intensity 1 should carry more events than 0.5")
	}
	if c := Random(8, 10, 0.5, 100); c.String() == a.String() {
		t.Error("different seeds produced identical schedules")
	}
}
