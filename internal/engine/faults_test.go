package engine

import (
	"context"
	"testing"

	"bohr/internal/faults"
)

func TestRunWithFaultsSlowsAndStaysDeterministic(t *testing.T) {
	mk := func() *Cluster {
		c := testCluster(t)
		loadSkewed(c, "logs", 5)
		return c
	}
	clean, err := mk().Run(context.Background(), JobConfig{Query: ScanQuery("q", "logs")})
	if err != nil {
		t.Fatal(err)
	}
	// A straggler on the fast site plus a heavy degrade on the slow
	// site's links, covering the whole execution window.
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindStraggler, Site: 2, Start: 0, End: 1e4, Factor: 4},
		{Kind: faults.KindLinkDegrade, Site: 0, Start: 0, End: 1e4, Factor: 0.2},
	}}
	run := func() *RunResult {
		res, err := mk().Run(context.Background(), JobConfig{Query: ScanQuery("q", "logs"), Faults: sched})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	faulty := run()
	if faulty.QCT <= clean.QCT {
		t.Fatalf("faulty QCT %v not slower than clean %v", faulty.QCT, clean.QCT)
	}
	if faulty.Output() == nil || len(faulty.Output()) != len(clean.Output()) {
		t.Fatalf("faults changed query OUTPUT: %d vs %d records", len(faulty.Output()), len(clean.Output()))
	}
	if again := run(); again.QCT != faulty.QCT {
		t.Fatalf("same schedule produced different QCT: %v vs %v", again.QCT, faulty.QCT)
	}
	// A schedule whose windows all precede FaultClock leaves the run at
	// the clean QCT: events are applied in modeled time, not blindly.
	past := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindLinkBlackout, Site: 0, Start: 0, End: 30},
	}}
	res, err := mk().Run(context.Background(), JobConfig{Query: ScanQuery("q", "logs"), Faults: past, FaultClock: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.QCT != clean.QCT {
		t.Fatalf("expired schedule changed QCT: %v vs clean %v", res.QCT, clean.QCT)
	}
}

func TestRunConcurrentBlackoutStallsSharedShuffle(t *testing.T) {
	c := testCluster(t)
	loadSkewed(c, "logs", 5)
	clean, err := c.Clone().Run(context.Background(), JobConfig{Query: ScanQuery("q", "logs")})
	if err != nil {
		t.Fatal(err)
	}
	// Site 0's links black out for 50 s starting right when the query
	// does: every cross-site flow touching site 0 stalls until t=50, so
	// QCT grows by at least the part of the blackout the shuffle sits
	// through.
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindLinkBlackout, Site: 0, Start: 0, End: 50},
	}}
	faulty, err := c.Clone().Run(context.Background(), JobConfig{Query: ScanQuery("q", "logs"), Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.QCT <= clean.QCT+10 {
		t.Fatalf("blackout barely moved QCT: clean %v, faulty %v", clean.QCT, faulty.QCT)
	}
}
