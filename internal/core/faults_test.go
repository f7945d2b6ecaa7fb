package core

import (
	"context"

	"bytes"
	"encoding/json"
	"testing"

	"bohr/internal/faults"
	"bohr/internal/obs"
	"bohr/internal/placement"
	"bohr/internal/workload"
)

func faultyReport(t *testing.T) *Report {
	t.Helper()
	c, w := setup(t, workload.BigDataScan)
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindLinkDegrade, Site: 0, Start: 20, End: 120, Factor: 0.3},
		{Kind: faults.KindSiteCrash, Site: 3, Start: 10, End: 200},
		{Kind: faults.KindStraggler, Site: 1, Start: 30, End: 300, Factor: 2},
	}}
	opts := placement.Options{Seed: 42, Obs: obs.NewCollector(), Faults: sched}
	rep, err := Run(context.Background(), c, w, placement.Bohr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFaultyReportResilienceSection(t *testing.T) {
	rep := faultyReport(t)
	if rep.SchemaVersion != ReportSchemaVersion {
		t.Fatalf("schema version %d, want %d", rep.SchemaVersion, ReportSchemaVersion)
	}
	res := rep.Resilience
	if res == nil {
		t.Fatal("fault-injected run produced no resilience section")
	}
	if len(res.FaultEvents) != 3 {
		t.Fatalf("resilience carries %d fault events, want 3", len(res.FaultEvents))
	}
	if res.FaultEvents[0].Kind != "degrade" || res.FaultEvents[0].T != 20 {
		t.Errorf("first event = %+v, want degrade at t=20", res.FaultEvents[0])
	}
	if res.FaultEvents[1].Site != 3 || res.FaultEvents[1].Kind != "crash" {
		t.Errorf("second event = %+v, want crash at site 3", res.FaultEvents[1])
	}
	// Fault-free runs must NOT carry the section.
	c, w := setup(t, workload.BigDataScan)
	clean, err := Run(context.Background(), c, w, placement.Bohr, placement.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Resilience != nil {
		t.Error("fault-free run carries a resilience section")
	}
}

func TestFaultyReportBytesDeterministic(t *testing.T) {
	a, err := json.Marshal(faultyReport(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(faultyReport(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed + schedule produced different report bytes:\n%s\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"resilience"`)) || !bytes.Contains(a, []byte(`"fault_events"`)) {
		t.Fatal("report JSON missing resilience/fault_events keys")
	}
}

func TestFaultyRunSlowerThanClean(t *testing.T) {
	c, w := setup(t, workload.BigDataScan)
	cleanRep, err := Run(context.Background(), c.Clone(), w, placement.Bohr, placement.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindLinkBlackout, Site: 2, Start: 0, End: 300},
		{Kind: faults.KindStraggler, Site: 1, Start: 0, End: 300, Factor: 3},
	}}
	faultyRep, err := Run(context.Background(), c.Clone(), w, placement.Bohr, placement.Options{Seed: 42, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if faultyRep.Run.MeanQCT <= cleanRep.Run.MeanQCT {
		t.Fatalf("faulty mean QCT %v not slower than clean %v",
			faultyRep.Run.MeanQCT, cleanRep.Run.MeanQCT)
	}
}
