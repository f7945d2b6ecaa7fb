package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bohr/internal/faults"
	"bohr/internal/placement"
	"bohr/internal/workload"
)

func TestFaultSweepShape(t *testing.T) {
	s := QuickSetup()
	rows, err := FaultSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(FaultIntensities) {
		t.Fatalf("%d rows, want %d", len(rows), len(FaultIntensities))
	}
	for i, r := range rows {
		if r.Intensity != FaultIntensities[i] {
			t.Fatalf("row %d intensity %v, want %v", i, r.Intensity, FaultIntensities[i])
		}
		for _, scheme := range []string{"Iridium", "Iridium-C", "Bohr"} {
			if r.QCT[scheme] <= 0 {
				t.Fatalf("row %d missing %s QCT: %+v", i, scheme, r.QCT)
			}
		}
	}
	if rows[0].Events != 0 {
		t.Fatalf("zero intensity injected %d events", rows[0].Events)
	}
	if last := rows[len(rows)-1]; last.Events == 0 {
		t.Fatalf("max intensity injected no events")
	}
	// Faults cannot make Bohr faster than its own clean run.
	if rows[len(rows)-1].QCT["Bohr"] < rows[0].QCT["Bohr"] {
		t.Fatalf("QCT fell under max faults: clean %v, faulted %v",
			rows[0].QCT["Bohr"], rows[len(rows)-1].QCT["Bohr"])
	}
	out := FormatFaultSweep(rows, []string{"Iridium", "Iridium-C", "Bohr"})
	if !strings.Contains(out, "Fault sweep") || !strings.Contains(out, "Bohr") {
		t.Fatalf("formatter output:\n%s", out)
	}
}

// goldenFaults is the fixed schedule of TestFaultSweepGolden: a crash and
// a blackout inside the query window and a degrade over the movement
// window, so a faulted move, a faulted shuffle and the planner's probed
// view all reach the pinned numbers.
const goldenFaults = "crash:site=2,start=40,end=70;degrade:site=0,start=0,end=120,factor=0.3;blackout:site=4,start=1,end=3"

// TestFaultSweepGolden pins the WAN model's outputs at QuickSetup: for
// every report of FaultSweep, then of one Iridium-C and one Bohr run
// under goldenFaults, the volume moved, the modeled move duration and the
// mean QCT to the last bit. Regenerate with
// go test ./internal/experiments -run FaultSweepGolden -update
func TestFaultSweepGolden(t *testing.T) {
	s := QuickSetup()
	s.OpenRunTable()
	if _, err := FaultSweep(s); err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Parse(goldenFaults)
	if err != nil {
		t.Fatal(err)
	}
	sf := s
	sf.Faults = sched
	res, err := schemeRuns(workload.BigDataScan, false, 0, []placement.SchemeID{placement.IridiumC, placement.Bohr}, sf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		sf.file(r)
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for _, r := range s.DrainReports() {
		fmt.Fprintf(&b, "%s moved_mb=%s move_duration_s=%s mean_qct_s=%s\n",
			r.Scheme, g(r.Prepare.MovedMB), g(r.Prepare.MoveDuration), g(r.Run.MeanQCT))
	}
	got := []byte(b.String())

	golden := filepath.Join("testdata", "fault_sweep.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fault sweep drifted from the golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
