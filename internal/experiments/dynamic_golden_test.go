package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bohr/internal/placement"
)

// TestDynamicGolden pins the §8.6 arrival script's Bohr numbers at
// miniSetup: for every Table 7 workload, the per-arrival QCTs to the last
// bit and the replan count, under DefaultDynamicConfig with 16 arrivals
// (Table 7's configuration). It holds the forwarding rule (which records a
// batch sends, and where) and the replan cadence to exact values, which
// the shape tests' bands cannot. Regenerate with
// go test ./internal/experiments -run DynamicGolden -update
func TestDynamicGolden(t *testing.T) {
	s := miniSetup()
	var b strings.Builder
	for _, kind := range table7Kinds() {
		snap, err := s.snapshot(kind, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		empty, err := s.BuildCluster()
		if err != nil {
			t.Fatal(err)
		}
		dyn := DefaultDynamicConfig()
		dyn.Queries = 16
		rep, err := RunDynamic(context.Background(), empty, snap.workload, placement.Bohr, dyn, s.PlacementOptions(0))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%v replans=%d\n", kind, rep.Replans)
		for i, q := range rep.QCTs {
			fmt.Fprintf(&b, "  %2d %.17g\n", i, q)
		}
	}
	got := []byte(b.String())

	golden := filepath.Join("testdata", "dynamic.golden")
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
		t.Errorf("dynamic run drifted from the golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
