package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"bohr/internal/core"
	"bohr/internal/placement"
	"bohr/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// oneReport runs a single scheme on a quick snapshot in report-collecting
// mode and returns its machine-readable report.
func oneReport(t *testing.T) *core.Report {
	t.Helper()
	s := QuickSetup()
	s.OpenRunTable()
	res, err := schemeRuns(workload.BigDataScan, false, 0, []placement.SchemeID{placement.Bohr}, s)
	if err != nil {
		t.Fatal(err)
	}
	s.file(res[0])
	reps := s.DrainReports()
	if len(reps) != 1 {
		t.Fatalf("drained %d reports, want 1", len(reps))
	}
	return reps[0]
}

// normalize zeroes every number in a decoded JSON tree, leaving keys and
// structure — the schema — intact. The golden file then pins the schema
// without being brittle to modeled-time calibration changes.
func normalize(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			x[k] = normalize(val)
		}
		return x
	case []any:
		for i, val := range x {
			x[i] = normalize(val)
		}
		return x
	case float64:
		return 0.0
	default:
		return v
	}
}

// TestReportSchemaGolden pins the bohrbench -json document schema: the
// exact key set of a per-scheme report (prepare/run summaries, phase-span
// trace, metric names) wrapped the way bohrbench wraps it. Regenerate with
// go test ./internal/experiments -run Golden -update
func TestReportSchemaGolden(t *testing.T) {
	doc := &core.Report{
		SchemaVersion: core.ReportSchemaVersion,
		Experiment:    "golden",
		Children:      []*core.Report{oneReport(t)},
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(normalize(tree), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "report_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("report schema drifted from golden file.\nIf the change is intentional, bump core.ReportSchemaVersion as needed and regenerate with -update.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestReportBytesDeterministic is the acceptance criterion that the JSON
// report is byte-identical across two runs with the same seed: spans carry
// modeled time only and map keys marshal sorted.
func TestReportBytesDeterministic(t *testing.T) {
	a, err := json.Marshal(oneReport(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(oneReport(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different report bytes:\n%s\n%s", a, b)
	}
}

// TestReportsOffByDefault checks a closed run table stays nil-cost:
// without OpenRunTable, a run attaches no collector and drains nothing.
func TestReportsOffByDefault(t *testing.T) {
	s := QuickSetup()
	res, err := schemeRuns(workload.BigDataScan, false, 0, []placement.SchemeID{placement.Bohr}, s)
	if err != nil {
		t.Fatal(err)
	}
	if s.file(res[0]).report != nil {
		t.Fatal("a run without OpenRunTable made a report")
	}
	if reps := s.DrainReports(); reps != nil {
		t.Fatalf("expected nil reports without OpenRunTable, got %d", len(reps))
	}
}
