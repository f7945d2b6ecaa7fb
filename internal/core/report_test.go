package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"bohr/internal/obs"
	"bohr/internal/obs/critpath"
	"bohr/internal/placement"
	"bohr/internal/workload"
)

func TestReportJSONRoundTrip(t *testing.T) {
	r := &Report{
		SchemaVersion: ReportSchemaVersion,
		Experiment:    "fig6",
		Scheme:        placement.Bohr.String(),
		Workload:      workload.TPCDS.String(),
		Rep:           2,
		Seed:          42,
		Prepare:       &PrepareReport{MovedMB: 12.5, MoveDuration: 3.25, CheckTime: 1.5, LPTime: 0.75, Moves: 4},
		Run: &RunReport{
			Scheme:                placement.Bohr,
			Queries:               []QueryReport{{Dataset: "d0", Query: "q0", QCT: 5.5, IntermediateMBPerSite: []float64{1, 2}, ShuffleMB: 3}},
			MeanQCT:               5.5,
			IntermediateMBPerSite: []float64{1, 2},
			TotalShuffleMB:        3,
		},
		DataReductionPct: []float64{10, -5},
		Resilience: &ResilienceReport{
			Retries:  3,
			Timeouts: 1,
			FaultEvents: []obs.Event{
				{T: 10, Kind: "crash", Site: 2, Detail: "end=20s"},
				{T: 40.5, Kind: "retry", Site: 1, Detail: "attempt=2"},
			},
		},
		Trace: &obs.Span{Name: "bohr", Children: []*obs.Span{
			{Name: "prepare", Modeled: 5.5, Children: []*obs.Span{{Name: "probes", Modeled: 1.5}}},
		}},
		Metrics: &obs.Snapshot{
			Counters:   map[string]float64{"lp.pivots": 12},
			Histograms: map[string]obs.HistogramStats{"h": {Count: 1, Sum: 2, Min: 2, Max: 2, P50: 2, P90: 2, P99: 2}},
		},
		CritPaths: []critpath.QueryPath{{
			Query: "q00:scan", QCT: 5.5, CoveragePct: 100,
			Components: []critpath.Component{
				{Stage: "map", Name: "map@site-1", Seconds: 2.5, PctQCT: 45.5},
				{Stage: "shuffle", Name: "shuffle site-1->site-0", Seconds: 3, PctQCT: 54.5},
			},
		}},
		Children: []*Report{{SchemaVersion: ReportSchemaVersion, Scheme: "Iridium"}},
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, r) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", r, &got)
	}
	// The scheme id inside RunReport must serialize by display name.
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	run := raw["run"].(map[string]any)
	if run["scheme"] != "Bohr" {
		t.Fatalf("scheme serialized as %v, want \"Bohr\"", run["scheme"])
	}
}

func TestSchemeIDJSON(t *testing.T) {
	for _, id := range placement.AllSchemes() {
		b, err := json.Marshal(id)
		if err != nil {
			t.Fatal(err)
		}
		var got placement.SchemeID
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got != id {
			t.Fatalf("%v round-tripped to %v", id, got)
		}
	}
	var bad placement.SchemeID
	if err := json.Unmarshal([]byte(`"NotAScheme"`), &bad); err == nil {
		t.Fatal("unknown scheme name should fail to decode")
	}
}

// TestRunOneShot exercises the core.Run convenience against the two-step
// System dance: same modeled outcome, plus a populated report document.
func TestRunOneShot(t *testing.T) {
	c, w := setup(t, workload.BigDataScan)
	col := obs.NewCollector()
	opts := placement.Options{Lag: 30, ProbeK: 30, Seed: 7, Obs: col}
	rep, err := Run(context.Background(), c.Clone(), w, placement.Bohr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != ReportSchemaVersion || rep.Scheme != "Bohr" {
		t.Fatalf("report header = %+v", rep)
	}
	if rep.Prepare == nil || rep.Run == nil {
		t.Fatal("one-shot report must carry both phase summaries")
	}
	if rep.Trace == nil || rep.Metrics == nil {
		t.Fatal("report with a collector must carry trace and metrics")
	}
	// The trace must expose the acceptance-criteria phases.
	for _, path := range [][]string{
		{"prepare", "probes"}, {"prepare", "lp"}, {"prepare", "move"}, {"run"},
	} {
		if rep.Trace.Find(path...) == nil {
			t.Fatalf("trace missing span %v", path)
		}
	}
	runSpan := rep.Trace.Find("run")
	if len(runSpan.Children) != len(w.Datasets) {
		t.Fatalf("run span has %d query children, want %d", len(runSpan.Children), len(w.Datasets))
	}
	for _, q := range runSpan.Children {
		for _, stage := range []string{"map", "shuffle", "reduce"} {
			if q.Find(stage) == nil {
				t.Fatalf("query span %q missing %s child", q.Name, stage)
			}
		}
	}
	if rep.Metrics.Counters["engine.records.moved"] <= 0 {
		t.Fatalf("metrics = %+v", rep.Metrics.Counters)
	}
	if rep.Metrics.Counters["lp.pivots"] <= 0 {
		t.Fatal("lp.pivots counter missing")
	}

	// Two-step form on the same snapshot, no collector: identical numbers.
	sys, err := New(c.Clone(), w, placement.Bohr, placement.Options{Lag: 30, ProbeK: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	run2, err := sys.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if run2.MeanQCT != rep.Run.MeanQCT {
		t.Fatalf("collector changed the modeled outcome: %v vs %v", run2.MeanQCT, rep.Run.MeanQCT)
	}
}
