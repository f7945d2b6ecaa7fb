package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"bohr/internal/core"
	"bohr/internal/engine"
)

// TestSharedRunsMatchFresh is the run table's differential test. Every
// exhibit that makes scheme runs is run in bohrbench's order through one
// open table, and again alone on a fresh one: the text is byte-equal, and
// so is every filed report but for the layout memo's counters, which
// count derived state that earlier runs on a shared snapshot built.
// Figures 8, 9, 11 and 13 make no run once the figure they project has.
func TestSharedRunsMatchFresh(t *testing.T) {
	makers := map[string]bool{"fig6": true, "fig7": true, "fig8": true, "fig9": true, "fig10": true,
		"fig11": true, "fig12": true, "fig13": true, "faults": true, "tab7": true}
	projections := map[string]bool{"fig8": true, "fig9": true, "fig11": true, "fig13": true}
	shared := QuickSetup()
	shared.OpenRunTable()
	compared := 0
	for _, x := range Exhibits {
		if !makers[x.Name] {
			continue
		}
		compared++
		fresh := QuickSetup()
		fresh.OpenRunTable()
		made := schemeRunsMade.Load()
		want, err := x.Run(fresh)
		if err != nil {
			t.Fatalf("%s fresh: %v", x.Name, err)
		}
		if schemeRunsMade.Load() == made {
			t.Fatalf("%s made no scheme run on a fresh table", x.Name)
		}
		made = schemeRunsMade.Load()
		got, err := x.Run(shared)
		if err != nil {
			t.Fatalf("%s shared: %v", x.Name, err)
		}
		if n := schemeRunsMade.Load() - made; projections[x.Name] && n != 0 {
			t.Errorf("%s made %d scheme runs through the table, want 0", x.Name, n)
		}
		if got != want {
			t.Errorf("%s text differs.\nshared:\n%s\nfresh:\n%s", x.Name, got, want)
		}
		gotReps, wantReps := shared.DrainReports(), fresh.DrainReports()
		if len(gotReps) != len(wantReps) || len(wantReps) == 0 {
			t.Fatalf("%s filed %d shared reports, %d fresh", x.Name, len(gotReps), len(wantReps))
		}
		for i := range wantReps {
			if g, w := withoutLayoutCounters(t, gotReps[i]), withoutLayoutCounters(t, wantReps[i]); !bytes.Equal(g, w) {
				t.Errorf("%s report %d differs.\nshared:\n%s\nfresh:\n%s", x.Name, i, g, w)
			}
		}
	}
	if compared != len(makers) {
		t.Fatalf("compared %d exhibits, want %d", compared, len(makers))
	}
}

// withoutLayoutCounters is r's JSON without engine.layout.hits and
// engine.layout.misses; r itself is left as it is.
func withoutLayoutCounters(t *testing.T, r *core.Report) []byte {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	if m, ok := tree["metrics"].(map[string]any); ok {
		if c, ok := m["counters"].(map[string]any); ok {
			delete(c, engine.CounterLayoutHits)
			delete(c, engine.CounterLayoutMisses)
		}
	}
	out, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
