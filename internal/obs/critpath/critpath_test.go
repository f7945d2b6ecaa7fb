package critpath

import (
	"strings"
	"testing"

	"bohr/internal/obs"
)

func modeledTrace() *obs.Span {
	return &obs.Span{Name: "bohr", Children: []*obs.Span{
		{Name: "prepare", Modeled: 3},
		{Name: "run", Modeled: 12.5, Children: []*obs.Span{
			{Name: "q00:scan", Modeled: 12.5, Children: []*obs.Span{
				{Name: "map", Modeled: 4, Children: []*obs.Span{
					{Name: "site-0", Modeled: 2.5},
					{Name: "site-1", Modeled: 4},
				}},
				{Name: "assign", Modeled: 0.5},
				{Name: "shuffle", Modeled: 6},
				{Name: "reduce", Modeled: 1.5, Children: []*obs.Span{
					{Name: "site-0", Modeled: 1.5},
					{Name: "site-1", Modeled: 0.2},
				}},
			}},
		}},
	}}
}

// wallOnly moves every span's modeled seconds to its wall seconds: the
// engine shape as a wall-clocked collector records it, which is what a
// serving daemon's flight recorder hands to Analyze.
func wallOnly(s *obs.Span) *obs.Span {
	out := &obs.Span{Name: s.Name, Wall: s.Modeled}
	for _, ch := range s.Children {
		out.Children = append(out.Children, wallOnly(ch))
	}
	return out
}

func TestAnalyzeModeled(t *testing.T) {
	snap := &obs.Snapshot{Counters: map[string]float64{
		"wan.shuffle.site-1->site-0.mb": 80,
		"wan.shuffle.site-0->site-1.mb": 20,
		"unrelated.counter":             999,
	}}
	for _, tc := range []struct {
		name  string
		trace *obs.Span
	}{
		{"modeled", modeledTrace()},
		{"wall-only", wallOnly(modeledTrace())},
	} {
		paths := Analyze(tc.trace, snap)
		if len(paths) != 1 {
			t.Fatalf("%s: paths = %d, want 1", tc.name, len(paths))
		}
		p := paths[0]
		if p.Query != "q00:scan" || p.QCT != 12.5 {
			t.Fatalf("%s: path header = %+v", tc.name, p)
		}
		wantNames := []string{
			"map@site-1", "assign", "shuffle site-1->site-0", "reduce@site-0", "other/coordination",
		}
		if len(p.Components) != len(wantNames) {
			t.Fatalf("%s: components = %+v", tc.name, p.Components)
		}
		for i, want := range wantNames {
			if p.Components[i].Name != want {
				t.Errorf("%s: component %d = %q, want %q", tc.name, i, p.Components[i].Name, want)
			}
		}
		// 4 + 0.5 + 6 + 1.5 = 12 explained, residual 0.5 → full coverage.
		if p.CoveragePct < 90 {
			t.Errorf("%s: coverage = %.1f%%, want ≥ 90%%", tc.name, p.CoveragePct)
		}
		if got := p.Components[2].PctQCT; got != 48 {
			t.Errorf("%s: shuffle pct = %v, want 48", tc.name, got)
		}
	}
}

func TestAnalyzeNil(t *testing.T) {
	if Analyze(nil, nil) != nil {
		t.Fatal("nil trace should yield nil")
	}
	if got := Analyze(&obs.Span{Name: "bohr"}, nil); len(got) != 0 {
		t.Fatalf("empty trace = %+v", got)
	}
}

func TestFormat(t *testing.T) {
	out := Format(Analyze(modeledTrace(), nil))
	if !strings.Contains(out, "q00:scan") || !strings.Contains(out, " -> ") {
		t.Fatalf("format output:\n%s", out)
	}
	if !strings.Contains(out, "map@site-1") {
		t.Fatalf("chain missing dominant site:\n%s", out)
	}
	if Format(nil) == "" {
		t.Fatal("empty format should explain itself")
	}
}
