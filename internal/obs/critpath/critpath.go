// Package critpath reduces a run report's span tree and WAN flow metrics
// to the dominant QCT chain per query — which site's map, which WAN link,
// which reducer actually set the completion time. This is the question
// the paper's whole evaluation decomposes (§7: WAN transfer on the
// bottleneck link vs. compute), asked of a finished report instead of a
// spreadsheet.
//
// It reads the engine's trace shape: query spans "qNN:name" with
// sequential map / assign / shuffle / reduce stage children, per-site
// children under map and reduce. Durations prefer modeled seconds and
// fall back to wall seconds, so the same analysis runs on deterministic
// reports and on the wall-clocked traces of a serving daemon's flight
// recorder.
package critpath

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"bohr/internal/obs"
)

// Component is one hop of a query's critical-path chain.
type Component struct {
	// Stage is the canonical stage ("map", "assign", "shuffle", "reduce",
	// "other").
	Stage string `json:"stage"`
	// Name locates the hop: "map@Tokyo", "shuffle site-2->site-0".
	Name string `json:"name"`
	// Seconds is the hop's time on the query's critical path.
	Seconds float64 `json:"seconds"`
	// PctQCT is Seconds as a percentage of the query's QCT.
	PctQCT float64 `json:"pct_qct"`
}

// QueryPath is one query's critical-path decomposition.
type QueryPath struct {
	Query string `json:"query"`
	// QCT is the query completion time in seconds (modeled or wall,
	// whichever the trace carries).
	QCT        float64     `json:"qct_s"`
	Components []Component `json:"components"`
	// CoveragePct is how much of QCT the chain explains (∑ components).
	CoveragePct float64 `json:"coverage_pct"`
}

var modeledQuery = regexp.MustCompile(`^q\d+:`)

// dur is a span's duration: modeled seconds when recorded, else wall.
func dur(s *obs.Span) float64 {
	if s == nil {
		return 0
	}
	if s.Modeled > 0 {
		return s.Modeled
	}
	return s.Wall
}

// Analyze walks the trace and emits one QueryPath per query span, in
// trace order. Deterministic for a deterministic trace and metrics
// snapshot. Either argument may be nil.
func Analyze(trace *obs.Span, metrics *obs.Snapshot) []QueryPath {
	if trace == nil {
		return nil
	}
	var spans []*obs.Span
	collectQueries(trace, &spans)
	var out []QueryPath
	for _, q := range spans {
		out = append(out, analyzeQuery(q, metrics))
	}
	return out
}

func collectQueries(s *obs.Span, out *[]*obs.Span) {
	if modeledQuery.MatchString(s.Name) {
		*out = append(*out, s)
		return
	}
	for _, ch := range s.Children {
		collectQueries(ch, out)
	}
}

func analyzeQuery(q *obs.Span, metrics *obs.Snapshot) QueryPath {
	comps := stageComponents(q, metrics)
	qct := dur(q)
	var sum float64
	for _, c := range comps {
		sum += c.Seconds
	}
	if qct == 0 {
		qct = sum
	}
	// Time the stage chain does not explain (coordination, merge, the
	// modeled ExtraQCT overhead) becomes an explicit residual hop when it
	// is more than noise, so coverage stays honest.
	if rem := qct - sum; qct > 0 && rem > 0.01*qct {
		comps = append(comps, Component{Stage: "other", Name: "other/coordination", Seconds: rem})
		sum += rem
	}
	p := QueryPath{Query: q.Name, QCT: qct, Components: comps}
	if qct > 0 {
		for i := range p.Components {
			p.Components[i].PctQCT = 100 * p.Components[i].Seconds / qct
		}
		p.CoveragePct = 100 * sum / qct
	}
	return p
}

// stageComponents reads the engine shape: sequential stage children,
// whose per-site children (when present) name the slowest site.
func stageComponents(q *obs.Span, metrics *obs.Snapshot) []Component {
	var comps []Component
	for _, stage := range []string{"map", "assign", "shuffle", "reduce"} {
		st := q.Find(stage)
		d := dur(st)
		if d <= 0 {
			continue
		}
		name := stage
		switch stage {
		case "map", "reduce":
			if site := dominantChild(st); site != nil {
				name = stage + "@" + site.Name
			}
		case "shuffle":
			if link := dominantLink(metrics, "wan.shuffle.", ".mb"); link != "" {
				name = "shuffle " + link
			}
		}
		comps = append(comps, Component{Stage: stage, Name: name, Seconds: d})
	}
	return comps
}

// dominantChild returns the longest-running child (ties keep the first),
// nil when the span has none.
func dominantChild(s *obs.Span) *obs.Span {
	if s == nil {
		return nil
	}
	var best *obs.Span
	for _, ch := range s.Children {
		if best == nil || dur(ch) > dur(best) {
			best = ch
		}
	}
	return best
}

// dominantLink scans the metric counters matching prefix+link+suffix
// (e.g. "wan.shuffle.Tokyo->Oregon.mb") and returns the heaviest link,
// "" when none exist. Counters aggregate over the whole run, so with
// concurrent queries the attribution is the run's dominant link, not
// necessarily this query's.
func dominantLink(metrics *obs.Snapshot, prefix, suffix string) string {
	if metrics == nil {
		return ""
	}
	names := make([]string, 0, len(metrics.Counters))
	for name := range metrics.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	best, bestV := "", 0.0
	for _, name := range names {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		link := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		// Aggregate counters (e.g. "wan.shuffle.mb") share the prefix but
		// name no link; only src->dst series qualify.
		if !strings.Contains(link, "->") {
			continue
		}
		if v := metrics.Counters[name]; v > bestV {
			best = link
			bestV = v
		}
	}
	return best
}

// Format renders the analysis as the human form of `bohrctl -critpath`:
// one header per query, then the chain.
func Format(paths []QueryPath) string {
	if len(paths) == 0 {
		return "critpath: no query spans in trace\n"
	}
	var b strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&b, "%s  qct=%.4fs  coverage=%.1f%%\n", p.Query, p.QCT, p.CoveragePct)
		hops := make([]string, len(p.Components))
		for i, c := range p.Components {
			hops[i] = fmt.Sprintf("%s %.4fs (%.1f%%)", c.Name, c.Seconds, c.PctQCT)
		}
		fmt.Fprintf(&b, "  %s\n", strings.Join(hops, " -> "))
	}
	return b.String()
}
