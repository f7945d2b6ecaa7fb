package export

import (
	"encoding/json"

	"bohr/internal/obs"
)

// chromeEvent is one entry in the Chrome trace-event JSON format
// (chrome://tracing, ui.perfetto.dev). Ph "X" is a complete event with
// timestamp and duration in microseconds; "M" is process metadata.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const (
	pidModeled = 0
	pidWall    = 1
)

// ChromeTrace renders a span tree as Chrome trace-event JSON. Spans carry
// only durations, so the layout is synthetic: children are laid out
// sequentially inside their parent, except the children of a "run" span
// (concurrent queries), which share their parent's start on separate
// tracks.
// The modeled timeline is emitted as process 0; if any span in the tree
// carries a wall-clock duration, the wall timeline is emitted again as
// process 1. Output is deterministic for a deterministic tree.
func ChromeTrace(root *obs.Span) ([]byte, error) {
	f := &chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if root != nil {
		f.TraceEvents = append(f.TraceEvents,
			chromeEvent{Name: "process_name", Ph: "M", Pid: pidModeled,
				Args: map[string]any{"name": "modeled time"}})
		l := &chromeLayout{pid: pidModeled, dur: func(s *obs.Span) float64 { return s.Modeled * 1e6 }}
		l.place(f, root, 0, l.nextTid())
		if hasWall(root) {
			f.TraceEvents = append(f.TraceEvents,
				chromeEvent{Name: "process_name", Ph: "M", Pid: pidWall,
					Args: map[string]any{"name": "wall time"}})
			l := &chromeLayout{pid: pidWall, dur: func(s *obs.Span) float64 { return s.Wall * 1e6 }}
			l.place(f, root, 0, l.nextTid())
		}
	}
	return json.MarshalIndent(f, "", " ")
}

type chromeLayout struct {
	pid  int
	tids int
	dur  func(*obs.Span) float64
}

func (l *chromeLayout) nextTid() int {
	l.tids++
	return l.tids
}

func hasWall(s *obs.Span) bool {
	if s.Wall > 0 {
		return true
	}
	for _, ch := range s.Children {
		if hasWall(ch) {
			return true
		}
	}
	return false
}

// parallelChildren reports whether a span's children represent concurrent
// work rather than sequential stages.
func parallelChildren(s *obs.Span) bool { return s.Name == "run" }

// extent is the span's total footprint on the timeline: its own recorded
// duration, or its children's layout if they run longer (a parent that
// only aggregates stages may carry no duration of its own).
func (l *chromeLayout) extent(s *obs.Span) float64 {
	var kids float64
	if parallelChildren(s) {
		for _, ch := range s.Children {
			if d := l.extent(ch); d > kids {
				kids = d
			}
		}
	} else {
		for _, ch := range s.Children {
			kids += l.extent(ch)
		}
	}
	if own := l.dur(s); own > kids {
		return own
	}
	return kids
}

func (l *chromeLayout) place(f *chromeFile, s *obs.Span, ts float64, tid int) {
	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: s.Name, Ph: "X", Ts: ts, Dur: l.extent(s), Pid: l.pid, Tid: tid,
	})
	if parallelChildren(s) {
		for _, ch := range s.Children {
			l.place(f, ch, ts, l.nextTid())
		}
		return
	}
	at := ts
	for _, ch := range s.Children {
		l.place(f, ch, at, tid)
		at += l.extent(ch)
	}
}
