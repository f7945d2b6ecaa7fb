package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded from bench/ around a call into a
// layer. Times are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for an op's root
	Op     int    `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of a traced phase in memory. A nil *tracer is
// tracing switched off: every method is a no-op, so the untraced phases
// run the same code without recording.
//
// The load generator is one goroutine, so "the span currently open on the
// load goroutine" (cur) is well defined; begin parents to it. The only
// other goroutine that records is the ingest pipeline's flush worker
// (serve.apply), hence the mutex.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	op    int
	cur   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

// begin opens a span under the load goroutine's current span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.cur, Op: t.op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// push opens a span and makes it the parent of what follows; only the
// load goroutine calls push and pop.
func (t *tracer) push(name string) int {
	if t == nil {
		return -1
	}
	id := t.begin(name)
	t.mu.Lock()
	t.cur = id
	t.mu.Unlock()
	return id
}

func (t *tracer) pop(id int) {
	if t == nil {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.cur = t.spans[id].Parent
	t.mu.Unlock()
}

// rename gives a span the name that only its outcome decides (a query is
// a hit or a miss once the reply is in).
func (t *tracer) rename(id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// startOp opens the root span of op i.
func (t *tracer) startOp(i int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.op, t.cur = i, -1
	t.mu.Unlock()
	return t.push("op")
}

// covered is the length of the union of the given intervals clipped to
// [lo, hi).
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	at := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover.
func (t *tracer) selfTimes() []int64 {
	kids := make([][][2]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.dur() - covered(s.Start, s.End, kids[i])
	}
	return self
}

// layerStat is what one span name adds up to over a traced phase.
type layerStat struct {
	n     int
	total int64 // summed durations
	self  int64 // summed self times
}

// byName aggregates spans by name.
func (t *tracer) byName() map[string]*layerStat {
	out := map[string]*layerStat{}
	if t == nil {
		return out
	}
	self := t.selfTimes()
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.n++
		st.total += s.dur()
		st.self += self[i]
	}
	return out
}

// meanMS is the mean duration of the named span in milliseconds (0 when
// the phase never entered it).
func meanMS(m map[string]*layerStat, name string) float64 {
	st := m[name]
	if st == nil || st.n == 0 {
		return 0
	}
	return float64(st.total) / float64(st.n) / 1e6
}

// perOpMS is the time the named span adds up to per op, in milliseconds,
// for a layer entered several times an op at very different costs (a
// content hash is recomputed once after a batch and memoized after).
func perOpMS(m map[string]*layerStat, name string, ops int) float64 {
	st := m[name]
	if st == nil || ops == 0 {
		return 0
	}
	return float64(st.total) / float64(ops) / 1e6
}

// coverage is the share of op wall time that spans below the op roots
// account for: 1 − (summed root self time / summed root duration).
func (t *tracer) coverage() float64 {
	m := t.byName()
	root := m["op"]
	if root == nil || root.total == 0 {
		return 0
	}
	return 1 - float64(root.self)/float64(root.total)
}

// exclusiveMS is the mean time per op that spans named a cover and spans
// named b do not, for two layers whose spans may overlap because one of
// them runs on the pipeline's flush worker.
func (t *tracer) exclusiveMS(a, b string) float64 {
	others := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Name == b {
			others[s.Op] = append(others[s.Op], [2]int64{s.Start, s.End})
		}
	}
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == a {
			sum += s.dur() - covered(s.Start, s.End, others[s.Op])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

// write dumps the spans as JSON, one array, for reading by hand or by a
// script (see README "How to read a trace").
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
