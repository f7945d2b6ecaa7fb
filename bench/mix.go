package main

import (
	"fmt"

	"bohr/internal/stats"
)

// mixWorkload puts writes beside reads on the same serve, engine and
// cache layers. One op is one cycle: ingest a 256-record batch for one
// dataset (acked, applied), then send a fixed set of 12 statements (4 per
// dataset) twice. The batch invalidates its dataset's 4 cached results,
// so every cycle is exactly 4 misses and 20 hits.
var mixWorkload = workloadSpec{
	name:   "query-ingest-mix",
	opUnit: "ingest+24-queries",
	warm:   4,
	ops:    45,
	setup: func(seed int64, warm int) (instance, error) {
		v, err := newServeSystem(seed, 0)
		if err != nil {
			return nil, err
		}
		m := &mixInstance{v: v}
		rng := stats.NewRand(stats.Split(seed, 99))
		for _, ds := range v.sys.Workload.Datasets {
			m.stmts = append(m.stmts,
				mixStatement{ds.Name, true, fmt.Sprintf("SELECT COUNT(*) FROM %s", ds.Name)},
				mixStatement{ds.Name, false, fmt.Sprintf("SELECT url, SUM(measure) FROM %s GROUP BY url ORDER BY value DESC LIMIT %d", ds.Name, 5+rng.Intn(20))},
				mixStatement{ds.Name, false, fmt.Sprintf("SELECT country, hour, SUM(measure) FROM %s WHERE country != '%s' GROUP BY country, hour", ds.Name, countries[rng.Intn(len(countries))])},
				mixStatement{ds.Name, false, fmt.Sprintf("SELECT country, COUNT(*) FROM %s WHERE hour != '%02d' GROUP BY country", ds.Name, rng.Intn(24))},
			)
		}
		// Fill the cache once, so that every cycle from the first sees
		// only the misses its own batch causes.
		for _, st := range m.stmts {
			if _, err := v.query(st.text); err != nil {
				v.close()
				return nil, fmt.Errorf("priming %q: %w", st.text, err)
			}
		}
		for i := 0; i < warm; i++ {
			if !m.op(i, nil) {
				v.close()
				return nil, fmt.Errorf("warm-up cycle %d failed", i)
			}
		}
		return m, nil
	},
}

type mixStatement struct {
	dataset string
	// countAll marks SELECT COUNT(*): its one row must equal the records
	// the dataset started with plus those acked since.
	countAll bool
	text     string
}

type mixInstance struct {
	v     *serveSystem
	stmts []mixStatement
	// Totals for the traced phase.
	hits, misses int
}

const mixMissesPerCycle = 4

func (m *mixInstance) op(i int, tr *tracer) bool {
	v := m.v
	v.backend.tr = tr
	dss := v.sys.Workload.Datasets
	if err := v.ingestBatch(v.makeBatch(i%len(dss)), tr); err != nil {
		fmt.Printf("query-ingest-mix: cycle %d: %v\n", i, err)
		return false
	}
	ok := true
	hits, misses := 0, 0
	for pass := 0; pass < 2; pass++ {
		for _, st := range m.stmts {
			id := tr.push("serve.query")
			resp, err := v.query(st.text)
			tr.pop(id)
			if err != nil {
				fmt.Printf("query-ingest-mix: %q: %v\n", st.text, err)
				ok = false
				continue
			}
			if resp.Cached {
				hits++
				tr.rename(id, "serve.query.hit")
			} else {
				misses++
				tr.rename(id, "serve.query.miss")
			}
			if st.countAll {
				want := float64(v.initial[st.dataset] + v.sent[st.dataset])
				if len(resp.Rows) != 1 || resp.Rows[0].Val != want {
					fmt.Printf("query-ingest-mix: cycle %d: %q = %v, want %v (stale)\n", i, st.text, resp.Rows, want)
					ok = false
				}
			}
		}
	}
	if misses != mixMissesPerCycle || hits != 2*len(m.stmts)-mixMissesPerCycle {
		fmt.Printf("query-ingest-mix: cycle %d: %d hits and %d misses, want %d and %d\n",
			i, hits, misses, 2*len(m.stmts)-mixMissesPerCycle, mixMissesPerCycle)
		ok = false
	}
	m.hits += hits
	m.misses += misses
	return ok
}

func (m *mixInstance) finish(recover bool) error {
	if got := m.v.pipe.Stats().RecordsDelivered; got != uint64(m.v.total) {
		return fmt.Errorf("query-ingest-mix: %d records delivered, %d sent", got, m.v.total)
	}
	return nil
}

func (m *mixInstance) close() { m.v.close() }

func (m *mixInstance) layers(n int, tr *tracer, out map[string]float64) error {
	by := tr.byName()
	out["serve.hit_us"] = meanMS(by, "serve.query.hit") * 1e3
	out["serve.miss_ms"] = meanMS(by, "serve.query.miss")
	if m.hits+m.misses > 0 {
		out["serve.hit_frac"] = float64(m.hits) / float64(m.hits+m.misses)
	}
	out["engine.query_ms"] = meanMS(by, "engine.query")
	out["serve.content_hash_ms"] = perOpMS(by, "serve.content_hash", n)
	ingestLayers(tr, by, out)
	return nil
}

// ingestLayers reports the write path's layers, shared by the two
// workloads that ingest.
func ingestLayers(tr *tracer, by map[string]*layerStat, out map[string]float64) {
	out["ingest.ack_ms"] = meanMS(by, "ingest.ack")
	out["serve.apply_ms"] = meanMS(by, "serve.apply")
	// The flush worker may start applying while the POST is still being
	// acked, so deliver is the part of the Flush call no apply covers.
	out["ingest.deliver_ms"] = tr.exclusiveMS("ingest.deliver", "serve.apply")
}
