package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/experiments"
	"bohr/internal/ingest"
	"bohr/internal/obs"
	"bohr/internal/sql"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// missStatement is one statement of the three shapes the query-miss
// benchmark sends (url, country, hour are the dataset's dimensions), with
// what a naive fold needs to recompute it. The nonce conjunct is always
// true and only makes the text new, so the result cache never answers.
type missStatement struct {
	shape, text, filter string
	limit               int
}

func missStatements(dataset string, nonce int) []missStatement {
	return []missStatement{
		{shape: "scan", filter: "JP", limit: 7,
			text: fmt.Sprintf("SELECT url, SUM(measure) FROM %s WHERE country != 'JP' AND hour != 'n%d' GROUP BY url ORDER BY value DESC LIMIT 7", dataset, nonce)},
		{shape: "aggr", filter: "US",
			text: fmt.Sprintf("SELECT country, hour, SUM(measure) FROM %s WHERE country != 'US' AND url != 'n%d' GROUP BY country, hour", dataset, nonce)},
		{shape: "count", filter: "07",
			text: fmt.Sprintf("SELECT country, COUNT(*) FROM %s WHERE hour != '07' AND url != 'n%d' GROUP BY country", dataset, nonce)},
	}
}

// naiveFold recomputes a statement's groups straight from the records
// every site stores, sharing nothing with the engine or the SQL compiler.
func naiveFold(st missStatement, dataset string, c *engine.Cluster) map[string]float64 {
	out := map[string]float64{}
	for site := 0; site < c.N(); site++ {
		for _, kv := range c.Data[site].Records(dataset) {
			co := workload.SplitKey(kv.Key) // url, country, hour
			switch st.shape {
			case "scan":
				if co[1] != st.filter {
					out[co[0]] += kv.Val
				}
			case "aggr":
				if co[1] != st.filter {
					out[workload.JoinKey(co[1:3])] += kv.Val
				}
			case "count":
				if co[2] != st.filter {
					out[co[1]]++
				}
			}
		}
	}
	return out
}

// checkAgainstFold compares a reply with the naive fold: every returned
// group has the naive value, the count of rows is right, and under ORDER
// BY value DESC LIMIT n the rows are the n largest in order. Sums are
// compared to 1e-9 because the engine adds per site first.
func checkAgainstFold(st missStatement, rows []QueryRow, want map[string]float64) error {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	wantRows := len(want)
	if st.limit > 0 && st.limit < wantRows {
		wantRows = st.limit
	}
	if len(rows) != wantRows || wantRows == 0 {
		return fmt.Errorf("%d rows, naive fold has %d", len(rows), wantRows)
	}
	for _, r := range rows {
		if v, ok := want[r.Key]; !ok || !near(v, r.Val) {
			return fmt.Errorf("group %q = %v, naive fold has %v (present %v)", r.Key, r.Val, v, ok)
		}
	}
	if st.limit == 0 {
		return nil
	}
	vals := make([]float64, 0, len(want))
	for _, v := range want {
		vals = append(vals, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	for i, r := range rows {
		if !near(r.Val, vals[i]) {
			return fmt.Errorf("row %d has value %v, the %d-th largest is %v", i, r.Val, i+1, vals[i])
		}
	}
	return nil
}

// sitesHolding counts the sites that store records of the dataset.
func sitesHolding(c *engine.Cluster, dataset string) (n float64) {
	for i := 0; i < c.N(); i++ {
		if len(c.Data[i].Records(dataset)) > 0 {
			n++
		}
	}
	return n
}

// TestQueryMissMatchesNaiveFoldAcrossMutations sends the query-miss
// statement shapes through the handler and checks each reply against a
// naive fold over the stored records — before any write, and after an
// ingest batch, a replan's plan-directed moves and one bare move. Every
// mutation leaves the written sites' layouts and key columns behind (the
// first statement after it misses there and only there: it pays the
// re-partition and the re-encode); every other statement, new text or not,
// finds all of them: hits and no misses, on the system's collector where
// /metrics reads them.
func TestQueryMissMatchesNaiveFoldAcrossMutations(t *testing.T) {
	// Of three datasets the first stays spread over all four sites.
	sys := systemOf(t, 3)
	col := obs.NewCollector(obs.WithWallClock())
	sys.Obs = col
	sys.SetReplanEvery(2)
	ds := sys.Workload.Datasets[0]
	backend := NewEngineBackend(sys)
	ts := httptest.NewServer(New(backend, Config{}, col).Handler())
	defer ts.Close()

	versions := func() []uint64 {
		out := make([]uint64, sys.Cluster.N())
		for i := range out {
			out[i] = sys.Cluster.Data[i].Store(ds.Name).Version()
		}
		return out
	}
	// Layouts and columns are looked up together, once per site holding
	// the dataset: their counters must move alike.
	layoutCounts := func() (hits, misses float64) {
		t.Helper()
		snap := col.MetricsSnapshot()
		c := snap.Counters
		if c[engine.CounterColumnsHits] != c[engine.CounterLayoutHits] || c[engine.CounterColumnsMisses] != c[engine.CounterLayoutMisses] ||
			float64(snap.Histograms[engine.HistColumnsBuild].Count) != c[engine.CounterColumnsMisses] {
			t.Fatalf("column hits/misses/builds %v/%v/%d beside layout hits/misses %v/%v", c[engine.CounterColumnsHits],
				c[engine.CounterColumnsMisses], snap.Histograms[engine.HistColumnsBuild].Count, c[engine.CounterLayoutHits], c[engine.CounterLayoutMisses])
		}
		return c[engine.CounterLayoutHits], c[engine.CounterLayoutMisses]
	}
	holding := func() float64 { return sitesHolding(sys.Cluster, ds.Name) }
	nonce := 0
	// refresh sends the three shapes; written is how many sites' content
	// changed since the last one.
	refresh := func(phase string, written float64) {
		t.Helper()
		for k, st := range missStatements(ds.Name, nonce) {
			nonce++
			hits0, misses0 := layoutCounts()
			resp, out := postQuery(t, ts.URL, "alice", st.text)
			if resp.StatusCode != http.StatusOK || out.Cached {
				t.Fatalf("%s: %q: status %d, cached %v", phase, st.text, resp.StatusCode, out.Cached)
			}
			if err := checkAgainstFold(st, out.Rows, naiveFold(st, ds.Name, sys.Cluster)); err != nil {
				t.Fatalf("%s: %q: %v", phase, st.text, err)
			}
			hits, misses := layoutCounts()
			wantMisses := 0.0
			if k == 0 {
				wantMisses = written
			}
			if misses-misses0 != wantMisses || hits-hits0 != holding()-wantMisses {
				t.Fatalf("%s: statement %d added %v layout hits and %v misses, want %v and %v",
					phase, k, hits-hits0, misses-misses0, holding()-wantMisses, wantMisses)
			}
		}
	}
	changed := func(before []uint64) (n float64) {
		for i, v := range versions() {
			if v != before[i] && len(sys.Cluster.Data[i].Records(ds.Name)) > 0 {
				n++
			}
		}
		return n
	}

	refresh("as placed", holding())
	refresh("unwritten", 0)

	before := versions()
	batch := func(off uint64) ingest.Batch {
		var recs []ingest.Record
		for i := uint64(0); i < 12; i++ {
			r := liveRecord(sys, "src", off+i, int(i)%sys.Cluster.N())
			r.Coords = []string{fmt.Sprintf("live-url-%d", i%3), "JP", "07"}
			recs = append(recs, r)
		}
		return ingest.Batch{Records: recs}
	}
	if _, err := backend.ApplyBatch(context.Background(), batch(1)); err != nil {
		t.Fatal(err)
	}
	if sys.IngestReplans() != 0 {
		t.Fatal("the first batch replanned")
	}
	refresh("after an ingest batch", changed(before))

	before = versions()
	if _, err := backend.ApplyBatch(context.Background(), batch(100)); err != nil {
		t.Fatal(err)
	}
	moved := false
	for _, mv := range sys.Plan().Moves {
		moved = moved || mv.Dataset == ds.Name
	}
	if sys.IngestReplans() != 1 || !moved {
		t.Fatalf("the second batch must replan and move %s: %d replans, moves %+v", ds.Name, sys.IngestReplans(), sys.Plan().Moves)
	}
	refresh("after a replan's moves", changed(before))

	before = versions()
	spec := engine.MoveSpec{Dataset: ds.Name, Src: 0, Dst: 1, MB: sys.Cluster.MB(9)}
	if _, err := sys.Cluster.ApplyMoves([]engine.MoveSpec{spec}, engine.RandomMover{}, stats.NewRand(4)); err != nil {
		t.Fatal(err)
	}
	if changed(before) != 2 {
		t.Fatal("the move did not change sites 0 and 1's versions alone")
	}
	refresh("after a move", 2)
}

// TestNoStatementNoColumns: what fig6-batch and ingest-durable do — plan,
// run the recurring queries, apply ingest batches with a replan — never
// sends a Select, so no site's key ids are ever looked up for one (the
// columns counters count a Select's lookups alone:
// engine.TestColumnsBuiltOncePerContent), and the first statement after
// batches that wrote every site then misses at every site holding its
// dataset.
func TestNoStatementNoColumns(t *testing.T) {
	s := experiments.QuickSetup()
	s.Datasets, s.RowsPerSite = 2, 120
	col := obs.NewCollector(obs.WithWallClock())
	sys := prepareSystem(t, s, col)
	sys.SetReplanEvery(2)
	if _, err := sys.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	backend := NewEngineBackend(sys)
	for off := uint64(1); off <= 3; off++ {
		var recs []ingest.Record
		for i := uint64(0); i < 12; i++ {
			recs = append(recs, liveRecord(sys, "src", 100*off+i, int(i)%sys.Cluster.N()))
		}
		if _, err := backend.ApplyBatch(context.Background(), ingest.Batch{Records: recs}); err != nil {
			t.Fatal(err)
		}
	}
	if sys.IngestReplans() == 0 {
		t.Fatal("setup: no batch replanned")
	}
	counters := col.MetricsSnapshot().Counters
	if counters[engine.CounterLayoutMisses] == 0 {
		t.Fatal("setup: the recurring queries looked up no layout")
	}
	for _, name := range []string{engine.CounterColumnsHits, engine.CounterColumnsMisses} {
		if v, ok := counters[name]; ok {
			t.Fatalf("%s = %v on a system no statement was sent to", name, v)
		}
	}
	ds := sys.Workload.Datasets[0]
	plan, err := sql.CompileString("SELECT country, COUNT(*) FROM "+ds.Name+" GROUP BY country", ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := backend.RunTraced(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	holding := sitesHolding(sys.Cluster, ds.Name)
	if counters = col.MetricsSnapshot().Counters; counters[engine.CounterColumnsMisses] != holding || counters[engine.CounterColumnsHits] != 0 {
		t.Fatalf("the first statement: %v column misses, %v hits; want %v, 0", counters[engine.CounterColumnsMisses], counters[engine.CounterColumnsHits], holding)
	}
}

// TestMissAfterBatchEncodesTheBatch: the first statement after an ingest
// batch encodes what the batch wrote — its records, and the resident ones
// forwarded on its arrival, where they landed — not the dataset, because the
// written sites' key columns carry across the writes. /metrics shows it as
// engine.columns.encoded.
func TestMissAfterBatchEncodesTheBatch(t *testing.T) {
	s := experiments.QuickSetup()
	s.Datasets, s.RowsPerSite = 3, 1000
	col := obs.NewCollector(obs.WithWallClock())
	sys := prepareSystem(t, s, col)
	sys.Obs = col
	ds := sys.Workload.Datasets[0]
	backend := NewEngineBackend(sys)
	ts := httptest.NewServer(New(backend, Config{}, col).Handler())
	defer ts.Close()
	counter := func(name string) float64 { return col.MetricsSnapshot().Counters[name] }
	query := func(nonce int) {
		t.Helper()
		st := missStatements(ds.Name, nonce)[1]
		resp, out := postQuery(t, ts.URL, "alice", st.text)
		if resp.StatusCode != http.StatusOK || out.Cached {
			t.Fatalf("%q: status %d, cached %v", st.text, resp.StatusCode, out.Cached)
		}
		if err := checkAgainstFold(st, out.Rows, naiveFold(st, ds.Name, sys.Cluster)); err != nil {
			t.Fatalf("%q: %v", st.text, err)
		}
	}
	stored := func() (n int) {
		for i := 0; i < sys.Cluster.N(); i++ {
			n += len(sys.Cluster.Data[i].Records(ds.Name))
		}
		return n
	}

	query(0)
	if got, want := counter(engine.CounterColumnsEncoded), float64(stored()); got != want {
		t.Fatalf("the first statement encoded %v records, want all %v", got, want)
	}
	const batch = 256
	var recs []ingest.Record
	for i := uint64(0); i < batch; i++ {
		recs = append(recs, liveRecord(sys, "src", 1+i, int(i)%sys.Cluster.N()))
	}
	encoded0, forwarded0 := counter(engine.CounterColumnsEncoded), counter("core.ingest.forwarded")
	if _, err := backend.ApplyBatch(context.Background(), ingest.Batch{Records: recs}); err != nil {
		t.Fatal(err)
	}
	if sys.IngestReplans() != 0 {
		t.Fatal("setup: the batch replanned")
	}
	query(1)
	// Every record of the batch is encoded where it ended up; a resident
	// record forwarded on arrival is too, at its destination.
	forwarded := counter("core.ingest.forwarded") - forwarded0
	if got := counter(engine.CounterColumnsEncoded) - encoded0; got < batch || got > batch+forwarded {
		t.Fatalf("the statement after a %d-record batch (%v records forwarded) encoded %v of %d stored records",
			batch, forwarded, got, stored())
	}
}
