package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"bohr/internal/obs"
)

func TestCombinePartialsSumsCounts(t *testing.T) {
	// Two partial counts (3 and 2) must merge to 5, not be re-counted as 2.
	partials := []KV{{"k", 3}, {"k", 2}}
	out := CombinePartials(partials, OpCount)
	if len(out) != 1 || out[0].Val != 5 {
		t.Fatalf("partial counts = %+v, want k=5", out)
	}
	// Other ops merge the partial values themselves.
	if got := CombinePartials([]KV{{"k", 3}, {"k", 9}}, OpMax); got[0].Val != 9 {
		t.Fatalf("partial max = %v", got[0].Val)
	}
}

// TestReduceAllocsScaleWithKeys pins the point of a round's key table: the
// reduce side allocates for the distinct keys and the reducers, never per
// partial. Folding four times the partials over the same keys allocates
// about the same, and cutting the table into reducer outputs allocates three
// times at any number of reducers: the count pass sizes every output before
// the fill pass, so nothing grows.
func TestReduceAllocsScaleWithKeys(t *testing.T) {
	const keys = 3000
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("k%04d", k)
	}
	partials := func(perKey int) []KV {
		out := make([]KV, 0, keys*perKey)
		for p := 0; p < perKey; p++ {
			for _, name := range names {
				out = append(out, KV{Key: name, Val: float64(p)})
			}
		}
		return out
	}
	for _, frac := range [][]float64{{1}, {0.1, 0.2, 0, 0.3, 0.15, 0.25}} {
		fold := func(recs []KV) *keyTable {
			tab := newKeyTable(OpSum, frac, 0, nil)
			for _, r := range recs {
				tab.add(r)
			}
			return tab
		}
		few, many := partials(2), partials(8)
		fewAllocs := testing.AllocsPerRun(5, func() { fold(few).runs() })
		manyAllocs := testing.AllocsPerRun(5, func() { fold(many).runs() })
		// The map's table splits depend on its hash seed: a few either way.
		if math.Abs(manyAllocs-fewAllocs) > 4 {
			t.Fatalf("%d reducers: %.0f allocations for %d partials, %.0f for %d over the same %d keys",
				len(frac), fewAllocs, len(few), manyAllocs, len(many), keys)
		}
		// Growing slices and a growing map allocate O(log keys) times,
		// plus a table per thousand keys or so; one allocation per 32 keys
		// is already a generous bound.
		if limit := float64(keys/32 + 16); fewAllocs > limit {
			t.Fatalf("%d reducers: %.0f allocations for %d keys, want at most %.0f", len(frac), fewAllocs, keys, limit)
		}
		tab := fold(many)
		if cut := testing.AllocsPerRun(5, func() { tab.runs() }); cut != 3 {
			t.Fatalf("%d reducers: cutting the table into outputs took %.0f allocations, want 3", len(frac), cut)
		}
		results, r := make([]RunResult, 2), 0 // AllocsPerRun's warm-up call, then the measured one
		if sorted := testing.AllocsPerRun(1, func() { results[r].output = tab.slots; results[r].Output(); r++ }); sorted != 0 {
			t.Fatalf("%d reducers: the sorted output took %.0f allocations", len(frac), sorted)
		}
		t.Logf("%d reducers, %d keys: %.0f allocations for %d or %d partials", len(frac), keys, fewAllocs, len(few), len(many))
	}
}

func TestTwoStageCountCorrectness(t *testing.T) {
	// End to end: counting records spread across sites and executors must
	// equal the raw record count per key.
	c := testCluster(t)
	for site := 0; site < 3; site++ {
		for i := 0; i < 40+site*10; i++ {
			c.Data[site].Add("jobs", KV{Key: fmt.Sprintf("class-%d", i%3), Val: 999})
		}
	}
	q := Query{
		Name: "count", Dataset: "jobs", Combine: OpCount,
		MapCost: DefaultMapCost, ReduceCost: DefaultReduceCost,
	}
	res, err := c.Run(context.Background(), JobConfig{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, kv := range res.Output() {
		total += kv.Val
	}
	want := float64(40 + 50 + 60)
	if total != want {
		t.Fatalf("counted %v records, want %v", total, want)
	}
}

func TestRunConcurrentSharesShuffle(t *testing.T) {
	c := testCluster(t)
	for i := 0; i < 2000; i++ {
		c.Data[0].Add("a", KV{Key: fmt.Sprintf("a%d", i), Val: 1})
		c.Data[0].Add("b", KV{Key: fmt.Sprintf("b%d", i), Val: 1})
	}
	solo, err := c.Run(context.Background(), JobConfig{Query: ScanQuery("qa", "a")})
	if err != nil {
		t.Fatal(err)
	}
	both, err := c.RunConcurrent(context.Background(), []JobConfig{
		{Query: ScanQuery("qa", "a")},
		{Query: ScanQuery("qb", "b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent jobs share links: each job's shuffle time must be at
	// least its solo time, and both jobs see the same (shared) stage time.
	if both[0].Rounds[0].ShuffleTime < solo.Rounds[0].ShuffleTime-1e-9 {
		t.Fatalf("shared shuffle %v below solo %v", both[0].Rounds[0].ShuffleTime, solo.Rounds[0].ShuffleTime)
	}
	if math.Abs(both[0].Rounds[0].ShuffleTime-both[1].Rounds[0].ShuffleTime) > 1e-9 {
		t.Fatalf("concurrent jobs must share one shuffle stage: %v vs %v",
			both[0].Rounds[0].ShuffleTime, both[1].Rounds[0].ShuffleTime)
	}
	// Outputs stay per-job.
	if len(both[0].Output()) == 0 || len(both[1].Output()) == 0 {
		t.Fatal("missing outputs")
	}
	if both[0].Output()[0].Key[0] != 'a' || both[1].Output()[0].Key[0] != 'b' {
		t.Fatal("job outputs mixed up")
	}
}

func TestRunConcurrentMixedRounds(t *testing.T) {
	c := testCluster(t)
	c.Data[0].Add("a", KV{"x", 1}, KV{"y", 1})
	c.Data[1].Add("b", KV{"p", 1})
	res, err := c.RunConcurrent(context.Background(), []JobConfig{
		{Query: ScanQuery("scan", "a")}, // 1 round
		{Query: UDFQuery("pr", "b", 3)}, // 3 rounds
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Rounds) != 1 {
		t.Fatalf("scan rounds = %d", len(res[0].Rounds))
	}
	if len(res[1].Rounds) != 3 {
		t.Fatalf("udf rounds = %d", len(res[1].Rounds))
	}
}

func TestRunConcurrentValidatesEachJob(t *testing.T) {
	c := testCluster(t)
	c.Data[0].Add("a", KV{"x", 1})
	_, err := c.RunConcurrent(context.Background(), []JobConfig{
		{Query: ScanQuery("ok", "a")},
		{Query: Query{}}, // invalid
	})
	if err == nil {
		t.Fatal("invalid job should fail the batch")
	}
}

func TestCubeInputReducesMapTime(t *testing.T) {
	c := testCluster(t)
	// Heavily duplicated data: distinct cells ≪ records.
	for i := 0; i < 4000; i++ {
		c.Data[0].Add("d", KV{Key: fmt.Sprintf("k%d", i%50), Val: 1})
	}
	raw, err := c.Run(context.Background(), JobConfig{Query: ScanQuery("s", "d")})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := c.Run(context.Background(), JobConfig{Query: ScanQuery("s", "d"), CubeInput: true})
	if err != nil {
		t.Fatal(err)
	}
	if cube.Rounds[0].MapTime >= raw.Rounds[0].MapTime/2 {
		t.Fatalf("cube map %v should be well below raw %v on duplicate-heavy data",
			cube.Rounds[0].MapTime, raw.Rounds[0].MapTime)
	}
	// Data semantics unchanged: identical outputs.
	if len(raw.Output()) != len(cube.Output()) {
		t.Fatal("cube input changed query results")
	}
	for i := range raw.Output() {
		if raw.Output()[i] != cube.Output()[i] {
			t.Fatal("cube input changed query results")
		}
	}
}

func TestCubeInputNeutralOnDistinctData(t *testing.T) {
	c := testCluster(t)
	for i := 0; i < 500; i++ {
		c.Data[0].Add("d", KV{Key: fmt.Sprintf("k%d", i), Val: 1})
	}
	raw, _ := c.Run(context.Background(), JobConfig{Query: ScanQuery("s", "d")})
	cube, _ := c.Run(context.Background(), JobConfig{Query: ScanQuery("s", "d"), CubeInput: true})
	if math.Abs(raw.Rounds[0].MapTime-cube.Rounds[0].MapTime) > 1e-12 {
		t.Fatalf("all-distinct data should cost the same: %v vs %v",
			raw.Rounds[0].MapTime, cube.Rounds[0].MapTime)
	}
}

func TestProfileIntermediateMatchesRun(t *testing.T) {
	c := testCluster(t)
	for i := 0; i < 1000; i++ {
		c.Data[0].Add("d", KV{Key: fmt.Sprintf("k%d", i%100), Val: 1})
	}
	q := ScanQuery("s", "d")
	profiled, err := c.ProfileIntermediate("d", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), JobConfig{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.MB(profiled); math.Abs(got-res.IntermediateMBPerSite[0]) > 1e-9 {
		t.Fatalf("profiled %v MB != realized %v MB", got, res.IntermediateMBPerSite[0])
	}
}

// countingAssigner is round-robin that counts its calls: one per machine
// per layout built.
type countingAssigner struct{ calls *atomic.Int64 }

func (a countingAssigner) Assign(parts []Partition, executors int) ([]int, float64, error) {
	a.calls.Add(1)
	return RoundRobinAssigner{}.Assign(parts, executors)
}

// TestFirstQueriesOnColdContentBuildOneLayout has many goroutines issue
// the first query over stores nobody has queried, each through its own
// clone of the cluster and with its own collector, the way concurrent
// /v1/query requests meet a dataset after an ingest batch: every site's
// layout is built once, exactly one query is told it missed at each site,
// all get the same result, and a write leaves the layout behind. Run under
// -race (make race).
func TestFirstQueriesOnColdContentBuildOneLayout(t *testing.T) {
	c := testCluster(t)
	loadSkewed(c, "d", 3)
	var calls atomic.Int64
	cfg := JobConfig{Query: ScanQuery("s", "d"), Assigner: countingAssigner{&calls}, CubeInput: true}
	sites := int64(c.N())

	const queries = 12
	results := make([]*RunResult, queries)
	var hits, misses atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < queries; g++ {
		clone, col := c.Clone(), obs.NewCollector()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			mine := cfg
			mine.Obs = col
			res, err := clone.Run(context.Background(), mine)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = res
			counters := col.MetricsSnapshot().Counters
			hits.Add(int64(counters[CounterLayoutHits]))
			misses.Add(int64(counters[CounterLayoutMisses]))
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	// testCluster has one machine per site: one Assign call per layout.
	if calls.Load() != sites || misses.Load() != sites || hits.Load() != (queries-1)*sites {
		t.Fatalf("%d queries over %d cold sites: %d layouts built, %d misses, %d hits; want %d, %d, %d",
			queries, sites, calls.Load(), misses.Load(), hits.Load(), sites, sites, (queries-1)*sites)
	}
	for g := 1; g < queries; g++ {
		if !reflect.DeepEqual(results[g], results[0]) {
			t.Fatalf("query %d's result differs from query 0's", g)
		}
	}

	// A write to one site leaves that site's layout behind, and only that.
	c.Data[1].Add("d", KV{Key: "fresh", Val: 1})
	col := obs.NewCollector()
	cfg.Obs = col
	if _, err := c.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	counters := col.MetricsSnapshot().Counters
	if calls.Load() != sites+1 || counters[CounterLayoutMisses] != 1 || counters[CounterLayoutHits] != float64(sites-1) {
		t.Fatalf("after a write to one site: %d layouts built in all, %v misses, %v hits; want %d, 1, %d",
			calls.Load(), counters[CounterLayoutMisses], counters[CounterLayoutHits], sites+1, sites-1)
	}
}
