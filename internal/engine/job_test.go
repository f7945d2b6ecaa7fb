package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"bohr/internal/stats"
	"bohr/internal/wan"
)

// testCluster builds a 3-site cluster with asymmetric bandwidth.
func testCluster(t *testing.T) *Cluster {
	t.Helper()
	top, err := wan.NewTopology(
		[]string{"slow", "mid", "fast"},
		[]float64{5, 20, 50}, []float64{5, 20, 50})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(top, 1, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// loadSkewed puts duplicate-heavy data at site 0 and lighter data
// elsewhere.
func loadSkewed(c *Cluster, dataset string, seed int64) {
	rng := stats.NewRand(seed)
	for i := 0; i < c.N(); i++ {
		n := 3000
		if i == 0 {
			n = 9000
		}
		for r := 0; r < n; r++ {
			key := fmt.Sprintf("s%d-k%d", i, rng.Intn(500))
			c.Data[i].Add(dataset, KV{Key: key, Val: 1})
		}
	}
}

func TestNewClusterValidation(t *testing.T) {
	top := wan.EC2TenRegions(20)
	if _, err := NewCluster(nil, 1, 1, 100); err == nil {
		t.Fatal("nil topology should error")
	}
	if _, err := NewCluster(top, 0, 1, 100); err == nil {
		t.Fatal("zero machines should error")
	}
	if _, err := NewCluster(top, 1, 0, 100); err == nil {
		t.Fatal("zero executors should error")
	}
	if _, err := NewCluster(top, 1, 1, 0); err == nil {
		t.Fatal("zero record size should error")
	}
}

func TestClusterConversions(t *testing.T) {
	c := testCluster(t)
	if got := c.MB(10000); got != 1 {
		t.Fatalf("MB(10000) = %v, want 1 (100B records)", got)
	}
	if got := c.RecordsFor(1); got != 10000 {
		t.Fatalf("RecordsFor(1MB) = %d", got)
	}
	if got := c.RecordsFor(-1); got != 0 {
		t.Fatalf("RecordsFor(-1) = %d", got)
	}
}

func TestClusterDatasetNamesAndInputMB(t *testing.T) {
	c := testCluster(t)
	c.Data[0].Add("b", KV{"k", 1})
	c.Data[2].Add("a", KV{"k", 1}, KV{"k2", 1})
	names := c.DatasetNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	mb := c.InputMB("a")
	if mb[0] != 0 || mb[2] != c.MB(2) {
		t.Fatalf("InputMB = %v", mb)
	}
}

func TestClusterClone(t *testing.T) {
	c := testCluster(t)
	c.Data[0].Add("ds", KV{"k", 1})
	cp := c.Clone()
	cp.Data[0].Add("ds", KV{"k2", 1})
	if len(c.Data[0].Records("ds")) != 1 {
		t.Fatal("clone should not share record slices")
	}
	if len(cp.Data[0].Records("ds")) != 2 {
		t.Fatal("clone lost records")
	}
}

func TestRunValidation(t *testing.T) {
	c := testCluster(t)
	if _, err := c.Run(context.Background(), JobConfig{Query: Query{}}); err == nil {
		t.Fatal("invalid query should error")
	}
	q := ScanQuery("q", "ds")
	if _, err := c.Run(context.Background(), JobConfig{Query: q, TaskFrac: []float64{1}}); err == nil {
		t.Fatal("short task fractions should error")
	}
	if _, err := c.Run(context.Background(), JobConfig{Query: q, TaskFrac: []float64{0.5, 0.2, 0.1}}); err == nil {
		t.Fatal("non-normalized task fractions should error")
	}
	if _, err := c.Run(context.Background(), JobConfig{Query: q, TaskFrac: []float64{1.5, -0.3, -0.2}}); err == nil {
		t.Fatal("negative task fraction should error")
	}
}

func TestRunScanCorrectness(t *testing.T) {
	c := testCluster(t)
	// Known data: key k appears at two sites; scan sums values.
	c.Data[0].Add("ds", KV{"k", 1}, KV{"k", 2}, KV{"x", 5})
	c.Data[1].Add("ds", KV{"k", 4})
	res, err := c.Run(context.Background(), JobConfig{Query: ScanQuery("scan", "ds")})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, kv := range res.Output() {
		got[kv.Key] = kv.Val
	}
	if got["k"] != 7 || got["x"] != 5 {
		t.Fatalf("output = %v", got)
	}
	if res.QCT <= 0 {
		t.Fatalf("QCT = %v", res.QCT)
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
}

func TestRunAggregationGroups(t *testing.T) {
	c := testCluster(t)
	c.Data[0].Add("ds", KV{"us" + KeySep + "a", 1}, KV{"us" + KeySep + "b", 2}, KV{"eu" + KeySep + "c", 4})
	q := AggregationQuery("agg", "ds", NewView(2, 0))
	res, err := c.Run(context.Background(), JobConfig{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, kv := range res.Output() {
		got[kv.Key] = kv.Val
	}
	if got["us"] != 3 || got["eu"] != 4 {
		t.Fatalf("grouped output = %v", got)
	}
}

func TestRunUDFIterates(t *testing.T) {
	c := testCluster(t)
	c.Data[0].Add("ds", KV{"pageA", 1}, KV{"pageB", 1})
	q := UDFQuery("pr", "ds", 3)
	res, err := c.Run(context.Background(), JobConfig{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(res.Rounds))
	}
	if len(res.Output()) == 0 {
		t.Fatal("pagerank produced no output")
	}
}

func TestRunCombinerReducesShuffle(t *testing.T) {
	c := testCluster(t)
	// 1000 copies of ONE key at site 0: combiner should collapse them, so
	// intermediate at site 0 is 1 record per executor at most.
	for i := 0; i < 1000; i++ {
		c.Data[0].Add("ds", KV{"hot", 1})
	}
	res, err := c.Run(context.Background(), JobConfig{Query: ScanQuery("scan", "ds")})
	if err != nil {
		t.Fatal(err)
	}
	maxInter := c.MB(c.Exec[0].Total()) // ≤ one record per executor
	if res.IntermediateMBPerSite[0] > maxInter+1e-9 {
		t.Fatalf("intermediate %v MB > combiner bound %v MB",
			res.IntermediateMBPerSite[0], maxInter)
	}
}

func TestRunDistinctKeysNoCombining(t *testing.T) {
	c := testCluster(t)
	n := 500
	for i := 0; i < n; i++ {
		c.Data[0].Add("ds", KV{fmt.Sprintf("k%d", i), 1})
	}
	res, err := c.Run(context.Background(), JobConfig{Query: ScanQuery("scan", "ds")})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.IntermediateMBPerSite[0]-c.MB(n)) > 1e-9 {
		t.Fatalf("distinct keys should not combine: %v MB, want %v",
			res.IntermediateMBPerSite[0], c.MB(n))
	}
}

func TestRunTaskFracZeroSiteReceivesNothing(t *testing.T) {
	c := testCluster(t)
	loadSkewed(c, "ds", 1)
	res, err := c.Run(context.Background(), JobConfig{
		Query:    ScanQuery("scan", "ds"),
		TaskFrac: []float64{0, 0.5, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// No reduce tasks at site 0 → its shuffle download is zero, and all its
	// intermediate data crossed the WAN.
	site0Inter := res.IntermediateMBPerSite[0]
	if site0Inter <= 0 {
		t.Fatal("site 0 should produce intermediate data")
	}
	// Every intermediate record at site 0 must have been uploaded.
	if res.TotalShuffleMB < site0Inter-1e-9 {
		t.Fatalf("shuffle %v < site-0 intermediate %v", res.TotalShuffleMB, site0Inter)
	}
}

func TestRunExtraQCTIncluded(t *testing.T) {
	c := testCluster(t)
	c.Data[0].Add("ds", KV{"k", 1})
	base, err := c.Run(context.Background(), JobConfig{Query: ScanQuery("s", "ds")})
	if err != nil {
		t.Fatal(err)
	}
	withExtra, err := c.Run(context.Background(), JobConfig{Query: ScanQuery("s", "ds"), ExtraQCT: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(withExtra.QCT-base.QCT-2.5) > 1e-9 {
		t.Fatalf("ExtraQCT not included: %v vs %v", withExtra.QCT, base.QCT)
	}
}

func TestRunDeterministic(t *testing.T) {
	c := testCluster(t)
	loadSkewed(c, "ds", 7)
	r1, err := c.Run(context.Background(), JobConfig{Query: ScanQuery("s", "ds")})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Run(context.Background(), JobConfig{Query: ScanQuery("s", "ds")})
	if err != nil {
		t.Fatal(err)
	}
	if r1.QCT != r2.QCT || r1.TotalShuffleMB != r2.TotalShuffleMB {
		t.Fatal("identical runs must produce identical metrics")
	}
	if len(r1.Output()) != len(r2.Output()) {
		t.Fatal("outputs differ")
	}
}

func TestRunDoesNotMutateData(t *testing.T) {
	c := testCluster(t)
	c.Data[0].Add("ds", KV{"k", 1}, KV{"k2", 2})
	before := len(c.Data[0].Records("ds"))
	if _, err := c.Run(context.Background(), JobConfig{Query: ScanQuery("s", "ds")}); err != nil {
		t.Fatal(err)
	}
	if len(c.Data[0].Records("ds")) != before {
		t.Fatal("Run must not mutate stored data")
	}
}

func TestKeyOwnerDistribution(t *testing.T) {
	frac := []float64{0.5, 0.3, 0.2}
	counts := make([]int, 3)
	n := 20000
	for i := 0; i < n; i++ {
		counts[KeyOwner(fmt.Sprintf("key-%d", i), frac)]++
	}
	for j, f := range frac {
		got := float64(counts[j]) / float64(n)
		if math.Abs(got-f) > 0.02 {
			t.Fatalf("site %d owns %.3f of keys, want ~%.2f", j, got, f)
		}
	}
	// Deterministic.
	if KeyOwner("abc", frac) != KeyOwner("abc", frac) {
		t.Fatal("keyOwner must be deterministic")
	}
}

func TestUplinkProportional(t *testing.T) {
	top, _ := wan.NewTopology([]string{"a", "b"}, []float64{10, 30}, []float64{1, 1})
	frac := UplinkProportional(top)
	if math.Abs(frac[0]-0.25) > 1e-9 || math.Abs(frac[1]-0.75) > 1e-9 {
		t.Fatalf("frac = %v", frac)
	}
}

func TestExecutorsTotal(t *testing.T) {
	if (Executors{Machines: 3, PerMachine: 4}).Total() != 12 {
		t.Fatal("Total wrong")
	}
}

func TestQueryValidate(t *testing.T) {
	cases := []Query{
		{},
		{Name: "q"},
		{Name: "q", Dataset: "d", MapCost: -1},
		{Name: "q", Dataset: "d", Iterations: -1},
	}
	for i, q := range cases {
		if err := q.Validate(); err == nil {
			t.Fatalf("case %d should error", i)
		}
	}
	good := ScanQuery("q", "d")
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}
