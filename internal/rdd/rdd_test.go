package rdd

import (
	"context"
	"fmt"
	"math"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/stats"
	"bohr/internal/wan"
)

func mkPartition(keys ...string) engine.Partition {
	var p engine.Partition
	for _, k := range keys {
		p.Records = append(p.Records, engine.KV{Key: k, Val: 1})
	}
	return p
}

func TestDimsumValidation(t *testing.T) {
	parts := []engine.Partition{mkPartition("a")}
	if _, err := PairwiseSimilarity(parts, DimsumConfig{HashFunctions: 0, Gamma: 0.5}); err == nil {
		t.Fatal("m=0 should error")
	}
	if _, err := PairwiseSimilarity(parts, DimsumConfig{HashFunctions: 8, Gamma: 0}); err == nil {
		t.Fatal("gamma=0 should error")
	}
	if _, err := PairwiseSimilarity(parts, DimsumConfig{HashFunctions: 8, Gamma: 1.5}); err == nil {
		t.Fatal("gamma>1 should error")
	}
}

func TestPairwiseSimilarityIdenticalAndDisjoint(t *testing.T) {
	parts := []engine.Partition{
		mkPartition("a", "b", "c"),
		mkPartition("a", "b", "c"),
		mkPartition("x", "y", "z"),
	}
	mat, err := PairwiseSimilarity(parts, DimsumConfig{HashFunctions: 128, Gamma: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if mat.Sim[0][0] != 1 {
		t.Fatal("diagonal must be 1")
	}
	if mat.Sim[0][1] != 1 {
		t.Fatalf("identical partitions sim = %v", mat.Sim[0][1])
	}
	if mat.Sim[0][2] > 0.1 {
		t.Fatalf("disjoint partitions sim = %v", mat.Sim[0][2])
	}
	if mat.Sim[0][1] != mat.Sim[1][0] {
		t.Fatal("matrix must be symmetric")
	}
	if mat.Overhead <= 0 || mat.Comparisons <= 0 {
		t.Fatalf("overhead accounting: %+v", mat)
	}
}

func TestGammaTradesComparisonsForAccuracy(t *testing.T) {
	rng := stats.NewRand(5)
	var parts []engine.Partition
	for p := 0; p < 12; p++ {
		keys := make([]string, 400)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", rng.Intn(600))
		}
		parts = append(parts, mkPartition(keys...))
	}
	full, err := PairwiseSimilarity(parts, DimsumConfig{HashFunctions: 128, Gamma: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := PairwiseSimilarity(parts, DimsumConfig{HashFunctions: 128, Gamma: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Comparisons >= full.Comparisons {
		t.Fatalf("gamma=0.25 should compare fewer entries: %d vs %d",
			sampled.Comparisons, full.Comparisons)
	}
	// Sampled estimates should still correlate with the full ones.
	var errSum float64
	n := 0
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			errSum += math.Abs(full.Sim[i][j] - sampled.Sim[i][j])
			n++
		}
	}
	if errSum/float64(n) > 0.2 {
		t.Fatalf("mean estimate error %v too large", errSum/float64(n))
	}
}

func TestDimsumSkipsDissimilarPairs(t *testing.T) {
	// Many mutually disjoint partitions: prefix skipping should keep
	// comparisons well below sample × pairs.
	var parts []engine.Partition
	for p := 0; p < 10; p++ {
		keys := make([]string, 50)
		for i := range keys {
			keys[i] = fmt.Sprintf("p%d-k%d", p, i)
		}
		parts = append(parts, mkPartition(keys...))
	}
	cfg := DimsumConfig{HashFunctions: 64, Gamma: 1, Seed: 2}
	mat, err := PairwiseSimilarity(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := 10 * 9 / 2
	maxFull := pairs * 64
	if mat.Comparisons >= maxFull/2 {
		t.Fatalf("disjoint pairs should be pruned early: %d of %d comparisons",
			mat.Comparisons, maxFull)
	}
}

func TestKMeansBasic(t *testing.T) {
	points := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1},
		{10, 10}, {10.1, 10}, {10, 10.1},
	}
	assign, err := KMeans(points, 2, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Fatalf("first cluster split: %v", assign)
	}
	if assign[3] != assign[4] || assign[4] != assign[5] {
		t.Fatalf("second cluster split: %v", assign)
	}
	if assign[0] == assign[3] {
		t.Fatalf("clusters merged: %v", assign)
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, err := KMeans([][]float64{{1}}, 0, 10, 1); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := KMeans([][]float64{{1}, {1, 2}}, 1, 10, 1); err == nil {
		t.Fatal("ragged points should error")
	}
	if got, err := KMeans(nil, 3, 10, 1); err != nil || got != nil {
		t.Fatalf("empty input: %v %v", got, err)
	}
}

func TestKMeansMoreClustersThanPoints(t *testing.T) {
	points := [][]float64{{0}, {5}}
	assign, err := KMeans(points, 5, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 2 || assign[0] == assign[1] {
		t.Fatalf("assign = %v", assign)
	}
}

func TestKMeansAllClustersNonEmpty(t *testing.T) {
	rng := stats.NewRand(8)
	points := make([][]float64, 30)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64()}
	}
	k := 5
	assign, err := KMeans(points, k, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, k)
	for _, a := range assign {
		if a < 0 || a >= k {
			t.Fatalf("assignment out of range: %d", a)
		}
		counts[a]++
	}
	for ci, c := range counts {
		if c == 0 {
			t.Fatalf("cluster %d empty: %v", ci, counts)
		}
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	points := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	assign, err := KMeans(points, 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, a := range assign {
		counts[a]++
	}
	if len(counts) != 2 {
		t.Fatalf("identical points should still fill both clusters: %v", assign)
	}
}

func TestAssignerGroupsSimilarPartitions(t *testing.T) {
	// Two similarity groups; the assigner should co-locate each group.
	var parts []engine.Partition
	for p := 0; p < 4; p++ {
		group := p / 2
		keys := make([]string, 200)
		for i := range keys {
			keys[i] = fmt.Sprintf("g%d-k%d", group, i%50)
		}
		parts = append(parts, mkPartition(keys...))
	}
	a := NewAssigner(3)
	assign, overhead, err := a.Assign(parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if overhead <= 0 {
		t.Fatalf("overhead = %v", overhead)
	}
	if assign[0] != assign[1] {
		t.Fatalf("group 0 split: %v", assign)
	}
	if assign[2] != assign[3] {
		t.Fatalf("group 1 split: %v", assign)
	}
	if assign[0] == assign[2] {
		t.Fatalf("groups merged: %v", assign)
	}
}

func TestAssignerEdgeCases(t *testing.T) {
	a := NewAssigner(1)
	if _, _, err := a.Assign([]engine.Partition{mkPartition("k")}, 0); err == nil {
		t.Fatal("zero executors should error")
	}
	got, overhead, err := a.Assign(nil, 4)
	if err != nil || got != nil || overhead != 0 {
		t.Fatalf("empty parts: %v %v %v", got, overhead, err)
	}
	// Single executor: no checking needed, zero overhead.
	got, overhead, err = a.Assign([]engine.Partition{mkPartition("k"), mkPartition("j")}, 1)
	if err != nil || overhead != 0 {
		t.Fatalf("single executor: %v %v", overhead, err)
	}
	for _, e := range got {
		if e != 0 {
			t.Fatalf("single executor assignment: %v", got)
		}
	}
}

func TestAssignerBalancesLoad(t *testing.T) {
	// 8 near-identical partitions would all land in one k-means cluster;
	// the balance pass must spread record load across executors.
	var parts []engine.Partition
	for p := 0; p < 8; p++ {
		keys := make([]string, 100)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i)
		}
		parts = append(parts, mkPartition(keys...))
	}
	a := NewAssigner(5)
	assign, _, err := a.Assign(parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]int, 4)
	for pi, e := range assign {
		load[e] += len(parts[pi].Records)
	}
	total := 800
	for e, l := range load {
		if l > total/2 {
			t.Fatalf("executor %d overloaded with %d of %d records: %v", e, l, total, assign)
		}
	}
}

func TestAssignerIsEngineAssigner(t *testing.T) {
	var _ engine.Assigner = NewAssigner(1)
}

func TestAssignerReducesIntermediateData(t *testing.T) {
	// End-to-end §6 claim: co-locating similar partitions reduces the
	// post-combiner intermediate volume versus round-robin.
	top := engineTestTopology(t)
	build := func() *engine.Cluster {
		c, err := engine.NewCluster(top, 1, 4, 100)
		if err != nil {
			t.Fatal(err)
		}
		// Striped data: consecutive runs of records share keys, so
		// contiguous partitions come in similarity groups.
		for g := 0; g < 4; g++ {
			for i := 0; i < 2000; i++ {
				c.Data[0].Add("ds", engine.KV{Key: fmt.Sprintf("g%d-k%d", g, i%100), Val: 1})
			}
		}
		return c
	}
	run := func(a engine.Assigner) float64 {
		c := build()
		res, err := c.Run(context.Background(), engine.JobConfig{
			Query:    engine.ScanQuery("s", "ds"),
			Assigner: a,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.IntermediateMBPerSite[0]
	}
	rr := run(engine.RoundRobinAssigner{})
	sim := run(NewAssigner(7))
	if sim >= rr {
		t.Fatalf("similarity assigner should reduce intermediate data: sim=%v rr=%v", sim, rr)
	}
}

func engineTestTopology(t *testing.T) *wan.Topology {
	t.Helper()
	top, err := wan.NewTopology([]string{"a", "b"}, []float64{10, 10}, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	return top
}
