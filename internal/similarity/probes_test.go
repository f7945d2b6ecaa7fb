package similarity

import (
	"fmt"
	"math/rand"
	"testing"

	"bohr/internal/olap"
	"bohr/internal/parallel"
	"bohr/internal/stats"
)

// urlCube builds a single-dimension cube with the given key→count map.
func urlCube(t *testing.T, counts map[string]int) *olap.Cube {
	t.Helper()
	c := olap.NewCube(olap.MustSchema("url"))
	for k, n := range counts {
		for i := 0; i < n; i++ {
			if err := c.Insert(olap.Row{Coords: []string{k}, Measure: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

func TestBuildProbeTopK(t *testing.T) {
	cube := urlCube(t, map[string]int{"a": 5, "b": 3, "c": 1, "d": 1})
	p, err := BuildProbe("ds", "url", cube, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Records) != 2 {
		t.Fatalf("probe size = %d", len(p.Records))
	}
	if p.Records[0].Coords[0] != "a" || p.Records[0].Count != 5 {
		t.Fatalf("largest cluster first: %+v", p.Records[0])
	}
	if p.Records[1].Coords[0] != "b" {
		t.Fatalf("second cluster: %+v", p.Records[1])
	}
	if p.TotalCount != 10 {
		t.Fatalf("TotalCount = %d", p.TotalCount)
	}
	if _, err := BuildProbe("ds", "url", cube, 0); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestScore(t *testing.T) {
	src := urlCube(t, map[string]int{"a": 6, "b": 3, "c": 1})
	p, _ := BuildProbe("ds", "url", src, 3)

	// Destination has a and c but not b: matched mass (6+1) over the
	// sender's 10 records.
	dst := urlCube(t, map[string]int{"a": 1, "c": 2, "z": 5})
	s, err := Score(p, dst)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0.7 {
		t.Fatalf("score = %v, want 0.7", s)
	}

	// A fully matching destination scores 1 when the probe covers the
	// whole cube (k=3 covers all three keys here).
	if s, _ := Score(p, src); s != 1 {
		t.Fatalf("self score = %v", s)
	}

	// Coverage matters: a k=1 probe of the same data can vouch for at most
	// its own mass (6 of 10 records).
	small, _ := BuildProbe("ds", "url", src, 1)
	if s, _ := Score(small, src); s != 0.6 {
		t.Fatalf("k=1 self score = %v, want 0.6 (coverage-limited)", s)
	}
	// ScoreCovered ignores coverage: among probed records all match.
	if s, _ := ScoreCovered(small, src); s != 1 {
		t.Fatalf("covered score = %v, want 1", s)
	}

	// Disjoint destination scores 0.
	disjoint := urlCube(t, map[string]int{"x": 3})
	if s, _ := Score(p, disjoint); s != 0 {
		t.Fatalf("disjoint score = %v", s)
	}
}

func TestScoreSchemaMismatch(t *testing.T) {
	src := urlCube(t, map[string]int{"a": 1})
	p, _ := BuildProbe("ds", "url", src, 1)
	two := olap.NewCube(olap.MustSchema("x", "y"))
	_ = two.Insert(olap.Row{Coords: []string{"a", "b"}})
	if _, err := Score(p, two); err == nil {
		t.Fatal("dim mismatch should error")
	}
}

func TestScoreEmptyProbe(t *testing.T) {
	empty := olap.NewCube(olap.MustSchema("url"))
	p, _ := BuildProbe("ds", "url", empty, 5)
	dst := urlCube(t, map[string]int{"a": 1})
	s, err := Score(p, dst)
	if err != nil || s != 0 {
		t.Fatalf("empty probe score = %v err=%v", s, err)
	}
}

func TestSelfSimilarity(t *testing.T) {
	// 10 records in 4 cells → combiner removes 6/10.
	c := urlCube(t, map[string]int{"a": 5, "b": 3, "c": 1, "d": 1})
	if got := SelfSimilarity(c); got != 0.6 {
		t.Fatalf("SelfSimilarity = %v, want 0.6", got)
	}
	if got := SelfSimilarity(olap.NewCube(olap.MustSchema("k"))); got != 0 {
		t.Fatalf("empty cube similarity = %v", got)
	}
	// All-distinct data has zero similarity.
	d := urlCube(t, map[string]int{"a": 1, "b": 1})
	if got := SelfSimilarity(d); got != 0 {
		t.Fatalf("distinct data similarity = %v", got)
	}
}

func TestBuildProbesWeightSplit(t *testing.T) {
	cs := olap.NewCubeSet(olap.MustSchema("url", "country"))
	for i := 0; i < 50; i++ {
		_ = cs.Insert(olap.Row{Coords: []string{fmt.Sprintf("u%d", i%7), fmt.Sprintf("c%d", i%3)}, Measure: 1})
	}
	idURL, _ := cs.RegisterQueryType([]string{"url"})
	idCty, _ := cs.RegisterQueryType([]string{"country"})
	weights := []QueryTypeWeight{
		{QueryType: idURL, Dims: []string{"url"}, Weight: 0.8},
		{QueryType: idCty, Dims: []string{"country"}, Weight: 0.2},
	}
	probes, err := BuildProbes("ds", cs, weights, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != 2 {
		t.Fatalf("probe count = %d", len(probes))
	}
	byType := map[olap.QueryTypeID]Probe{}
	for _, p := range probes {
		byType[p.QueryType] = p
	}
	// 0.8 of 30 = 24 but only 7 distinct urls exist; 0.2 of 30 = 6 but only
	// 3 countries exist.
	if got := len(byType[idURL].Records); got != 7 {
		t.Fatalf("url probe records = %d, want 7 (cube exhausted)", got)
	}
	if got := len(byType[idCty].Records); got != 3 {
		t.Fatalf("country probe records = %d, want 3", got)
	}
}

func TestBuildProbesPaperExample(t *testing.T) {
	// §4.2: 500 queries, one type with 100 queries → weight 0.2; k=30 →
	// 6 records for that type.
	cs := olap.NewCubeSet(olap.MustSchema("a", "b"))
	for i := 0; i < 100; i++ {
		_ = cs.Insert(olap.Row{Coords: []string{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)}, Measure: 1})
	}
	idA, _ := cs.RegisterQueryType([]string{"a"})
	idB, _ := cs.RegisterQueryType([]string{"b"})
	weights := []QueryTypeWeight{
		{QueryType: idA, Weight: 0.2},
		{QueryType: idB, Weight: 0.8},
	}
	probes, err := BuildProbes("ds", cs, weights, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		if p.QueryType == idA && len(p.Records) != 6 {
			t.Fatalf("weight-0.2 type got %d records, want 6", len(p.Records))
		}
		if p.QueryType == idB && len(p.Records) != 24 {
			t.Fatalf("weight-0.8 type got %d records, want 24", len(p.Records))
		}
	}
}

func TestBuildProbesValidation(t *testing.T) {
	cs := olap.NewCubeSet(olap.MustSchema("a"))
	id, _ := cs.RegisterQueryType([]string{"a"})
	w := []QueryTypeWeight{{QueryType: id, Weight: 1}}
	if _, err := BuildProbes("ds", cs, w, 0); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := BuildProbes("ds", cs, nil, 10); err == nil {
		t.Fatal("no query types should error")
	}
	if _, err := BuildProbes("ds", cs, []QueryTypeWeight{{QueryType: id, Weight: -1}}, 10); err == nil {
		t.Fatal("negative weight should error")
	}
	if _, err := BuildProbes("ds", cs, []QueryTypeWeight{{QueryType: id, Weight: 0}}, 10); err == nil {
		t.Fatal("all-zero weights should error")
	}
	if _, err := BuildProbes("ds", cs, []QueryTypeWeight{{QueryType: "bogus", Weight: 1}}, 10); err == nil {
		t.Fatal("unknown query type should error")
	}
}

func TestRankForDestinationSimilarFirst(t *testing.T) {
	src := urlCube(t, map[string]int{"a": 5, "b": 4, "c": 3, "d": 2})
	dst := urlCube(t, map[string]int{"c": 10, "d": 1, "z": 7})
	ranked, err := RankForDestination(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 4 {
		t.Fatalf("ranked = %d cells", len(ranked))
	}
	// c (dst 10) first, then d (dst 1), then a/b by local size.
	if ranked[0].Coords[0] != "c" || ranked[1].Coords[0] != "d" {
		t.Fatalf("similar cells should rank first: %+v", ranked[:2])
	}
	if ranked[2].Coords[0] != "a" || ranked[3].Coords[0] != "b" {
		t.Fatalf("dissimilar cells by local size: %+v", ranked[2:])
	}
}

func TestRankForDestinationSchemaMismatch(t *testing.T) {
	src := urlCube(t, map[string]int{"a": 1})
	other := olap.NewCube(olap.MustSchema("different"))
	if _, err := RankForDestination(src, other); err == nil {
		t.Fatal("schema mismatch should error")
	}
}

func TestCrossSiteMatrix(t *testing.T) {
	a := urlCube(t, map[string]int{"x": 4, "y": 4}) // S = 1 - 2/8 = .75
	b := urlCube(t, map[string]int{"x": 2, "z": 2}) // shares x with a
	c := urlCube(t, map[string]int{"q": 1, "r": 1}) // disjoint
	m, err := CrossSiteMatrix("ds", "url", []*olap.Cube{a, b, c}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][0] != 0.75 {
		t.Fatalf("diagonal should be self-similarity: %v", m[0][0])
	}
	if m[0][1] != 0.5 { // probe {x:4,y:4}; only x matches → 4/8
		t.Fatalf("S(a→b) = %v, want 0.5", m[0][1])
	}
	if m[0][2] != 0 || m[2][0] != 0 {
		t.Fatalf("disjoint sites should score 0: %v / %v", m[0][2], m[2][0])
	}
}

// Property: score is always within [0,1] and self-score of a non-empty
// cube is 1.
func TestScoreBoundsProperty(t *testing.T) {
	rng := stats.NewRand(12)
	for trial := 0; trial < 30; trial++ {
		counts := map[string]int{}
		for i := 0; i < 1+rng.Intn(40); i++ {
			counts[fmt.Sprintf("k%d", rng.Intn(20))]++
		}
		cube := urlCube(t, counts)
		p, _ := BuildProbe("ds", "url", cube, 1+rng.Intn(10))
		other := urlCube(t, map[string]int{fmt.Sprintf("k%d", rng.Intn(20)): 1})
		s, err := Score(p, other)
		if err != nil || s < 0 || s > 1 {
			t.Fatalf("score out of bounds: %v (%v)", s, err)
		}
		// Self score equals the probe's coverage of its own cube and never
		// exceeds 1; the covered variant is exactly 1 against itself.
		self, _ := Score(p, cube)
		if self <= 0 || self > 1 {
			t.Fatalf("self score = %v", self)
		}
		if covered, _ := ScoreCovered(p, cube); covered != 1 {
			t.Fatalf("covered self score = %v", covered)
		}
	}
}

// TestCrossSiteMatrixWidthIndependent checks the pooled probe/score
// matrix is identical at width 1 and width 8, and symmetric-diagonal
// sane, exercising the concurrent read path over shared cubes.
func TestCrossSiteMatrixWidthIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	schema := olap.MustSchema("a", "b")
	cubes := make([]*olap.Cube, 4)
	for s := range cubes {
		c := olap.NewCube(schema)
		for r := 0; r < 300; r++ {
			err := c.Insert(olap.Row{
				Coords:  []string{fmt.Sprintf("a%d", rng.Intn(6)), fmt.Sprintf("b%d", rng.Intn(6))},
				Measure: rng.Float64(),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		cubes[s] = c
	}
	qt := olap.QueryTypeFor([]string{"a", "b"})

	run := func(width int) [][]float64 {
		t.Helper()
		prev := parallel.SetDefaultWidth(width)
		defer parallel.SetDefaultWidth(prev)
		m, err := CrossSiteMatrix("ds", qt, cubes, 5)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := run(1)
	m8 := run(8)
	for i := range m1 {
		for j := range m1[i] {
			if m1[i][j] != m8[i][j] {
				t.Fatalf("matrix[%d][%d] differs across widths: %v vs %v", i, j, m1[i][j], m8[i][j])
			}
		}
	}
}
