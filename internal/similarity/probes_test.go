package similarity

import (
	"fmt"
	"math/rand"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/parallel"
	"bohr/internal/stats"
)

// storeCells stores the keys and counts them in the view.
func storeCells(keys []string, view engine.View) engine.CellCounts {
	st := new(engine.Store)
	for _, k := range keys {
		st.Add(engine.KV{Key: k, Val: 1})
	}
	cells, _ := st.Cells(view)
	return cells
}

// urlCube is a single-dimension cube with the given key→count map.
func urlCube(counts map[string]int) engine.CellCounts {
	var keys []string
	for k, n := range counts {
		for i := 0; i < n; i++ {
			keys = append(keys, k)
		}
	}
	return storeCells(keys, engine.View{})
}

func TestBuildProbeTopK(t *testing.T) {
	cube := urlCube(map[string]int{"a": 5, "b": 3, "c": 1, "d": 1})
	p, err := BuildProbe("ds", cube, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Records) != 2 {
		t.Fatalf("probe size = %d", len(p.Records))
	}
	if p.Records[0].Key != "a" || p.Records[0].Count != 5 {
		t.Fatalf("largest cluster first: %+v", p.Records[0])
	}
	if p.Records[1].Key != "b" {
		t.Fatalf("second cluster: %+v", p.Records[1])
	}
	if p.TotalCount != 10 {
		t.Fatalf("TotalCount = %d", p.TotalCount)
	}
	// A budget beyond the cube carries every cell, ties by key.
	all, _ := BuildProbe("ds", cube, 30)
	if len(all.Records) != 4 || all.Records[2].Key != "c" || all.Records[3].Key != "d" {
		t.Fatalf("exhausted probe = %+v", all.Records)
	}
	if _, err := BuildProbe("ds", cube, 0); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestScore(t *testing.T) {
	src := urlCube(map[string]int{"a": 6, "b": 3, "c": 1})
	p, _ := BuildProbe("ds", src, 3)

	// Destination has a and c but not b: matched mass (6+1) over the
	// sender's 10 records.
	dst := urlCube(map[string]int{"a": 1, "c": 2, "z": 5})
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
	small, _ := BuildProbe("ds", src, 1)
	if s, _ := Score(small, src); s != 0.6 {
		t.Fatalf("k=1 self score = %v, want 0.6 (coverage-limited)", s)
	}

	// Disjoint destination scores 0.
	disjoint := urlCube(map[string]int{"x": 3})
	if s, _ := Score(p, disjoint); s != 0 {
		t.Fatalf("disjoint score = %v", s)
	}
}

func TestScoreSchemaMismatch(t *testing.T) {
	src := urlCube(map[string]int{"a": 1})
	p, _ := BuildProbe("ds", src, 1)
	two := storeCells([]string{"a" + engine.KeySep + "b"}, engine.NewView(2, 0, 1))
	if _, err := Score(p, two); err == nil {
		t.Fatal("view mismatch should error")
	}
}

func TestScoreEmptyProbe(t *testing.T) {
	p, _ := BuildProbe("ds", urlCube(nil), 5)
	dst := urlCube(map[string]int{"a": 1})
	s, err := Score(p, dst)
	if err != nil || s != 0 {
		t.Fatalf("empty probe score = %v err=%v", s, err)
	}
}

func TestSelfSimilarity(t *testing.T) {
	// 10 records in 4 cells → combiner removes 6/10.
	c := urlCube(map[string]int{"a": 5, "b": 3, "c": 1, "d": 1})
	if got := SelfSimilarity(c); got != 0.6 {
		t.Fatalf("SelfSimilarity = %v, want 0.6", got)
	}
	if got := SelfSimilarity(urlCube(nil)); got != 0 {
		t.Fatalf("empty cube similarity = %v", got)
	}
	// All-distinct data has zero similarity.
	d := urlCube(map[string]int{"a": 1, "b": 1})
	if got := SelfSimilarity(d); got != 0 {
		t.Fatalf("distinct data similarity = %v", got)
	}
}

// TestBuildProbesWeightSplit builds one probe per query type from the
// types' shares of one budget: 0.8 of 30 = 24 but only 7 distinct urls
// exist; 0.2 of 30 = 6 but only 3 countries exist.
func TestBuildProbesWeightSplit(t *testing.T) {
	var keys []string
	for i := 0; i < 50; i++ {
		keys = append(keys, fmt.Sprintf("u%d%sc%d", i%7, engine.KeySep, i%3))
	}
	for _, tc := range []struct {
		dims    string
		f       int
		queries int
		share   int
		records int
	}{{"url", 0, 80, 24, 7}, {"country", 1, 20, 6, 3}} {
		share := ProbeShare(30, tc.queries, 100)
		if share != tc.share {
			t.Fatalf("%s share = %d, want %d", tc.dims, share, tc.share)
		}
		p, err := BuildProbe("ds", storeCells(keys, engine.NewView(2, tc.f)), share)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(p.Records); got != tc.records {
			t.Fatalf("%s probe records = %d, want %d (cube exhausted)", tc.dims, got, tc.records)
		}
	}
}

func TestBuildProbesPaperExample(t *testing.T) {
	// §4.2: 500 queries, one type with 100 queries → weight 0.2; k=30 →
	// 6 records for that type.
	if got := ProbeShare(30, 100, 500); got != 6 {
		t.Fatalf("weight-0.2 type got %d records, want 6", got)
	}
	if got := ProbeShare(30, 400, 500); got != 24 {
		t.Fatalf("weight-0.8 type got %d records, want 24", got)
	}
	// Every type with queries gets at least one record; a dataset without
	// queries gives the whole budget.
	if got := ProbeShare(30, 1, 1000); got != 1 {
		t.Fatalf("a rare type got %d records, want the floor of 1", got)
	}
	if got := ProbeShare(30, 0, 0); got != 30 {
		t.Fatalf("no queries: %d records, want 30", got)
	}
}

func TestCrossSiteMatrix(t *testing.T) {
	a := urlCube(map[string]int{"x": 4, "y": 4}) // S = 1 - 2/8 = .75
	b := urlCube(map[string]int{"x": 2, "z": 2}) // shares x with a
	c := urlCube(map[string]int{"q": 1, "r": 1}) // disjoint
	m, err := CrossSiteMatrix("ds", []engine.CellCounts{a, b, c}, 10)
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
		cube := urlCube(counts)
		p, _ := BuildProbe("ds", cube, 1+rng.Intn(10))
		other := urlCube(map[string]int{fmt.Sprintf("k%d", rng.Intn(20)): 1})
		s, err := Score(p, other)
		if err != nil || s < 0 || s > 1 {
			t.Fatalf("score out of bounds: %v (%v)", s, err)
		}
		// Self score equals the probe's coverage of its own cube and never
		// exceeds 1.
		self, _ := Score(p, cube)
		if self <= 0 || self > 1 {
			t.Fatalf("self score = %v", self)
		}
	}
}

// TestCrossSiteMatrixWidthIndependent checks the pooled probe/score
// matrix is identical at width 1 and width 8, and symmetric-diagonal
// sane, exercising the concurrent read path over shared columns.
func TestCrossSiteMatrixWidthIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cubes := make([]engine.CellCounts, 4)
	for s := range cubes {
		keys := make([]string, 300)
		for r := range keys {
			keys[r] = fmt.Sprintf("a%d%sb%d", rng.Intn(6), engine.KeySep, rng.Intn(6))
		}
		cubes[s] = storeCells(keys, engine.View{})
	}

	run := func(width int) [][]float64 {
		t.Helper()
		prev := parallel.SetDefaultWidth(width)
		defer parallel.SetDefaultWidth(prev)
		m, err := CrossSiteMatrix("ds", cubes, 5)
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
