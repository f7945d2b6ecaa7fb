package lp

import (
	"math"
	"testing"

	"bohr/internal/stats"
)

// twoSiteInput builds a minimal asymmetric instance: site 0 is a slow
// bottleneck with lots of data, site 1 is fast.
func twoSiteInput() *PlacementInput {
	return &PlacementInput{
		Sites:     2,
		Datasets:  1,
		Input:     [][]float64{{400, 100}},
		Reduction: []float64{0.5},
		SelfSim:   [][]float64{{0.2, 0.2}},
		CrossSim: [][][]float64{{
			{0.2, 0.8},
			{0.8, 0.2},
		}},
		Up:   []float64{10, 100},
		Down: []float64{10, 100},
		Lag:  30,
	}
}

func TestPlacementValidate(t *testing.T) {
	in := twoSiteInput()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *in
	bad.Sites = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero sites should error")
	}
	bad = *in
	bad.Up = []float64{10}
	if err := bad.Validate(); err == nil {
		t.Fatal("short bandwidth array should error")
	}
	bad = *in
	bad.Up = []float64{0, 100}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth should error")
	}
	bad = *in
	bad.SelfSim = [][]float64{{1.5, 0}}
	if err := bad.Validate(); err == nil {
		t.Fatal("similarity > 1 should error")
	}
	bad = *in
	bad.Lag = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative lag should error")
	}
	bad = *in
	bad.Reduction = []float64{-0.5}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative reduction should error")
	}
	bad = *in
	bad.Input = [][]float64{{-1, 0}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative input should error")
	}
}

func TestShuffleVolumesNoMove(t *testing.T) {
	in := twoSiteInput()
	f := in.ShuffleVolumes(nil)
	// f_0 = 400 * 0.5 * (1−0.2) = 160; f_1 = 100 * 0.5 * 0.8 = 40.
	if math.Abs(f[0][0]-160) > 1e-9 || math.Abs(f[0][1]-40) > 1e-9 {
		t.Fatalf("f = %v", f)
	}
}

func TestShuffleVolumesWithMove(t *testing.T) {
	in := twoSiteInput()
	move := [][][]float64{{{0, 200}, {0, 0}}}
	f := in.ShuffleVolumes(move)
	// Site 0 keeps 200: 200·0.5·0.8 = 80.
	if math.Abs(f[0][0]-80) > 1e-9 {
		t.Fatalf("f0 = %v", f[0][0])
	}
	// Site 1: own 100·0.5·0.8 = 40, incoming 200·0.5·(1−0.8) = 20 → 60.
	if math.Abs(f[0][1]-60) > 1e-9 {
		t.Fatalf("f1 = %v", f[0][1])
	}
}

func TestShuffleVolumesPaperObjective(t *testing.T) {
	in := twoSiteInput()
	in.PaperObjective = true
	move := [][][]float64{{{0, 200}, {0, 0}}}
	f := in.ShuffleVolumes(move)
	// Paper mode: incoming combines at destination self-sim 0.2:
	// site 1 = (100+200)·0.5·0.8 = 120.
	if math.Abs(f[0][1]-120) > 1e-9 {
		t.Fatalf("paper-mode f1 = %v", f[0][1])
	}
}

func TestShuffleVolumesClampsOverMove(t *testing.T) {
	in := twoSiteInput()
	// Moving more than the site holds must clamp kept data at zero.
	move := [][][]float64{{{0, 999}, {0, 0}}}
	f := in.ShuffleVolumes(move)
	if f[0][0] != 0 {
		t.Fatalf("kept volume should clamp to 0, got %v", f[0][0])
	}
}

func TestSolvePlacementImprovesOverInPlace(t *testing.T) {
	in := twoSiteInput()
	plan, err := SolvePlacement(in)
	if err != nil {
		t.Fatal(err)
	}
	// In-place with bandwidth-proportional tasks as the reference point.
	r0 := []float64{in.Up[0] / 110, in.Up[1] / 110}
	inPlace := in.ShuffleTimeFor(nil, r0)
	if plan.ShuffleTime > inPlace+1e-6 {
		t.Fatalf("plan %v should not be worse than in-place %v", plan.ShuffleTime, inPlace)
	}
	// The bottleneck site should shed data toward the fast site.
	if plan.Move[0][0][1] <= 0 {
		t.Fatalf("expected movement 0→1, plan: %+v", plan.Move)
	}
	// Task fractions are a distribution.
	var sum float64
	for _, r := range plan.TaskFrac {
		if r < -1e-9 {
			t.Fatalf("negative task fraction %v", r)
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("task fractions sum to %v", sum)
	}
	if plan.Rounds < 1 || plan.SolveTime <= 0 {
		t.Fatalf("plan metadata: rounds=%d solveTime=%v", plan.Rounds, plan.SolveTime)
	}
}

func TestSolvePlacementRespectsLag(t *testing.T) {
	in := twoSiteInput()
	in.Lag = 1 // only 10 MB can leave site 0 (10 MBps × 1 s)
	plan, err := SolvePlacement(in)
	if err != nil {
		t.Fatal(err)
	}
	var moved float64
	for j := 0; j < in.Sites; j++ {
		moved += plan.Move[0][0][j]
	}
	if moved > in.Lag*in.Up[0]+1e-6 {
		t.Fatalf("moved %v MB exceeds lag budget %v", moved, in.Lag*in.Up[0])
	}
}

func TestSolvePlacementConservation(t *testing.T) {
	in := twoSiteInput()
	plan, err := SolvePlacement(in)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < in.Datasets; a++ {
		for i := 0; i < in.Sites; i++ {
			var out float64
			for j := 0; j < in.Sites; j++ {
				out += plan.Move[a][i][j]
			}
			if out > in.Input[a][i]+1e-6 {
				t.Fatalf("site %d moves out %v > holdings %v", i, out, in.Input[a][i])
			}
		}
	}
}

func TestSolvePlacementZeroLagMeansNoMovement(t *testing.T) {
	in := twoSiteInput()
	in.Lag = 0
	plan, err := SolvePlacement(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < in.Sites; i++ {
		for j := 0; j < in.Sites; j++ {
			if plan.Move[0][i][j] > 1e-6 {
				t.Fatalf("zero lag must forbid movement, found %v at (%d,%d)", plan.Move[0][i][j], i, j)
			}
		}
	}
}

func TestSolvePlacementSimilarityDirectsFlow(t *testing.T) {
	// Three sites: 0 is the bottleneck; 1 and 2 have identical bandwidth
	// but site 2's data is far more similar to site 0's. The refined LP
	// should prefer moving 0's data to 2.
	in := &PlacementInput{
		Sites:     3,
		Datasets:  1,
		Input:     [][]float64{{300, 50, 50}},
		Reduction: []float64{1},
		SelfSim:   [][]float64{{0.1, 0.1, 0.1}},
		CrossSim: [][][]float64{{
			{0.1, 0.05, 0.95},
			{0.05, 0.1, 0.1},
			{0.95, 0.1, 0.1},
		}},
		Up:   []float64{5, 50, 50},
		Down: []float64{5, 50, 50},
		Lag:  20,
	}
	plan, err := SolvePlacement(in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Move[0][0][2] <= plan.Move[0][0][1] {
		t.Fatalf("similar destination should receive more: to1=%v to2=%v",
			plan.Move[0][0][1], plan.Move[0][0][2])
	}
}

func TestSolvePlacementMultiDataset(t *testing.T) {
	rng := stats.NewRand(17)
	n, m := 4, 3
	in := &PlacementInput{
		Sites: n, Datasets: m,
		Up:   []float64{5, 20, 40, 40},
		Down: []float64{5, 20, 40, 40},
		Lag:  30,
	}
	for a := 0; a < m; a++ {
		in.Input = append(in.Input, make([]float64, n))
		in.SelfSim = append(in.SelfSim, make([]float64, n))
		cs := make([][]float64, n)
		for i := 0; i < n; i++ {
			in.Input[a][i] = 50 + rng.Float64()*200
			in.SelfSim[a][i] = rng.Float64() * 0.5
			cs[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				cs[i][j] = rng.Float64() * 0.9
			}
		}
		in.CrossSim = append(in.CrossSim, cs)
		in.Reduction = append(in.Reduction, 0.3+rng.Float64()*0.7)
	}
	plan, err := SolvePlacement(in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ShuffleTime <= 0 {
		t.Fatalf("shuffle time = %v", plan.ShuffleTime)
	}
	// Joint plan must beat or match in-place with uniform tasks.
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 1.0 / float64(n)
	}
	if inPlace := in.ShuffleTimeFor(nil, uniform); plan.ShuffleTime > inPlace+1e-6 {
		t.Fatalf("joint %v worse than uniform in-place %v", plan.ShuffleTime, inPlace)
	}
}

func TestShuffleTimeForConsistency(t *testing.T) {
	// ShuffleTimeFor must equal a hand computation on a tiny instance.
	in := twoSiteInput()
	r := []float64{0.5, 0.5}
	f := in.ShuffleVolumes(nil) // [160, 40]
	want := math.Max(
		math.Max((1-r[0])*f[0][0]/in.Up[0], r[0]*f[0][1]/in.Down[0]),
		math.Max((1-r[1])*f[0][1]/in.Up[1], r[1]*f[0][0]/in.Down[1]),
	)
	if got := in.ShuffleTimeFor(nil, r); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ShuffleTimeFor = %v, want %v", got, want)
	}
}

// tenSitesTwentyDatasets is a 10-site, 20-dataset joint placement
// problem: five times fig6-batch's datasets, so several times its pivots.
func tenSitesTwentyDatasets() *PlacementInput {
	rng := stats.NewRand(3)
	n, m := 10, 20
	in := &PlacementInput{Sites: n, Datasets: m, Lag: 30}
	for i := 0; i < n; i++ {
		in.Up = append(in.Up, 10+rng.Float64()*90)
		in.Down = append(in.Down, 10+rng.Float64()*90)
	}
	for a := 0; a < m; a++ {
		in.Input = append(in.Input, make([]float64, n))
		in.SelfSim = append(in.SelfSim, make([]float64, n))
		cs := make([][]float64, n)
		for i := 0; i < n; i++ {
			in.Input[a][i] = rng.Float64() * 100
			in.SelfSim[a][i] = rng.Float64() * 0.5
			cs[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				cs[i][j] = rng.Float64() * 0.9
			}
		}
		in.CrossSim = append(in.CrossSim, cs)
		in.Reduction = append(in.Reduction, 0.5)
	}
	return in
}

// BenchmarkSolvePlacement10Sites20Datasets reports the joint solve's
// time, bytes, allocations and simplex pivots per op.
func BenchmarkSolvePlacement10Sites20Datasets(b *testing.B) {
	in := tenSitesTwentyDatasets()
	b.ReportAllocs()
	b.ResetTimer()
	pivots := 0
	for i := 0; i < b.N; i++ {
		plan, err := SolvePlacement(in)
		if err != nil {
			b.Fatal(err)
		}
		pivots += plan.PivotCount
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}
