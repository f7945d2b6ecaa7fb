package lp

import (
	"math"
	"testing"
)

func TestSolveTaskPlacementVolumesValidation(t *testing.T) {
	if _, _, _, err := SolveTaskPlacementVolumes(nil, nil, nil, 0); err == nil {
		t.Fatal("empty bandwidth arrays should error")
	}
	if _, _, _, err := SolveTaskPlacementVolumes(nil, []float64{1, 2}, []float64{1}, 0); err == nil {
		t.Fatal("mismatched bandwidth arrays should error")
	}
	if _, _, _, err := SolveTaskPlacementVolumes([][]float64{{1}}, []float64{1, 1}, []float64{1, 1}, 0); err == nil {
		t.Fatal("short volume row should error")
	}
}

func TestSolveTaskPlacementVolumesBalances(t *testing.T) {
	// One dataset, all its shuffle volume at site 0; site 1 has a fat
	// downlink. The optimum sends most reduce tasks to site 0 itself
	// (avoiding uploads) but is bounded by its downlink for others' data.
	f := [][]float64{{100, 0}}
	up := []float64{10, 10}
	down := []float64{10, 100}
	r, tOpt, pivots, err := SolveTaskPlacementVolumes(f, up, down, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pivots <= 0 {
		t.Fatal("expected simplex work")
	}
	var sum float64
	for _, v := range r {
		if v < -1e-9 {
			t.Fatalf("negative fraction: %v", r)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("fractions sum to %v", sum)
	}
	// Verify the reported optimum against a brute-force scan over r_0.
	best := math.Inf(1)
	for i := 0; i <= 1000; i++ {
		r0 := float64(i) / 1000
		tt := math.Max((1-r0)*100/up[0], (1-r0)*100/down[1])
		if tt < best {
			best = tt
		}
	}
	if tOpt > best+1e-6 {
		t.Fatalf("LP optimum %v worse than brute force %v", tOpt, best)
	}
}

func TestSolveTaskPlacementVolumesZeroVolumes(t *testing.T) {
	f := [][]float64{{0, 0, 0}}
	up := []float64{1, 1, 1}
	down := []float64{1, 1, 1}
	r, tOpt, _, err := SolveTaskPlacementVolumes(f, up, down, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tOpt > 1e-9 {
		t.Fatalf("no data should mean zero time, got %v", tOpt)
	}
	var sum float64
	for _, v := range r {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("fractions must still form a distribution: %v", r)
	}
}

func TestIncomingInflationIncreasesPredictedVolume(t *testing.T) {
	in := &PlacementInput{
		Sites: 2, Datasets: 1,
		Input:     [][]float64{{100, 0}},
		Reduction: []float64{1},
		SelfSim:   [][]float64{{0, 0}},
		CrossSim:  [][][]float64{{{0, 0.5}, {0.5, 0}}},
		Up:        []float64{10, 10},
		Down:      []float64{10, 10},
		Lag:       30,
	}
	move := [][][]float64{{{0, 40}, {0, 0}}}
	plain := in.ShuffleVolumes(move)[0][1] // 40 × (1−0.5) = 20

	in.IncomingInflation = 1.5
	inflated := in.ShuffleVolumes(move)[0][1] // 40 × 0.75 = 30
	if math.Abs(plain-20) > 1e-9 || math.Abs(inflated-30) > 1e-9 {
		t.Fatalf("plain %v inflated %v, want 20/30", plain, inflated)
	}

	// Inflation caps at the full volume.
	in.IncomingInflation = 10
	if got := in.ShuffleVolumes(move)[0][1]; math.Abs(got-40) > 1e-9 {
		t.Fatalf("capped inflation = %v, want 40", got)
	}
}

func TestSolveXForbidsDownhillMoves(t *testing.T) {
	// Site 0 is slow, site 1 fast: the optimizer must never move data from
	// the fast site toward the slower one, even when that would be
	// "balanced" volume-wise.
	in := &PlacementInput{
		Sites: 2, Datasets: 1,
		Input:     [][]float64{{50, 400}},
		Reduction: []float64{1},
		SelfSim:   [][]float64{{0.2, 0.2}},
		CrossSim:  [][][]float64{{{0.2, 0.9}, {0.9, 0.2}}},
		Up:        []float64{5, 50},
		Down:      []float64{5, 50},
		Lag:       60,
	}
	plan, err := SolvePlacement(in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Move[0][1][0] > 1e-6 {
		t.Fatalf("moved %v MB toward the slower uplink", plan.Move[0][1][0])
	}
}
