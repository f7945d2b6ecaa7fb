package stats

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestSumMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Sum(xs); got != 11 {
		t.Fatalf("Sum = %v", got)
	}
	if got := Min(xs); got != -1 {
		t.Fatalf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Fatalf("Max = %v", got)
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max should be ±Inf")
	}
}

func TestStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if StdDev(nil) != 0 {
		t.Fatal("StdDev(nil) should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil) should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMedianInterpolates(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Median = %v, want 2.5", got)
	}
}

func TestSplitDeterministicAndDistinct(t *testing.T) {
	a := Split(42, 1)
	b := Split(42, 1)
	c := Split(42, 2)
	if a != b {
		t.Fatal("Split not deterministic")
	}
	if a == c {
		t.Fatal("adjacent streams should differ")
	}
}

func TestNewRandDeterministic(t *testing.T) {
	r1, r2 := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if r1.Int63() != r2.Int63() {
			t.Fatal("same seed should give same stream")
		}
	}
}

func TestNewLazyRandDrawsLikeNewRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 3, 42} {
		a, b := NewRand(seed), NewLazyRand(seed)
		for i := 0; i < 50; i++ {
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("seed %d draw %d: Int63 %d vs %d", seed, i, x, y)
			}
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("seed %d draw %d: Uint64 %d vs %d", seed, i, x, y)
			}
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("seed %d draw %d: Float64 %v vs %v", seed, i, x, y)
			}
		}
		if x, y := a.Perm(40), b.Perm(40); !slices.Equal(x, y) {
			t.Fatalf("seed %d: Perm %v vs %v", seed, x, y)
		}
		a.Seed(seed + 7)
		b.Seed(seed + 7)
		if x, y := a.Intn(1000), b.Intn(1000); x != y {
			t.Fatalf("seed %d: Intn after Seed %d vs %d", seed, x, y)
		}
	}
}

// TestNewReplayRandDrawsLikeNewRand: sources of one seed drawing at once,
// each a different amount and through every draw kind, read what NewRand
// of the seed reads, whichever of them drew a value first — and so does a
// source that starts over from the kept draws, or after a Seed. Run under
// -race (make race).
func TestNewReplayRandDrawsLikeNewRand(t *testing.T) {
	draws := func(r interface {
		Int63() int64
		Uint64() uint64
		Float64() float64
		Intn(int) int
	}, n int) []uint64 {
		out := make([]uint64, 0, 4*n)
		for i := 0; i < n; i++ {
			out = append(out, uint64(r.Int63()), r.Uint64(), uint64(r.Float64()*(1<<53)), uint64(r.Intn(1000+i)))
		}
		return out
	}
	for _, seed := range []int64{0, 3, 42} {
		want := draws(NewRand(seed), 60)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := 15 * (g + 1)
				if got := draws(NewReplayRand(seed), n); !slices.Equal(got, want[:4*n]) {
					t.Errorf("seed %d, source %d: its %d draws differ from NewRand's", seed, g, n)
				}
			}()
		}
		wg.Wait()
		if got := draws(NewReplayRand(seed), 60); !slices.Equal(got, want) {
			t.Fatalf("seed %d: a source over the kept draws differs from NewRand's", seed)
		}
		a, b := NewRand(seed), NewReplayRand(seed)
		a.Seed(seed + 7)
		b.Seed(seed + 7)
		if x, y := a.Intn(1000), b.Intn(1000); x != y {
			t.Fatalf("seed %d: Intn after Seed %d vs %d", seed, x, y)
		}
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	rng := NewRand(1)
	xs := Zipf(rng, 1.5, 1000, 10000)
	counts := map[uint64]int{}
	for _, x := range xs {
		if x >= 1000 {
			t.Fatalf("out of range: %d", x)
		}
		counts[x]++
	}
	// Zipf should be heavily skewed toward small indices.
	if counts[0] < counts[500]*2 {
		t.Fatalf("expected skew: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		return v1 <= v2+1e-9 && v1 >= Min(xs)-1e-9 && v2 <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
