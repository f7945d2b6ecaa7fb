package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bohr/internal/engine"
	"bohr/internal/stats"
)

func TestNewMinHasherValidation(t *testing.T) {
	if _, err := NewMinHasher(0, 1); err == nil {
		t.Fatal("m=0 should error")
	}
	h, err := NewMinHasher(16, 1)
	if err != nil || h.M() != 16 {
		t.Fatalf("m=16: %v %v", h, err)
	}
}

func TestSignatureDeterministic(t *testing.T) {
	h, _ := NewMinHasher(32, 7)
	a := h.Signature([]string{"x", "y", "z"})
	b := h.Signature([]string{"z", "y", "x"}) // order must not matter
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("signature should be order-independent")
		}
	}
}

func TestIdenticalSetsJaccardOne(t *testing.T) {
	h, _ := NewMinHasher(64, 3)
	s := h.Signature([]string{"a", "b", "c"})
	j, err := EstimateJaccard(s, s)
	if err != nil || j != 1 {
		t.Fatalf("identical sets: j=%v err=%v", j, err)
	}
}

func TestDisjointSetsJaccardNearZero(t *testing.T) {
	h, _ := NewMinHasher(128, 3)
	a := h.Signature([]string{"a1", "a2", "a3", "a4"})
	b := h.Signature([]string{"b1", "b2", "b3", "b4"})
	j, _ := EstimateJaccard(a, b)
	if j > 0.1 {
		t.Fatalf("disjoint sets estimated at %v", j)
	}
}

func TestEmptySetMatchesNothing(t *testing.T) {
	h, _ := NewMinHasher(32, 3)
	empty := h.Signature(nil)
	j, err := EstimateJaccard(empty, empty)
	if err != nil || j != 0 {
		t.Fatalf("two empty sets should estimate 0, got %v (%v)", j, err)
	}
}

// TestSignatureOfMultisetIsSignatureOfSet: a signature is a function of the
// set of keys, so repeating keys or reordering them leaves every bit where
// it was — what lets the kernel mix each distinct key once.
func TestSignatureOfMultisetIsSignatureOfSet(t *testing.T) {
	h, _ := NewMinHasher(64, 11)
	f := func(seed int64) bool {
		rng := stats.NewRand(seed)
		var multiset, set []string
		seen := map[string]bool{}
		for i := rng.Intn(300); i > 0; i-- {
			k := fmt.Sprintf("k%d", rng.Intn(40))
			multiset = append(multiset, k)
			if !seen[k] {
				seen[k] = true
				set = append(set, k)
			}
		}
		rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		return slices.Equal(h.Signature(multiset), h.Signature(set))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateJaccardValidation(t *testing.T) {
	if _, err := EstimateJaccard([]uint64{1}, []uint64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := EstimateJaccard(nil, nil); err == nil {
		t.Fatal("empty signatures should error")
	}
}

func TestMinhashEstimatesExactJaccard(t *testing.T) {
	h, _ := NewMinHasher(512, 9)
	rng := stats.NewRand(4)
	for trial := 0; trial < 10; trial++ {
		var x, y []string
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(300))
			if rng.Float64() < 0.6 {
				x = append(x, k)
			}
			if rng.Float64() < 0.6 {
				y = append(y, k)
			}
		}
		exact := ExactJaccard(x, y)
		est, _ := EstimateJaccard(h.Signature(x), h.Signature(y))
		if math.Abs(exact-est) > 0.12 {
			t.Fatalf("trial %d: exact %v vs estimate %v", trial, exact, est)
		}
	}
}

func TestExactJaccard(t *testing.T) {
	cases := []struct {
		x, y []string
		want float64
	}{
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3},
		{[]string{"a"}, []string{"a"}, 1},
		{[]string{"a"}, []string{"b"}, 0},
		{nil, nil, 0},
		{[]string{"a", "a", "b"}, []string{"a", "b", "b"}, 1}, // set semantics
	}
	for _, c := range cases {
		if got := ExactJaccard(c.x, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ExactJaccard(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestWeightedJaccard(t *testing.T) {
	x := map[string]int{"a": 3, "b": 1}
	y := map[string]int{"a": 1, "c": 2}
	// min: a=1; max: a=3, b=1, c=2 → 1/6
	if got := WeightedJaccard(x, y); math.Abs(got-1.0/6) > 1e-12 {
		t.Fatalf("WeightedJaccard = %v", got)
	}
	if got := WeightedJaccard(nil, nil); got != 0 {
		t.Fatalf("empty multisets = %v", got)
	}
	if got := WeightedJaccard(x, x); got != 1 {
		t.Fatalf("self weighted jaccard = %v, want 1", got)
	}
}

// Property: exact Jaccard is symmetric and within [0,1]; weighted Jaccard
// lower-bounds nothing but stays within [0,1] and is symmetric.
func TestJaccardProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRand(seed)
		mk := func() ([]string, map[string]int) {
			var s []string
			m := map[string]int{}
			for i := 0; i < rng.Intn(50); i++ {
				k := fmt.Sprintf("k%d", rng.Intn(30))
				s = append(s, k)
				m[k]++
			}
			return s, m
		}
		xs, xm := mk()
		ys, ym := mk()
		e1, e2 := ExactJaccard(xs, ys), ExactJaccard(ys, xs)
		w1, w2 := WeightedJaccard(xm, ym), WeightedJaccard(ym, xm)
		return e1 == e2 && w1 == w2 && e1 >= 0 && e1 <= 1 && w1 >= 0 && w1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSignature1000Keys(b *testing.B) {
	h, _ := NewMinHasher(64, 1)
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Signature(keys)
	}
}

func testKeysets(rng *rand.Rand, sets, keys int) [][]string {
	out := make([][]string, sets)
	for i := range out {
		ks := make([]string, keys)
		for j := range ks {
			ks[j] = fmt.Sprintf("key-%d", rng.Intn(keys*3))
		}
		out[i] = ks
	}
	return out
}

// TestSignatureBatchMatchesSignature checks the pooled batch kernel
// returns exactly what per-set Signature calls return, at every width.
func TestSignatureBatchMatchesSignature(t *testing.T) {
	h, err := NewMinHasher(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	keysets := testKeysets(rand.New(rand.NewSource(1)), 37, 50)
	want := make([][]uint64, len(keysets))
	for i, ks := range keysets {
		want[i] = h.Signature(ks)
	}
	for _, width := range []int{1, 2, 4, 8} {
		hashsets := make([][]uint64, len(keysets))
		for i, ks := range keysets {
			for _, k := range ks {
				hashsets[i] = append(hashsets[i], engine.KeyHash(k))
			}
		}
		got := h.SignatureBatch(hashsets, width)
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("width %d set %d slot %d: %d != %d", width, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}
