package similarity

import (
	"math"
	"testing"

	"bohr/internal/stats"
)

func TestNewLSHValidation(t *testing.T) {
	if _, err := NewLSH(0, 8, 1); err == nil {
		t.Fatal("dim=0 should error")
	}
	if _, err := NewLSH(4, 0, 1); err == nil {
		t.Fatal("bits=0 should error")
	}
	l, err := NewLSH(4, 100, 1)
	if err != nil || l.Bits() != 100 || l.Dim() != 4 {
		t.Fatalf("lsh: %+v %v", l, err)
	}
}

func TestSignValidation(t *testing.T) {
	l, _ := NewLSH(4, 8, 1)
	if _, err := l.Sign([]float64{1, 2}); err == nil {
		t.Fatal("wrong dim should error")
	}
}

func TestIdenticalVectorsFullMatch(t *testing.T) {
	l, _ := NewLSH(16, 128, 2)
	rng := stats.NewRand(3)
	v := make([]float64, 16)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	a, _ := l.Sign(v)
	b, _ := l.Sign(v)
	m, err := l.HammingSimilarity(a, b)
	if err != nil || m != 1 {
		t.Fatalf("identical vectors match = %v (%v)", m, err)
	}
	cos, _ := l.EstimateCosine(a, b)
	if math.Abs(cos-1) > 1e-9 {
		t.Fatalf("cosine estimate = %v", cos)
	}
}

func TestOppositeVectorsNoMatch(t *testing.T) {
	l, _ := NewLSH(8, 256, 5)
	v := []float64{1, -2, 3, -4, 5, -6, 7, -8}
	neg := make([]float64, len(v))
	for i := range v {
		neg[i] = -v[i]
	}
	a, _ := l.Sign(v)
	b, _ := l.Sign(neg)
	m, _ := l.HammingSimilarity(a, b)
	if m > 0.02 {
		t.Fatalf("opposite vectors matched %v of bits", m)
	}
}

func TestLSHEstimatesCosine(t *testing.T) {
	l, _ := NewLSH(32, 2048, 7)
	rng := stats.NewRand(9)
	for trial := 0; trial < 8; trial++ {
		u := make([]float64, 32)
		w := make([]float64, 32)
		for i := range u {
			u[i] = rng.NormFloat64()
			// w correlated with u to cover mid-range cosines.
			w[i] = 0.7*u[i] + 0.7*rng.NormFloat64()
		}
		exact, _ := Cosine(u, w)
		su, _ := l.Sign(u)
		sw, _ := l.Sign(w)
		est, _ := l.EstimateCosine(su, sw)
		if math.Abs(exact-est) > 0.15 {
			t.Fatalf("trial %d: exact cos %v vs estimate %v", trial, exact, est)
		}
	}
}

func TestHammingValidation(t *testing.T) {
	l, _ := NewLSH(4, 65, 1) // 65 bits → 2 words with a partial last word
	v := []float64{1, 2, 3, 4}
	a, _ := l.Sign(v)
	if len(a) != 2 {
		t.Fatalf("signature words = %d, want 2", len(a))
	}
	if _, err := l.HammingSimilarity(a, a[:1]); err == nil {
		t.Fatal("word mismatch should error")
	}
	// Partial-word masking: similarity of a signature with itself is 1
	// even with junk beyond bit 65 (none here, but the mask path runs).
	m, err := l.HammingSimilarity(a, a)
	if err != nil || m != 1 {
		t.Fatalf("self match = %v (%v)", m, err)
	}
}

func TestCosine(t *testing.T) {
	c, err := Cosine([]float64{1, 0}, []float64{0, 1})
	if err != nil || c != 0 {
		t.Fatalf("orthogonal = %v (%v)", c, err)
	}
	c, _ = Cosine([]float64{2, 0}, []float64{5, 0})
	if c != 1 {
		t.Fatalf("parallel = %v", c)
	}
	c, _ = Cosine([]float64{0, 0}, []float64{1, 1})
	if c != 0 {
		t.Fatalf("zero vector = %v", c)
	}
	if _, err := Cosine([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("dim mismatch should error")
	}
}
