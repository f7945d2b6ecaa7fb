package olap

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchRows mirrors the duplicate-heavy shape cube builds see in
// pre-processing: realistic multi-token coordinate strings, heavy cell
// collision (many rows aggregate into few cells).
func benchRows(n int) []Row {
	rng := rand.New(rand.NewSource(42))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			Coords: []string{
				fmt.Sprintf("region-us-east-%d", rng.Intn(5)),
				fmt.Sprintf("product-electronics-sku-%04d", rng.Intn(12)),
				fmt.Sprintf("day-2018-11-%02d", rng.Intn(8)),
			},
			Measure: rng.Float64() * 100,
		}
	}
	return rows
}

func BenchmarkFoldRows120kOneChunk(b *testing.B) {
	schema := MustSchema("region", "product", "day")
	rows := benchRows(120_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := foldChunk(schema, rows, 0, len(rows)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBuild(width int) func(*testing.B) {
	return func(b *testing.B) {
		schema := MustSchema("region", "product", "day")
		rows := benchRows(120_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := BuildCube(schema, rows, width); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBuildCube120kWidth1(b *testing.B) { benchBuild(1)(b) }
func BenchmarkBuildCube120kWidth4(b *testing.B) { benchBuild(4)(b) }

// TestLookupZeroAlloc pins the columnar point-lookup hot path: dictionary
// id() hits, a stack coordinate buffer, and an open-addressed probe —
// nothing on the heap. Probe scoring calls Lookup per probed cell, so a
// single allocation here multiplies across every similarity check.
func TestLookupZeroAlloc(t *testing.T) {
	schema := MustSchema("region", "product", "day")
	rows := benchRows(10_000)
	c, err := BuildCube(schema, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	hit := rows[0].Coords
	miss := []string{"region-none", "product-none", "day-none"}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.Lookup(hit[0], hit[1], hit[2]); !ok {
			t.Fatal("lookup of inserted coords failed")
		}
		if _, ok := c.Lookup(miss[0], miss[1], miss[2]); ok {
			t.Fatal("lookup of unseen coords succeeded")
		}
	}); allocs != 0 {
		t.Fatalf("Lookup allocates %.1f times per op, want 0", allocs)
	}
}

func BenchmarkLookup(b *testing.B) {
	schema := MustSchema("region", "product", "day")
	rows := benchRows(120_000)
	c, err := BuildCube(schema, rows, 1)
	if err != nil {
		b.Fatal(err)
	}
	coords := rows[len(rows)/2].Coords
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Lookup(coords[0], coords[1], coords[2]); !ok {
			b.Fatal("lookup failed")
		}
	}
}
