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

func BenchmarkBuildCube(b *testing.B) {
	schema := MustSchema("region", "product", "day")
	rows := benchRows(120_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCube(schema, rows, 1); err != nil {
			b.Fatal(err)
		}
	}
}
