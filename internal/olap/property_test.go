package olap

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// randomRows draws n rows over a 3-dim schema with small value domains
// (to force cell collisions).
func randomRows(rng *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			Coords: []string{
				fmt.Sprintf("r%d", rng.Intn(5)),
				fmt.Sprintf("p%d", rng.Intn(7)),
				fmt.Sprintf("d%d", rng.Intn(11)),
			},
			Measure: rng.Float64() * 100,
		}
	}
	return rows
}

// randomCube builds a cube over randomRows' schema from n random rows.
func randomCube(t *testing.T, rng *rand.Rand, n int) *Cube {
	t.Helper()
	return mustBuild(t, MustSchema("region", "product", "day"), randomRows(rng, n))
}

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// TestRollUpPreservesTotals is a property test: aggregating a dimension
// away (a dimension cube over the others, in schema order) must preserve
// the total measure, TotalCount and NumRows — the rows are the same, only
// the addressing coarsens.
func TestRollUpPreservesTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		c := randomCube(t, rng, 200+rng.Intn(800))
		for _, dim := range c.schema.Dims() {
			var keep []string
			for _, d := range c.schema.Dims() {
				if d != dim {
					keep = append(keep, d)
				}
			}
			ru, err := c.DimensionCube(keep...)
			if err != nil {
				t.Fatal(err)
			}
			if !approxEq(totalMeasure(ru), totalMeasure(c)) {
				t.Errorf("trial %d rollup %q: measure %v != %v", trial, dim, totalMeasure(ru), totalMeasure(c))
			}
			if ru.TotalCount() != c.TotalCount() {
				t.Errorf("trial %d rollup %q: count %d != %d", trial, dim, ru.TotalCount(), c.TotalCount())
			}
			if ru.NumRows() != c.NumRows() {
				t.Errorf("trial %d rollup %q: rows %d != %d", trial, dim, ru.NumRows(), c.NumRows())
			}
		}
	}
}

// TestDimensionCubePreservesTotals is a property test: projecting onto any
// non-empty dimension subset preserves the totals — every row still lands
// in exactly one projected cell.
func TestDimensionCubePreservesTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	subsets := [][]string{{"region"}, {"day"}, {"region", "day"}, {"product", "region"}}
	for trial := 0; trial < 10; trial++ {
		c := randomCube(t, rng, 200+rng.Intn(800))
		for _, dims := range subsets {
			dc, err := c.DimensionCube(dims...)
			if err != nil {
				t.Fatal(err)
			}
			if !approxEq(totalMeasure(dc), totalMeasure(c)) {
				t.Errorf("trial %d dims %v: measure %v != %v", trial, dims, totalMeasure(dc), totalMeasure(c))
			}
			if dc.TotalCount() != c.TotalCount() {
				t.Errorf("trial %d dims %v: count %d != %d", trial, dims, dc.TotalCount(), c.TotalCount())
			}
			if dc.NumRows() != c.NumRows() {
				t.Errorf("trial %d dims %v: rows %d != %d", trial, dims, dc.NumRows(), c.NumRows())
			}
		}
	}
}

// project returns rows with their coordinates narrowed to sub, in sub's
// order.
func project(rows []Row, dims, sub []string) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		coords := make([]string, len(sub))
		for k, d := range sub {
			coords[k] = r.Coords[slices.Index(dims, d)]
		}
		out[i] = Row{Coords: coords, Measure: r.Measure}
	}
	return out
}

// sameCells fails unless got and want hold the same cells in the same
// insertion order and the same Cells() order, with equal counts and sums
// within tolerance.
func sameCells(t *testing.T, label string, got, want *Cube) {
	t.Helper()
	for _, order := range []struct {
		name      string
		got, want []Cell
	}{{"insertion", got.cells, want.cells}, {"Cells()", got.Cells(), want.Cells()}} {
		if len(order.got) != len(order.want) {
			t.Fatalf("%s %s: %d cells, want %d", label, order.name, len(order.got), len(order.want))
		}
		for i, w := range order.want {
			g := order.got[i]
			if !slices.Equal(g.Coords, w.Coords) || g.Count != w.Count || !approxEq(g.Sum, w.Sum) {
				t.Fatalf("%s %s cell %d: got %v sum=%v count=%d, want %v sum=%v count=%d",
					label, order.name, i, g.Coords, g.Sum, g.Count, w.Coords, w.Sum, w.Count)
			}
		}
	}
	if got.NumRows() != want.NumRows() || got.StorageBytes() != want.StorageBytes() {
		t.Fatalf("%s: rows %d storage %d, want rows %d storage %d",
			label, got.NumRows(), got.StorageBytes(), want.NumRows(), want.StorageBytes())
	}
}

// sortedByCountThenKey fails unless Cells() runs by descending count,
// ties by ascending joined key.
func sortedByCountThenKey(t *testing.T, label string, c *Cube) {
	t.Helper()
	cells := c.Cells()
	for i := 1; i < len(cells); i++ {
		a, b := cells[i-1], cells[i]
		ka, kb := strings.Join(a.Coords, string(sep)), strings.Join(b.Coords, string(sep))
		if a.Count < b.Count || a.Count == b.Count && ka >= kb {
			t.Fatalf("%s: Cells()[%d] %v×%d before %v×%d", label, i-1, a.Coords, a.Count, b.Coords, b.Count)
		}
	}
}

// TestDimensionCubeMatchesProjectedBuild holds the two folds to each
// other over random rows: DimensionCube(sub) of a built cube must equal
// BuildCube over the rows projected onto sub, for several subsets. Every
// built cell's Sum must also be bit-equal to a sequential fold of its own
// rows, and Cells() must be in (count desc, key asc) order.
func TestDimensionCubeMatchesProjectedBuild(t *testing.T) {
	dims := []string{"region", "product", "day"}
	subsets := [][]string{
		{"region"}, {"day"}, {"day", "region"}, {"product", "day"},
		{"day", "product", "region"}, {"region", "product", "day"},
	}
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 12; trial++ {
		rows := randomRows(rng, 1+rng.Intn(3000))
		c := mustBuild(t, MustSchema(dims...), rows)
		label := fmt.Sprintf("trial %d (%d rows)", trial, len(rows))

		fold := map[string]float64{}
		for _, r := range rows {
			fold[strings.Join(r.Coords, string(sep))] += r.Measure
		}
		if len(fold) != c.NumCells() {
			t.Fatalf("%s: %d cells, the rows have %d distinct keys", label, c.NumCells(), len(fold))
		}
		for _, cell := range c.cells {
			if want := fold[strings.Join(cell.Coords, string(sep))]; math.Float64bits(cell.Sum) != math.Float64bits(want) {
				t.Fatalf("%s: cell %v sum %v, a sequential fold of its rows %v", label, cell.Coords, cell.Sum, want)
			}
		}
		sortedByCountThenKey(t, label, c)

		for _, sub := range subsets {
			dc, err := c.DimensionCube(sub...)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s dims %v", label, sub)
			sortedByCountThenKey(t, name, dc)
			sameCells(t, name, dc, mustBuild(t, dc.schema, project(rows, dims, dc.schema.Dims())))
		}
	}
}
