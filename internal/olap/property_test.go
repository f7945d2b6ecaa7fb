package olap

import (
	"fmt"
	"math"
	"math/rand"
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

// multiChunkRows is the input of the BuildCube tests below: several
// full chunks plus a ragged tail.
func multiChunkRows() []Row {
	return randomRows(rand.New(rand.NewSource(505)), buildGrain*3+137)
}

// TestBuildCubeMatchesSequential holds BuildCube to one sequential pass
// of the map-backed reference: the same cells in the same order with
// identical counts, and sums equal within float tolerance (the chunked
// fold reassociates the additions).
func TestBuildCubeMatchesSequential(t *testing.T) {
	rows := multiChunkRows()
	dims := []string{"region", "product", "day"}
	ref := newRefCube(dims)
	for _, r := range rows {
		ref.add(r.Coords, r.Measure, 1)
	}
	for _, width := range []int{1, 4, 8} {
		got, err := BuildCube(MustSchema(dims...), rows, width)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != len(rows) {
			t.Fatalf("width %d: rows %d, want %d", width, got.NumRows(), len(rows))
		}
		matchCells(t, fmt.Sprintf("width %d", width), got, ref, false)
	}
}

// TestBuildCubeWidthIndependent pins BuildCube's contract that the pool
// width changes nothing: widths 1, 4 and 8 give the same cells in the
// same order with bit-identical sums.
func TestBuildCubeWidthIndependent(t *testing.T) {
	rows := multiChunkRows()
	schema := MustSchema("region", "product", "day")
	want := mustBuild(t, schema, rows).inOrder()
	for _, width := range []int{4, 8} {
		got, err := BuildCube(schema, rows, width)
		if err != nil {
			t.Fatal(err)
		}
		cells := got.inOrder()
		if len(cells) != len(want) {
			t.Fatalf("width %d: %d cells, want %d", width, len(cells), len(want))
		}
		for i, w := range want {
			g := cells[i]
			if fmt.Sprint(g.Coords) != fmt.Sprint(w.Coords) || g.Count != w.Count ||
				math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
				t.Fatalf("width %d cell %d: got %v sum=%v count=%d, want %v sum=%v count=%d",
					width, i, g.Coords, g.Sum, g.Count, w.Coords, w.Sum, w.Count)
			}
		}
	}
}
