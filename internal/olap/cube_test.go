package olap

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"bohr/internal/stats"
)

// mustBuild is BuildCube at pool width 1 that fails the test on error.
func mustBuild(t testing.TB, schema *Schema, rows []Row) *Cube {
	t.Helper()
	c, err := BuildCube(schema, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// totalMeasure sums the cube's cell measures in row order.
func totalMeasure(c *Cube) float64 {
	var s float64
	for _, v := range c.sums {
		s += v
	}
	return s
}

// salesCube builds the paper's Figure-2 style cube: time × region × product.
func salesCube(t *testing.T) *Cube {
	t.Helper()
	return mustBuild(t, MustSchema("time", "region", "product"), []Row{
		{Coords: []string{"2012", "US", "A"}, Measure: 10},
		{Coords: []string{"2012", "US", "B"}, Measure: 5},
		{Coords: []string{"2013", "EU", "A"}, Measure: 7},
		{Coords: []string{"2014", "US", "A"}, Measure: 3},
		{Coords: []string{"2014", "EU", "B"}, Measure: 4},
		{Coords: []string{"2014", "US", "A"}, Measure: 6}, // same cell as row 3
	})
}

// TestInsertValidation checks BuildCube refuses malformed rows and names
// the first offending one.
func TestInsertValidation(t *testing.T) {
	schema := MustSchema("a", "b")
	if _, err := BuildCube(schema, []Row{{Coords: []string{"x"}, Measure: 1}}, 1); err == nil {
		t.Fatal("wrong arity should error")
	}
	if _, err := BuildCube(schema, []Row{{Coords: []string{"x", "y\x1fz"}, Measure: 1}}, 1); err == nil {
		t.Fatal("separator in coord should error")
	}
	_, err := BuildCube(schema, []Row{{Coords: []string{"x", "y"}}, {Coords: []string{"w"}}, {Coords: []string{"v"}}}, 1)
	if err == nil || !strings.HasPrefix(err.Error(), "row 1:") {
		t.Fatalf("row error = %v, want one naming row 1", err)
	}
}

// TestInsertAggregates checks rows that share coordinates fold into one
// cell.
func TestInsertAggregates(t *testing.T) {
	c := salesCube(t)
	if c.NumRows() != 6 {
		t.Fatalf("NumRows = %d", c.NumRows())
	}
	if c.NumCells() != 5 {
		t.Fatalf("NumCells = %d, want 5 (two rows share a cell)", c.NumCells())
	}
	cell, ok := c.Lookup("2014", "US", "A")
	if !ok || cell.Sum != 9 || cell.Count != 2 {
		t.Fatalf("merged cell = %+v ok=%v", cell, ok)
	}
	if _, ok := c.Lookup("1999", "US", "A"); ok {
		t.Fatal("absent cell should not be found")
	}
	if got := totalMeasure(c); got != 35 {
		t.Fatalf("total measure = %v", got)
	}
	if got := c.TotalCount(); got != 6 {
		t.Fatalf("TotalCount = %v", got)
	}
}

func TestCellsOrderDeterministic(t *testing.T) {
	c := salesCube(t)
	cells := c.Cells()
	if len(cells) != 5 {
		t.Fatalf("len = %d", len(cells))
	}
	if cells[0].Count != 2 {
		t.Fatalf("largest cluster first, got count %d", cells[0].Count)
	}
	// Two identical cubes must iterate identically.
	c2 := salesCube(t)
	cells2 := c2.Cells()
	for i := range cells {
		if strings.Join(cells[i].Coords, "|") != strings.Join(cells2[i].Coords, "|") {
			t.Fatal("iteration order not deterministic")
		}
	}
}

func TestTopCells(t *testing.T) {
	c := salesCube(t)
	top := c.TopCells(2)
	if len(top) != 2 || top[0].Count < top[1].Count {
		t.Fatalf("TopCells = %+v", top)
	}
	if got := c.TopCells(100); len(got) != 5 {
		t.Fatalf("TopCells over-ask = %d", len(got))
	}
}

// TestRollUp aggregates region away by keeping the other dimensions in
// schema order: the rolled-up cells fold the rows that differed only in
// region, and the totals and row provenance are conserved.
func TestRollUp(t *testing.T) {
	c := salesCube(t)
	r, err := c.DimensionCube("time", "product")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(r.schema.Dims()); got != "[time product]" {
		t.Fatalf("rollup schema = %v", got)
	}
	cell, ok := r.Lookup("2014", "A")
	if !ok || cell.Sum != 9 || cell.Count != 2 {
		t.Fatalf("rolled cell = %+v", cell)
	}
	if cell, ok := r.Lookup("2012", "A"); !ok || cell.Sum != 10 || cell.Count != 1 {
		t.Fatalf("rolled cell 2012/A = %+v ok=%v", cell, ok)
	}
	if r.NumCells() != 5 {
		t.Fatalf("rollup cells = %d, want 5", r.NumCells())
	}
	if totalMeasure(r) != totalMeasure(c) {
		t.Fatal("rollup must conserve total measure")
	}
	if r.NumRows() != c.NumRows() {
		t.Fatal("rollup must keep row provenance")
	}
	if _, err := c.DimensionCube("time", "bogus"); err == nil {
		t.Fatal("unknown dim should error")
	}
}

func TestDimensionCube(t *testing.T) {
	c := salesCube(t)
	dc, err := c.DimensionCube("product", "time")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(dc.schema.Dims()); got != "[product time]" {
		t.Fatalf("dc schema = %v", got)
	}
	cell, ok := dc.Lookup("A", "2014")
	if !ok || cell.Sum != 9 || cell.Count != 2 {
		t.Fatalf("dc cell = %+v", cell)
	}
	if totalMeasure(dc) != totalMeasure(c) || dc.TotalCount() != c.TotalCount() || dc.NumRows() != c.NumRows() {
		t.Fatal("dimension cube must conserve totals")
	}
	if _, err := c.DimensionCube("zzz"); err == nil {
		t.Fatal("unknown dim should error")
	}
}

func TestStorageBytesGrows(t *testing.T) {
	schema := MustSchema("k")
	var rows []Row
	for i := 0; i < 100; i++ {
		rows = append(rows, Row{Coords: []string{fmt.Sprintf("key-%d", i)}, Measure: 1})
	}
	empty := mustBuild(t, schema, nil)
	once := mustBuild(t, schema, rows)
	if once.StorageBytes() <= empty.StorageBytes() {
		t.Fatal("storage should grow with cells")
	}
	// Duplicate keys do not grow storage.
	twice := mustBuild(t, schema, append(rows, rows...))
	if twice.StorageBytes() != once.StorageBytes() {
		t.Fatal("aggregating into existing cells should not grow storage")
	}
}

// Property: any dimension cube conserves total measure and count, and has
// at most as many cells as the base.
func TestDimensionCubeConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := stats.NewRand(seed)
		n := int(nRaw)%200 + 1
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{
				Coords: []string{
					fmt.Sprintf("a%d", rng.Intn(5)),
					fmt.Sprintf("b%d", rng.Intn(5)),
					fmt.Sprintf("c%d", rng.Intn(5)),
				},
				Measure: rng.Float64(),
			}
		}
		c := mustBuild(t, MustSchema("a", "b", "c"), rows)
		dc, err := c.DimensionCube("b")
		if err != nil {
			return false
		}
		return math.Abs(totalMeasure(dc)-totalMeasure(c)) < 1e-6 &&
			dc.TotalCount() == c.TotalCount() &&
			dc.NumCells() <= c.NumCells()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
