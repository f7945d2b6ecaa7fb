package olap

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestColumnsRoundTrip exports a randomly filled cube's columns, restores
// them and demands the same cube back: bit-equal columns in the same row
// order, the same raw row count, every cell reachable through Lookup, and
// the same derived cube — then inserts into both and demands they still
// agree, so the rebuilt dictionaries and index are live, not just equal.
func TestColumnsRoundTrip(t *testing.T) {
	schema := MustSchema("a", "b", "c")
	rng := rand.New(rand.NewSource(3))
	row := func() Row {
		return Row{
			Coords:  []string{"a" + string(rune('0'+rng.Intn(9))), "", "c%\n" + string(rune('0'+rng.Intn(5)))},
			Measure: rng.NormFloat64(),
		}
	}
	c := NewCube(schema)
	for i := 0; i < 400; i++ {
		if err := c.Insert(row()); err != nil {
			t.Fatal(err)
		}
	}
	c.add([]string{"nan", "", "x"}, math.NaN(), 2)
	c.add([]string{"neg0", "", "x"}, math.Copysign(0, -1), 1)

	cols := c.ExportColumns()
	got, err := RestoreCube(schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b *Cube) {
		t.Helper()
		ac, bc := a.ExportColumns(), b.ExportColumns()
		for i := range ac.Sums {
			if math.Float64bits(ac.Sums[i]) != math.Float64bits(bc.Sums[i]) {
				t.Fatalf("sum %d: %x, want %x", i, math.Float64bits(bc.Sums[i]), math.Float64bits(ac.Sums[i]))
			}
		}
		ac.Sums, bc.Sums = nil, nil
		if !reflect.DeepEqual(ac, bc) {
			t.Fatalf("columns differ:\n got %+v\nwant %+v", bc, ac)
		}
		if a.StorageBytes() != b.StorageBytes() {
			t.Fatalf("storage bytes %d, want %d", b.StorageBytes(), a.StorageBytes())
		}
		for _, cell := range ac.cells() {
			if hit, ok := b.Lookup(cell.Coords...); !ok || hit.Count != cell.Count {
				t.Fatalf("cell %v: lookup %v %v, want count %d", cell.Coords, hit, ok, cell.Count)
			}
		}
	}
	same(c, got)
	for i := 0; i < 100; i++ {
		r := row()
		if err := c.Insert(r); err != nil {
			t.Fatal(err)
		}
		if err := got.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	same(c, got)
	wantDim, err := c.DimensionCube("a")
	if err != nil {
		t.Fatal(err)
	}
	gotDim, err := got.DimensionCube("a")
	if err != nil {
		t.Fatal(err)
	}
	same(wantDim, gotDim)
}

// TestRestoreCubeRejectsMalformedColumns damages a valid dump one way at
// a time; each must be refused with an error that says what is wrong.
func TestRestoreCubeRejectsMalformedColumns(t *testing.T) {
	schema := MustSchema("a", "b")
	valid := func() Columns {
		c := NewCube(schema)
		for _, coords := range [][]string{{"x", "p"}, {"y", "p"}, {"x", "q"}} {
			c.add(coords, 1.5, 2)
		}
		return c.ExportColumns()
	}
	if _, err := RestoreCube(schema, valid()); err != nil {
		t.Fatalf("valid dump refused: %v", err)
	}
	for _, tc := range []struct {
		name   string
		damage func(*Columns)
		want   string
	}{
		{"missing dictionary", func(c *Columns) { c.Dicts = c.Dicts[:1] }, "1 dictionaries"},
		{"extra column", func(c *Columns) { c.Coords = append(c.Coords, nil) }, "3 coordinate columns"},
		{"short counts", func(c *Columns) { c.Counts = c.Counts[:2] }, "2 counts"},
		{"short column", func(c *Columns) { c.Coords[1] = c.Coords[1][:2] }, "coordinates for 3 cells"},
		{"id out of range", func(c *Columns) { c.Coords[0][2] = 7 }, "has ID 7 of 2"},
		{"duplicate cell", func(c *Columns) { c.Coords[1][2] = 0 }, "duplicate cell"},
		{"duplicate coordinate", func(c *Columns) { c.Dicts[0][1] = "x" }, "repeats coordinate"},
		{"separator", func(c *Columns) { c.Dicts[1][0] = "p" + string(sep) }, "reserved separator"},
	} {
		cols := valid()
		tc.damage(&cols)
		_, err := RestoreCube(schema, cols)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
