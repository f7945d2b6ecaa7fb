package olap

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"bohr/internal/parallel"
)

// refCube is an independent map-backed reference implementation of the
// cube's aggregation semantics — the representation the columnar slabs
// replaced. It keys cells by joined coordinates, tracks insertion order
// explicitly, and folds derived views in that order, so any divergence in
// the columnar cube's interning, hashing, or remap logic shows up as a
// cell-for-cell mismatch.
type refCube struct {
	dims  []string
	cells map[string]*Cell
	order []string
}

func newRefCube(dims []string) *refCube {
	return &refCube{dims: dims, cells: map[string]*Cell{}}
}

func (r *refCube) add(coords []string, sum float64, count int) {
	k := key(coords)
	if c, ok := r.cells[k]; ok {
		c.Sum += sum
		c.Count += count
		return
	}
	r.cells[k] = &Cell{Coords: append([]string(nil), coords...), Sum: sum, Count: count}
	r.order = append(r.order, k)
}

// inOrder returns the cells in insertion order (the cube's row order).
func (r *refCube) inOrder() []Cell {
	out := make([]Cell, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, *r.cells[k])
	}
	return out
}

// inOrder renders the cube cell by cell, in row (= insertion) order.
func (c *Cube) inOrder() []Cell {
	out := make([]Cell, c.NumCells())
	for row := range out {
		out[row] = Cell{Coords: c.coordsForRow(row), Sum: c.sums[row], Count: c.counts[row]}
	}
	return out
}

// sorted returns the cells in the Cells() order: count desc, key asc.
func (r *refCube) sorted() []Cell {
	keys := append([]string(nil), r.order...)
	sort.Slice(keys, func(i, j int) bool {
		a, b := r.cells[keys[i]], r.cells[keys[j]]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return keys[i] < keys[j]
	})
	out := make([]Cell, 0, len(keys))
	for _, k := range keys {
		out = append(out, *r.cells[k])
	}
	return out
}

func (r *refCube) dimIndex(dim string) int {
	for i, d := range r.dims {
		if d == dim {
			return i
		}
	}
	return -1
}

// dimensionCube projects every cell onto dims, in the order given, and
// folds the projections in insertion order.
func (r *refCube) dimensionCube(dims ...string) *refCube {
	out := newRefCube(dims)
	idx := make([]int, len(dims))
	for k, d := range dims {
		idx[k] = r.dimIndex(d)
	}
	coords := make([]string, len(dims))
	for _, c := range r.inOrder() {
		for k, di := range idx {
			coords[k] = c.Coords[di]
		}
		out.add(coords, c.Sum, c.Count)
	}
	return out
}

// refBuild folds rows the way BuildCube is specified to: fixed buildGrain
// chunks, each one sequential pass, merged into the first in chunk order.
func refBuild(dims []string, rows []Row) *refCube {
	out := newRefCube(dims)
	for lo := 0; lo < len(rows); lo += buildGrain {
		chunk := newRefCube(dims)
		for _, r := range rows[lo:min(lo+buildGrain, len(rows))] {
			chunk.add(r.Coords, r.Measure, 1)
		}
		for _, c := range chunk.inOrder() {
			out.add(c.Coords, c.Sum, c.Count)
		}
	}
	return out
}

// matchCells compares a cube against the reference cell-for-cell: same
// insertion order (row order), same sorted order including tie-breaks
// (Cells / TopCells), and every reference cell reachable through Lookup.
// exact demands bit-equal sums; otherwise a relative tolerance absorbs
// the chunked fold's reassociated additions.
func matchCells(t *testing.T, label string, c *Cube, ref *refCube, exact bool) {
	t.Helper()
	sumEq := func(a, b float64) bool {
		if exact {
			return a == b
		}
		return approxEq(a, b)
	}
	check := func(kind string, got, want []Cell) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d cells, want %d", label, kind, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if fmt.Sprint(g.Coords) != fmt.Sprint(w.Coords) || g.Count != w.Count || !sumEq(g.Sum, w.Sum) {
				t.Fatalf("%s %s cell %d: got %v sum=%v count=%d, want %v sum=%v count=%d",
					label, kind, i, g.Coords, g.Sum, g.Count, w.Coords, w.Sum, w.Count)
			}
		}
	}
	check("rows", c.inOrder(), ref.inOrder())
	wantSorted := ref.sorted()
	check("cells", c.Cells(), wantSorted)
	k := len(wantSorted)/2 + 1
	check("topcells", c.TopCells(k), wantSorted[:min(k, len(wantSorted))])
	for _, w := range ref.inOrder() {
		got, ok := c.Lookup(w.Coords...)
		if !ok {
			t.Fatalf("%s lookup %v: missing", label, w.Coords)
		}
		if got.Count != w.Count || !sumEq(got.Sum, w.Sum) {
			t.Fatalf("%s lookup %v: got sum=%v count=%d, want sum=%v count=%d",
				label, w.Coords, got.Sum, got.Count, w.Sum, w.Count)
		}
	}
	if _, ok := c.Lookup(make([]string, len(ref.dims))...); ok {
		t.Fatalf("%s lookup of unseen coords succeeded", label)
	}
}

// TestColumnarMatchesMapReference property-tests the columnar cube
// against the map-backed reference, for BuildCube and for DimensionCube
// over the built cube, at widths 1, 4 and 8. The reference folds the same
// fixed chunks BuildCube does, so every width must match it bit for bit:
// cells, counts, both orders, lookups and sums.
func TestColumnarMatchesMapReference(t *testing.T) {
	prev := parallel.DefaultWidth()
	defer parallel.SetDefaultWidth(prev)

	dims := []string{"region", "product", "day"}
	for _, width := range []int{1, 4, 8} {
		parallel.SetDefaultWidth(width)
		rng := rand.New(rand.NewSource(606)) // same rows at every width
		for trial := 0; trial < 4; trial++ {
			rows := randomRows(rng, buildGrain+500+rng.Intn(2000)) // more than one chunk
			ref := refBuild(dims, rows)
			c, err := BuildCube(MustSchema(dims...), rows, width)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("width %d trial %d", width, trial)
			matchCells(t, label+" base", c, ref, true)

			for _, sub := range [][]string{{"day", "region", "product"}, {"day", "region"}} {
				dc, err := c.DimensionCube(sub...)
				if err != nil {
					t.Fatal(err)
				}
				matchCells(t, fmt.Sprintf("%s dimension cube %v", label, sub), dc, ref.dimensionCube(sub...), true)
			}
		}
	}
}
