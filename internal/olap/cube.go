package olap

import (
	"fmt"
	"sort"
	"strings"
)

// sep separates coordinates inside a cell key. It is a non-printing
// character that must not appear in coordinate values.
const sep = '\x1f'

// Cell is one populated cube cell: a coordinate per dimension, the
// aggregated measure (sum), and the number of raw records folded in.
type Cell struct {
	Coords []string
	Sum    float64
	Count  int
}

// Cube is a sparse multi-dimensional OLAP cube: its cells in
// first-insertion order, indexed by their joined coordinates.
//
// A Cube is immutable once BuildCube or DimensionCube returns it, so any
// number of goroutines may read it concurrently. Cells and TopCells
// return fully independent copies (coordinate slices included).
//
// Every fold — BuildCube over rows, DimensionCube over cells — is one
// sequential pass in input order, so every Sum is bit-reproducible.
type Cube struct {
	schema *Schema
	cells  []Cell         // first-insertion order
	keys   []string       // keys[i] is cells[i]'s joined coordinates
	index  map[string]int // joined coordinates → position in cells
	rows   int            // raw records folded in
}

// newCube creates an empty cube over the schema.
func newCube(schema *Schema) *Cube {
	return &Cube{schema: schema, index: make(map[string]int)}
}

// add folds sum and count into the cell at coords, appending the cell
// when it is new. buf is scratch for the joined key; add returns it for
// reuse, so only a new cell allocates.
func (c *Cube) add(buf []byte, coords []string, sum float64, count int) []byte {
	buf = buf[:0]
	for d, v := range coords {
		if d > 0 {
			buf = append(buf, sep)
		}
		buf = append(buf, v...)
	}
	i, ok := c.index[string(buf)]
	if !ok {
		i = len(c.cells)
		k := string(buf)
		c.index[k] = i
		c.keys = append(c.keys, k)
		c.cells = append(c.cells, Cell{Coords: append([]string(nil), coords...)})
	}
	c.cells[i].Sum += sum
	c.cells[i].Count += count
	return buf
}

// BuildCube constructs a cube over schema from rows in one sequential
// pass, naming the first malformed row in its error. width is ignored:
// the benchmark harness still passes the pool width the build once took.
func BuildCube(schema *Schema, rows []Row, width int) (*Cube, error) {
	c := newCube(schema)
	nd := schema.NumDims()
	var buf []byte
	for i, r := range rows {
		if len(r.Coords) != nd {
			return nil, fmt.Errorf("row %d: olap: insert: row has %d coords, schema has %d dims",
				i, len(r.Coords), nd)
		}
		for d, v := range r.Coords {
			if strings.IndexByte(v, sep) >= 0 {
				return nil, fmt.Errorf("row %d: olap: insert: coord %d contains reserved separator", i, d)
			}
		}
		buf = c.add(buf, r.Coords, r.Measure, 1)
	}
	c.rows = len(rows)
	return c, nil
}

// NumCells returns the number of populated cells.
func (c *Cube) NumCells() int { return len(c.cells) }

// NumRows returns the number of raw records folded in (directly or via
// the cube this one was derived from).
func (c *Cube) NumRows() int { return c.rows }

// Cells returns all populated cells sorted by descending record count and
// then lexical key order, so iteration is deterministic. The paper's probe
// construction takes the head of this order (largest record clusters).
// The result is a deep copy — coordinate slices included — so the caller
// may modify it without touching the cube.
func (c *Cube) Cells() []Cell {
	order := make([]int, len(c.cells))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if c.cells[x].Count != c.cells[y].Count {
			return c.cells[x].Count > c.cells[y].Count
		}
		return c.keys[x] < c.keys[y]
	})
	out := make([]Cell, len(order))
	for k, i := range order {
		out[k] = c.cells[i]
		out[k].Coords = append([]string(nil), c.cells[i].Coords...)
	}
	return out
}

// TopCells returns the k most populous cells (fewer if the cube is
// smaller), ties broken by lexical key order like Cells — the ordering is
// a total one, so the head-of-order probe selection is deterministic.
// These are the "representative records" a probe carries (§4.2).
func (c *Cube) TopCells(k int) []Cell {
	cells := c.Cells()
	if k < len(cells) {
		cells = cells[:k]
	}
	return cells
}

// TotalCount returns the total raw record count across all cells.
func (c *Cube) TotalCount() int {
	var n int
	for _, cell := range c.cells {
		n += cell.Count
	}
	return n
}

// DimensionCube aggregates the cube down to exactly the named dimensions,
// in the order given — the per-query-type view of §4.1. Dimensions not
// named are aggregated away. The fold is one sequential pass in cell
// order, so the result is bit-reproducible.
func (c *Cube) DimensionCube(dims ...string) (*Cube, error) {
	ns, err := c.schema.Project(dims...)
	if err != nil {
		return nil, fmt.Errorf("olap: dimension cube: %w", err)
	}
	out := newCube(ns)
	src := make([]int, len(dims))
	for k, d := range dims {
		src[k] = c.schema.Index(d)
	}
	coords := make([]string, len(dims))
	var buf []byte
	for _, cell := range c.cells {
		for k, si := range src {
			coords[k] = cell.Coords[si]
		}
		buf = out.add(buf, coords, cell.Sum, cell.Count)
	}
	out.rows = c.rows
	return out, nil
}

// StorageBytes estimates the in-memory/on-disk footprint of the cube:
// per-cell key bytes plus fixed cell overhead. Table 6 of the paper reports
// this overhead; the estimate uses 16 bytes for the sum/count pair plus the
// joined coordinate bytes, mirroring a compact columnar encoding.
func (c *Cube) StorageBytes() int64 {
	var n int64
	for _, k := range c.keys {
		n += int64(len(k)) + 16
	}
	return n
}
