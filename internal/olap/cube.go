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

// dict interns one dimension's coordinate values: every distinct string
// gets a dense uint32 ID in first-seen order. IDs are local to one cube —
// a derived cube re-interns through a precomputed remap table — so a
// dimension with v distinct values costs one map plus one string slice,
// and every per-cell coordinate is a 4-byte column entry instead of a
// string header.
type dict struct {
	byVal map[string]uint32
	vals  []string // vals[id] is the interned string; len(vals) == len(byVal)
}

func newDict() dict { return dict{byVal: make(map[string]uint32)} }

// intern returns v's ID, assigning the next dense ID on first sight.
func (d *dict) intern(v string) uint32 {
	if id, ok := d.byVal[v]; ok {
		return id
	}
	id := uint32(len(d.vals))
	d.vals = append(d.vals, v)
	d.byVal[v] = id
	return id
}

// internBytes is intern for a byte-slice key span. The hit path does not
// allocate (Go's map[string] lookup on string(b) is optimized to skip the
// conversion); only a first-seen value materializes a string.
func (d *dict) internBytes(b []byte) uint32 {
	if id, ok := d.byVal[string(b)]; ok {
		return id
	}
	s := string(b)
	id := uint32(len(d.vals))
	d.vals = append(d.vals, s)
	d.byVal[s] = id
	return id
}

// id returns v's ID without interning.
func (d *dict) id(v string) (uint32, bool) {
	id, ok := d.byVal[v]
	return id, ok
}

// Cube is a sparse multi-dimensional OLAP cube stored as columnar slabs:
// one interned-coordinate-ID column per dimension plus contiguous Sum and
// Count measure columns, indexed by the same packed open-addressed hash
// table the build fold uses (build.go). Row position IS first-insertion
// order, so DimensionCube and TotalCount are tight loops over contiguous
// memory — no map iteration, no string keys, no per-cell heap objects.
//
// A Cube is immutable once BuildCube or DimensionCube returns it, so any
// number of goroutines may read it concurrently. Cells and TopCells
// return fully independent copies (coordinate slices included).
//
// DimensionCube folds cells in row order, never map order, so every
// derived Sum is bit-reproducible.
type Cube struct {
	schema *Schema
	dicts  []dict     // one interning dictionary per dimension
	cols   [][]uint32 // cols[d][row] = coordinate ID of cell `row` in dim d
	sums   []float64  // sums[row] = aggregated measure
	counts []int      // counts[row] = raw records folded in
	idx    *cellTable // ID-tuple hash → row, shared layout with the fold

	// keyBytes is the running total of joined-key bytes across cells
	// (coordinate bytes + nd-1 separators per cell), maintained as rows
	// are appended so StorageBytes is O(1).
	keyBytes int64

	rows int // raw records folded in
}

// newCube creates an empty cube over the schema.
func newCube(schema *Schema) *Cube {
	nd := schema.NumDims()
	c := &Cube{
		schema: schema,
		dicts:  make([]dict, nd),
		cols:   make([][]uint32, nd),
		// Cube indexes start at 256 slots (2KB): most cubes are small
		// derived views, and the table doubles cheaply for the few big ones.
		idx: newCellTableSized(256),
	}
	for d := range c.dicts {
		c.dicts[d] = newDict()
	}
	return c
}

// NumCells returns the number of populated cells.
func (c *Cube) NumCells() int { return len(c.sums) }

// NumRows returns the number of raw records folded in (directly or via
// the cube this one was derived from).
func (c *Cube) NumRows() int { return c.rows }

func key(coords []string) string { return strings.Join(coords, string(sep)) }

// hashIDs hashes a cell's coordinate-ID tuple: FNV-style fold over the
// IDs (offset by one so the all-zeros tuple doesn't hash to the FNV
// offset basis fixed point) finished with the same avalanche hashKey
// uses, because the packed table masks with the LOW bits.
func hashIDs(ids []uint32) uint64 {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := offset
	for _, id := range ids {
		h = (h ^ (uint64(id) + 1)) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// rowMatches reports whether the cell at row has exactly the given
// coordinate IDs.
func (c *Cube) rowMatches(row int32, ids []uint32) bool {
	for d, id := range ids {
		if c.cols[d][row] != id {
			return false
		}
	}
	return true
}

// findRow returns the row holding the ID tuple, or -1. Read-only — safe
// for concurrent lookups.
func (c *Cube) findRow(ids []uint32, h uint64) int32 {
	entries := c.idx.entries
	mask := uint64(len(entries) - 1)
	tag := h & tagMask
	for j := h & mask; ; j++ {
		e := entries[j&mask]
		if e == 0 {
			return -1
		}
		if e&tagMask == tag {
			row := int32(e&idxMask) - 1
			if c.rowMatches(row, ids) {
				return row
			}
		}
	}
}

// appendRow appends a zeroed cell with the given coordinate IDs and
// accounts its joined-key bytes. Callers must also index it (upsertRow
// does both).
func (c *Cube) appendRow(ids []uint32) int32 {
	kb := 0
	for d, id := range ids {
		c.cols[d] = append(c.cols[d], id)
		kb += len(c.dicts[d].vals[id])
	}
	if len(ids) > 1 {
		kb += len(ids) - 1
	}
	c.keyBytes += int64(kb)
	c.sums = append(c.sums, 0)
	c.counts = append(c.counts, 0)
	return int32(len(c.sums) - 1)
}

// upsertRow returns the row for the ID tuple, appending (and indexing) a
// new zeroed row when absent. Only a cube under construction calls it.
func (c *Cube) upsertRow(ids []uint32, h uint64) int32 {
	t := c.idx
	tag := h & tagMask
	entries := t.entries
	mask := uint64(len(entries) - 1)
	j := h & mask
	for {
		e := entries[j&mask]
		if e == 0 {
			row := c.appendRow(ids)
			t.add(j&mask, h)
			return row
		}
		if e&tagMask == tag {
			row := int32(e&idxMask) - 1
			if c.rowMatches(row, ids) {
				return row
			}
		}
		j++
	}
}

// Lookup returns the cell's measures at the given coordinates, if
// populated. Coordinates resolve through the per-dimension dictionaries to
// a stack ID buffer and one packed-table probe — zero heap allocations, no
// key join. The returned Cell carries no Coords (the caller passed them
// in); use Cells for full copies.
func (c *Cube) Lookup(coords ...string) (Cell, bool) {
	nd := len(c.dicts)
	if len(coords) != nd || len(c.sums) == 0 {
		return Cell{}, false
	}
	var buf [8]uint32
	var ids []uint32
	if nd <= len(buf) {
		ids = buf[:nd]
	} else {
		ids = make([]uint32, nd)
	}
	for d, v := range coords {
		id, ok := c.dicts[d].id(v)
		if !ok {
			return Cell{}, false
		}
		ids[d] = id
	}
	row := c.findRow(ids, hashIDs(ids))
	if row < 0 {
		return Cell{}, false
	}
	return Cell{Sum: c.sums[row], Count: c.counts[row]}, true
}

// coordsForRow materializes a fresh coordinate slice for one cell row.
func (c *Cube) coordsForRow(row int) []string {
	coords := make([]string, len(c.dicts))
	for d := range c.dicts {
		coords[d] = c.dicts[d].vals[c.cols[d][row]]
	}
	return coords
}

// cellSorter sorts materialized cells by descending Count then lexical
// joined-key order, with the keys precomputed once instead of re-joined
// O(n log n) times inside the comparator.
type cellSorter struct {
	cells []Cell
	keys  []string
}

func (s *cellSorter) Len() int { return len(s.cells) }
func (s *cellSorter) Less(i, j int) bool {
	if s.cells[i].Count != s.cells[j].Count {
		return s.cells[i].Count > s.cells[j].Count
	}
	return s.keys[i] < s.keys[j]
}
func (s *cellSorter) Swap(i, j int) {
	s.cells[i], s.cells[j] = s.cells[j], s.cells[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// Cells returns all populated cells sorted by descending record count and
// then lexical key order, so iteration is deterministic. The paper's probe
// construction takes the head of this order (largest record clusters).
// The result is a deep copy — coordinate slices included — so the caller
// may modify it without touching the cube.
func (c *Cube) Cells() []Cell {
	n := len(c.sums)
	out := make([]Cell, 0, n)
	keys := make([]string, n)
	for row := 0; row < n; row++ {
		coords := c.coordsForRow(row)
		out = append(out, Cell{Coords: coords, Sum: c.sums[row], Count: c.counts[row]})
		keys[row] = key(coords)
	}
	sort.Sort(&cellSorter{cells: out, keys: keys})
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
	for _, v := range c.counts {
		n += v
	}
	return n
}

// DimensionCube aggregates the cube down to exactly the named dimensions,
// in the order given — the per-query-type view of §4.1. Dimensions not
// named are aggregated away. The fold is one sequential pass in row
// order, so the result is bit-reproducible.
func (c *Cube) DimensionCube(dims ...string) (*Cube, error) {
	ns, err := c.schema.Project(dims...)
	if err != nil {
		return nil, fmt.Errorf("olap: dimension cube: %w", err)
	}
	out := newCube(ns)
	srcIdx := make([]int, len(dims))
	remap := make([][]uint32, len(dims))
	for k, d := range dims {
		si := c.schema.Index(d)
		srcIdx[k] = si
		// Interning every source value once, in source-ID (first-seen)
		// order, makes the fold pure integer column work and keeps the
		// derived IDs deterministic.
		remap[k] = make([]uint32, len(c.dicts[si].vals))
		for id, v := range c.dicts[si].vals {
			remap[k][id] = out.dicts[k].intern(v)
		}
	}
	ids := make([]uint32, len(dims))
	for row := range c.sums {
		for k, si := range srcIdx {
			ids[k] = remap[k][c.cols[si][row]]
		}
		r := out.upsertRow(ids, hashIDs(ids))
		out.sums[r] += c.sums[row]
		out.counts[r] += c.counts[row]
	}
	out.rows = c.rows
	return out, nil
}

// StorageBytes estimates the in-memory/on-disk footprint of the cube:
// per-cell key bytes plus fixed cell overhead. Table 6 of the paper reports
// this overhead; the estimate uses 16 bytes for the sum/count pair plus the
// coordinate bytes, mirroring a compact columnar encoding. Maintained
// incrementally as cells appear, so this is O(1).
func (c *Cube) StorageBytes() int64 {
	return c.keyBytes + 16*int64(len(c.sums))
}
