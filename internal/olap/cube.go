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

func (d *dict) clone() dict {
	out := dict{
		byVal: make(map[string]uint32, len(d.byVal)),
		vals:  append([]string(nil), d.vals...),
	}
	for v, id := range d.byVal {
		out.byVal[v] = id
	}
	return out
}

// Cube is a sparse multi-dimensional OLAP cube stored as columnar slabs:
// one interned-coordinate-ID column per dimension plus contiguous Sum and
// Count measure columns, indexed by the same packed open-addressed hash
// table the pooled fold uses (build.go). Row position IS insertion order,
// so the fold walks that RollUp/Slice/Dice/DimensionCube and the Total*
// reductions perform are tight loops over contiguous memory — no map
// iteration, no string keys, no per-cell heap objects.
//
// Concurrency contract: a Cube is NOT self-synchronized. Any number of
// goroutines may call read-only methods (Lookup, Cells, TopCells,
// Total*, Slice, Dice, RollUp*, DimensionCube, Pivot, Clone,
// StorageBytes) concurrently, but mutation (Insert, InsertAll, add)
// must not overlap with reads or other mutations — CubeSet is the
// synchronized wrapper for mixed workloads. Cells and TopCells return
// fully independent copies (coordinate slices included), so holding a
// result across later mutations is safe.
//
// Iteration state: the cube tracks cell insertion order (row order) and
// every aggregation (RollUp, Slice, DimensionCube, …) folds cells in that
// order. Folding floats in map-iteration order — the pre-PR 4 behavior —
// made derived-cube Sums depend on Go's randomized map order; the
// insertion-order walk makes every derived cube bit-reproducible.
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

	scratch []uint32 // ID buffer for mutations (which never overlap)
	rows    int      // raw records inserted
	gen     uint64   // bumped on every mutation; keys derived-cube memoization
}

// NewCube creates an empty cube over the schema.
func NewCube(schema *Schema) *Cube {
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

// Schema returns the cube's schema.
func (c *Cube) Schema() *Schema { return c.schema }

// NumCells returns the number of populated cells.
func (c *Cube) NumCells() int { return len(c.sums) }

// NumRows returns the number of raw records inserted (directly or via the
// cube this one was derived from).
func (c *Cube) NumRows() int { return c.rows }

// Generation returns a counter that increases with every mutation of the
// cube. A derived artifact (dimension cube, probe, …) computed at
// generation g is still valid iff the base cube's generation is still g —
// the versioned-memo key CubeSet's cache and placement's cube cache use.
func (c *Cube) Generation() uint64 { return c.gen }

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
// new zeroed row when absent. Mutation — must not race with reads.
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

// Insert folds one row into the cube. The row must have exactly one
// coordinate per schema dimension, and coordinates must not contain the
// reserved separator character.
func (c *Cube) Insert(r Row) error {
	if len(r.Coords) != c.schema.NumDims() {
		return fmt.Errorf("olap: insert: row has %d coords, schema has %d dims",
			len(r.Coords), c.schema.NumDims())
	}
	for i, v := range r.Coords {
		if strings.ContainsRune(v, sep) {
			return fmt.Errorf("olap: insert: coord %d contains reserved separator", i)
		}
	}
	c.add(r.Coords, r.Measure, 1)
	c.rows++
	return nil
}

// InsertAll folds rows into the cube, stopping at the first error.
func (c *Cube) InsertAll(rows []Row) error {
	for i, r := range rows {
		if err := c.Insert(r); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// add merges a pre-aggregated cell contribution.
func (c *Cube) add(coords []string, sum float64, count int) {
	if c.scratch == nil {
		c.scratch = make([]uint32, c.schema.NumDims())
	}
	ids := c.scratch[:len(coords)]
	for d, v := range coords {
		ids[d] = c.dicts[d].intern(v)
	}
	row := c.upsertRow(ids, hashIDs(ids))
	c.sums[row] += sum
	c.counts[row] += count
	c.gen++
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
// The result is a deep copy — coordinate slices included — so it stays
// valid and immutable however the cube is mutated afterwards.
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

// TotalMeasure returns the sum of measures across all cells, folded in
// insertion order (deterministic despite float non-associativity).
func (c *Cube) TotalMeasure() float64 {
	var s float64
	for _, v := range c.sums {
		s += v
	}
	return s
}

// TotalCount returns the total raw record count across all cells.
func (c *Cube) TotalCount() int {
	var n int
	for _, v := range c.counts {
		n += v
	}
	return n
}

// buildRemap interns every value of the source dictionary into dst
// (optionally coarsened) and returns the srcID → dstID translation, so a
// derived-cube fold is pure integer column work with no per-row string
// handling. Interning runs in source-ID order — first-seen order — which
// keeps the derived cube's IDs, and therefore everything downstream,
// deterministic.
func buildRemap(src *dict, dst *dict, coarsen func(string) string) []uint32 {
	remap := make([]uint32, len(src.vals))
	for id, v := range src.vals {
		if coarsen != nil {
			v = coarsen(v)
		}
		remap[id] = dst.intern(v)
	}
	return remap
}

// Slice picks the sub-array where dim == value and removes that dimension,
// producing a cube with one fewer dimension (§2.2).
func (c *Cube) Slice(dim, value string) (*Cube, error) {
	di := c.schema.Index(dim)
	if di < 0 {
		return nil, fmt.Errorf("olap: slice: unknown dimension %q", dim)
	}
	ns, err := c.schema.Without(dim)
	if err != nil {
		return nil, fmt.Errorf("olap: slice: %w", err)
	}
	out := NewCube(ns)
	vid, ok := c.dicts[di].id(value)
	if !ok {
		return out, nil // value never seen: empty result
	}
	kept := make([]int, 0, len(c.dicts)-1)
	for d := range c.dicts {
		if d != di {
			kept = append(kept, d)
		}
	}
	remap := make([][]uint32, len(kept))
	for k, d := range kept {
		remap[k] = buildRemap(&c.dicts[d], &out.dicts[k], nil)
	}
	ids := make([]uint32, len(kept))
	filter := c.cols[di]
	for row := 0; row < len(c.sums); row++ {
		if filter[row] != vid {
			continue
		}
		for k, d := range kept {
			ids[k] = remap[k][c.cols[d][row]]
		}
		r := out.upsertRow(ids, hashIDs(ids))
		out.sums[r] += c.sums[row]
		out.counts[r] += c.counts[row]
		out.gen++
		out.rows += c.counts[row]
	}
	return out, nil
}

// Dice produces a subcube keeping only cells whose coordinate for each
// filtered dimension is in the allowed set. Dimensions absent from filters
// are unconstrained. The schema is unchanged (§2.2).
func (c *Cube) Dice(filters map[string][]string) (*Cube, error) {
	// allowed[d] is nil for unconstrained dimensions; otherwise a bitmap
	// over dimension d's IDs (filter values never seen stay false — no
	// cell can match them).
	allowed := make([][]bool, len(c.dicts))
	for dim, vals := range filters {
		di := c.schema.Index(dim)
		if di < 0 {
			return nil, fmt.Errorf("olap: dice: unknown dimension %q", dim)
		}
		set := make([]bool, len(c.dicts[di].vals))
		for _, v := range vals {
			if id, ok := c.dicts[di].id(v); ok {
				set[id] = true
			}
		}
		allowed[di] = set
	}
	out := NewCube(c.schema)
	// Same schema, same coordinates: share the interned vocabulary so the
	// kept rows' IDs pass through unchanged.
	for d := range c.dicts {
		out.dicts[d] = c.dicts[d].clone()
	}
	ids := make([]uint32, len(c.dicts))
	for row := 0; row < len(c.sums); row++ {
		keep := true
		for d, set := range allowed {
			if set != nil && !set[c.cols[d][row]] {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		for d := range ids {
			ids[d] = c.cols[d][row]
		}
		r := out.upsertRow(ids, hashIDs(ids))
		out.sums[r] += c.sums[row]
		out.counts[r] += c.counts[row]
		out.gen++
		out.rows += c.counts[row]
	}
	return out, nil
}

// RollUp aggregates away one dimension entirely, producing the dimension
// cube over the remaining dimensions.
func (c *Cube) RollUp(dim string) (*Cube, error) {
	di := c.schema.Index(dim)
	if di < 0 {
		return nil, fmt.Errorf("olap: rollup: unknown dimension %q", dim)
	}
	ns, err := c.schema.Without(dim)
	if err != nil {
		return nil, fmt.Errorf("olap: rollup: %w", err)
	}
	out := NewCube(ns)
	kept := make([]int, 0, len(c.dicts)-1)
	for d := range c.dicts {
		if d != di {
			kept = append(kept, d)
		}
	}
	remap := make([][]uint32, len(kept))
	for k, d := range kept {
		remap[k] = buildRemap(&c.dicts[d], &out.dicts[k], nil)
	}
	ids := make([]uint32, len(kept))
	for row := 0; row < len(c.sums); row++ {
		for k, d := range kept {
			ids[k] = remap[k][c.cols[d][row]]
		}
		r := out.upsertRow(ids, hashIDs(ids))
		out.sums[r] += c.sums[row]
		out.counts[r] += c.counts[row]
		out.gen++
	}
	out.rows = c.rows
	return out, nil
}

// RollUpLevel coarsens one dimension in place of removing it, using the
// hierarchy's Coarsen function (e.g. day → month). The schema keeps the
// same dimension name.
func (c *Cube) RollUpLevel(h Hierarchy) (*Cube, error) {
	di := c.schema.Index(h.Dim)
	if di < 0 {
		return nil, fmt.Errorf("olap: rollup level: unknown dimension %q", h.Dim)
	}
	if h.Coarsen == nil {
		return nil, fmt.Errorf("olap: rollup level: hierarchy for %q has no coarsen function", h.Dim)
	}
	out := NewCube(c.schema)
	remap := make([][]uint32, len(c.dicts))
	for d := range c.dicts {
		coarsen := h.Coarsen
		if d != di {
			coarsen = nil
		}
		// Coarsening runs once per distinct value here, not once per cell.
		remap[d] = buildRemap(&c.dicts[d], &out.dicts[d], coarsen)
	}
	ids := make([]uint32, len(c.dicts))
	for row := 0; row < len(c.sums); row++ {
		for d := range ids {
			ids[d] = remap[d][c.cols[d][row]]
		}
		r := out.upsertRow(ids, hashIDs(ids))
		out.sums[r] += c.sums[row]
		out.counts[r] += c.counts[row]
		out.gen++
	}
	out.rows = c.rows
	return out, nil
}

// DimensionCube aggregates the cube down to exactly the named dimensions,
// in the order given — the per-query-type view of §4.1. Dimensions not
// named are aggregated away. At pool width > 1 the fold runs fixed-grain
// cell chunks through the worker pool (see dimensionCubeFold), which
// keeps the result bit-identical at every pool width > 1; width 1 is the
// plain sequential reference fold.
func (c *Cube) DimensionCube(dims ...string) (*Cube, error) {
	ns, err := c.schema.Project(dims...)
	if err != nil {
		return nil, fmt.Errorf("olap: dimension cube: %w", err)
	}
	srcIdx := make([]int, len(dims))
	for i, d := range dims {
		srcIdx[i] = c.schema.Index(d)
	}
	out := NewCube(ns)
	remap := make([][]uint32, len(dims))
	for k, si := range srcIdx {
		remap[k] = buildRemap(&c.dicts[si], &out.dicts[k], nil)
	}
	c.dimensionCubeFold(out, remap, srcIdx)
	out.rows = c.rows
	return out, nil
}

// Pivot reorders the cube's dimensions. dims must be a permutation of the
// schema's dimensions.
func (c *Cube) Pivot(dims ...string) (*Cube, error) {
	if len(dims) != c.schema.NumDims() {
		return nil, fmt.Errorf("olap: pivot: got %d dims, schema has %d", len(dims), c.schema.NumDims())
	}
	seen := make(map[string]bool, len(dims))
	for _, d := range dims {
		if !c.schema.Has(d) {
			return nil, fmt.Errorf("olap: pivot: unknown dimension %q", d)
		}
		if seen[d] {
			return nil, fmt.Errorf("olap: pivot: dimension %q repeated", d)
		}
		seen[d] = true
	}
	return c.DimensionCube(dims...)
}

// DrillDown rebuilds a finer-grained view from base: it returns base's
// dimension cube over c's dimensions plus the extra dimensions requested.
// (A derived cube cannot invent detail it aggregated away; like real OLAP
// engines we drill down by going back to the base cube.)
func (c *Cube) DrillDown(base *Cube, extra ...string) (*Cube, error) {
	dims := append(append([]string(nil), c.schema.Dims()...), extra...)
	for _, d := range dims {
		if !base.schema.Has(d) {
			return nil, fmt.Errorf("olap: drill down: base cube lacks dimension %q", d)
		}
	}
	return base.DimensionCube(dims...)
}

// Clone returns a deep copy of the cube (insertion order preserved).
func (c *Cube) Clone() *Cube {
	out := &Cube{
		schema:   c.schema,
		dicts:    make([]dict, len(c.dicts)),
		cols:     make([][]uint32, len(c.cols)),
		sums:     append([]float64(nil), c.sums...),
		counts:   append([]int(nil), c.counts...),
		idx:      c.idx.clone(),
		keyBytes: c.keyBytes,
		rows:     c.rows,
		// gen deliberately restarts at zero: a clone is a fresh cube, not a
		// continuation of the original's mutation history.
	}
	for d := range c.dicts {
		out.dicts[d] = c.dicts[d].clone()
		out.cols[d] = append([]uint32(nil), c.cols[d]...)
	}
	return out
}

// StorageBytes estimates the in-memory/on-disk footprint of the cube:
// per-cell key bytes plus fixed cell overhead. Table 6 of the paper reports
// this overhead; the estimate uses 16 bytes for the sum/count pair plus the
// coordinate bytes, mirroring a compact columnar encoding. Maintained
// incrementally as cells appear, so this is O(1).
func (c *Cube) StorageBytes() int64 {
	return c.keyBytes + 16*int64(len(c.sums))
}
