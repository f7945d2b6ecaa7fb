package olap

import (
	"fmt"
	"strings"
)

// Columns is a cube's cells as the cube holds them, which is the form a
// durability snapshot stores. Row position is insertion order, which a
// restore must reproduce for the cube's deterministic walks
// (TotalMeasure, derived cubes) to stay bit-identical; Cells() sorts by
// descending count and would scramble it.
type Columns struct {
	Dicts  [][]string // Dicts[d][id] = the coordinate dimension d interned as id
	Coords [][]uint32 // Coords[d][row] = coordinate ID of cell row in dimension d
	Sums   []float64
	Counts []int
	Rows   int // raw records folded in
}

// ExportColumns copies the cube's columns out (the coordinate strings
// themselves are shared — they are immutable).
func (c *Cube) ExportColumns() Columns {
	out := Columns{
		Dicts:  make([][]string, len(c.dicts)),
		Coords: make([][]uint32, len(c.cols)),
		Sums:   append([]float64(nil), c.sums...),
		Counts: append([]int(nil), c.counts...),
		Rows:   c.rows,
	}
	for d := range c.dicts {
		out.Dicts[d] = append([]string(nil), c.dicts[d].vals...)
		out.Coords[d] = append([]uint32(nil), c.cols[d]...)
	}
	return out
}

// RestoreCube rebuilds a cube from an ExportColumns dump, re-interning
// the dictionaries and re-indexing the cells in row order. Columns of
// the wrong arity or uneven length, an ID outside its dictionary, a
// coordinate that repeats or holds the reserved separator, or a cell
// that repeats mean the dump is malformed and are rejected.
func RestoreCube(schema *Schema, cols Columns) (*Cube, error) {
	nd, n := schema.NumDims(), len(cols.Sums)
	if len(cols.Dicts) != nd || len(cols.Coords) != nd || len(cols.Counts) != n {
		return nil, fmt.Errorf("olap: restore cube: %d dictionaries, %d coordinate columns, %d counts for %d dims, %d sums",
			len(cols.Dicts), len(cols.Coords), len(cols.Counts), nd, n)
	}
	out := NewCube(schema)
	for d, vals := range cols.Dicts {
		if len(cols.Coords[d]) != n {
			return nil, fmt.Errorf("olap: restore cube: dim %d has %d coordinates for %d cells", d, len(cols.Coords[d]), n)
		}
		for id, v := range vals {
			if strings.ContainsRune(v, sep) {
				return nil, fmt.Errorf("olap: restore cube: dim %d coordinate %d contains reserved separator", d, id)
			}
			if out.dicts[d].intern(v) != uint32(id) {
				return nil, fmt.Errorf("olap: restore cube: dim %d repeats coordinate %q", d, v)
			}
		}
	}
	ids := make([]uint32, nd)
	for row := 0; row < n; row++ {
		for d := range ids {
			if ids[d] = cols.Coords[d][row]; int(ids[d]) >= len(cols.Dicts[d]) {
				return nil, fmt.Errorf("olap: restore cube: cell %d dim %d has ID %d of %d", row, d, ids[d], len(cols.Dicts[d]))
			}
		}
		if at := out.upsertRow(ids, hashIDs(ids)); at != int32(row) {
			return nil, fmt.Errorf("olap: restore cube: duplicate cell %v at rows %d and %d", out.coordsForRow(int(at)), at, row)
		}
	}
	copy(out.sums, cols.Sums)
	copy(out.counts, cols.Counts)
	out.rows, out.gen = cols.Rows, uint64(n) // one mutation per cell, as if each had been added
	return out, nil
}

// RestoreBase swaps the cube set's base cube for one rebuilt from a
// snapshot, invalidating every materialized dimension cube (they
// rebuild from the new base on their next Prepare — the always-correct
// eviction path). Registered query types survive; only their cached
// cubes drop.
func (cs *CubeSet) RestoreBase(cols Columns) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	nb, err := RestoreCube(cs.base.schema, cols)
	if err != nil {
		return err
	}
	// Carry the generation forward monotonically: a derived cube built
	// against the old base must never read as current against the new
	// one, and the store's logical clock cannot move backwards.
	nb.gen += cs.base.gen
	cs.base = nb
	for _, id := range cs.idsLocked() {
		cs.store.Delete(id)
	}
	cs.store.AdvanceTo(cs.base.Generation())
	return nil
}
