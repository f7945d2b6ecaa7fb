// Package olap builds the sparse OLAP cube of §2.2 and §4.1 of the paper:
// a cell per distinct coordinate tuple, holding the summed measure and
// the number of raw records folded in.
//
// Bohr itself no longer reads a cube: a site's dimension cube is the
// store's cell column (engine.CellCounts). The cube here is the reference
// that column is tested against, the storage model behind Table 6, and
// the builder Table 2 times. BuildCube is its one constructor; DimensionCube aggregates
// a cube down to the dimensions one query type reads.
package olap

import (
	"fmt"
	"sort"
	"strings"
)

// Schema describes the dimensions of a cube, in order. Dimension names
// must be unique and non-empty.
type Schema struct {
	dims  []string
	index map[string]int
}

// NewSchema builds a schema from ordered dimension names.
func NewSchema(dims ...string) (*Schema, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("olap: schema needs at least one dimension")
	}
	s := &Schema{dims: append([]string(nil), dims...), index: make(map[string]int, len(dims))}
	for i, d := range dims {
		if d == "" {
			return nil, fmt.Errorf("olap: empty dimension name at position %d", i)
		}
		if strings.ContainsRune(d, sep) {
			return nil, fmt.Errorf("olap: dimension name %q contains reserved separator", d)
		}
		if _, dup := s.index[d]; dup {
			return nil, fmt.Errorf("olap: duplicate dimension %q", d)
		}
		s.index[d] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for tests and literals.
func MustSchema(dims ...string) *Schema {
	s, err := NewSchema(dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dims returns the ordered dimension names. The slice must not be mutated.
func (s *Schema) Dims() []string { return s.dims }

// NumDims returns the number of dimensions.
func (s *Schema) NumDims() int { return len(s.dims) }

// Index returns the position of a dimension, or -1 if absent.
func (s *Schema) Index(dim string) int {
	if i, ok := s.index[dim]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the dimension.
func (s *Schema) Has(dim string) bool { return s.Index(dim) >= 0 }

// Project returns a new schema containing only the named dimensions, in
// the order given. Every name must exist in s.
func (s *Schema) Project(dims ...string) (*Schema, error) {
	for _, d := range dims {
		if !s.Has(d) {
			return nil, fmt.Errorf("olap: project: unknown dimension %q", d)
		}
	}
	return NewSchema(dims...)
}

// Row is one raw record: a coordinate per schema dimension plus a numeric
// measure (e.g. a page score, a sale amount).
type Row struct {
	Coords  []string
	Measure float64
}

// QueryTypeID names one query type: the set of attributes a class of
// recurring queries accesses (§4.1). Two queries over the same attributes
// are the same type and share one dimension cube.
type QueryTypeID string

// QueryTypeFor derives the canonical ID for an attribute set: sorted,
// comma-joined dimension names.
func QueryTypeFor(dims []string) QueryTypeID {
	cp := append([]string(nil), dims...)
	sort.Strings(cp)
	return QueryTypeID(strings.Join(cp, ","))
}
