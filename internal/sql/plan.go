package sql

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"bohr/internal/engine"
	"bohr/internal/olap"
)

// Plan is a compiled statement: the engine query to run plus the attribute
// set it accesses (its query type, which drives dimension cubes and
// probes).
type Plan struct {
	Statement *Statement
	Query     engine.Query
	// Dims is the attribute set the query combines on (GROUP BY columns,
	// or the plain projected columns for non-aggregating selects).
	Dims []string
}

// Compile turns a parsed statement into an engine query against a dataset
// stored with the given schema. The engine's stored keys are the full
// coordinate tuples (workload.JoinKey), so the statement compiles to a
// declarative select over their fields: the WHERE conjuncts, then the
// grouping dimensions.
func Compile(stmt *Statement, schema *olap.Schema) (*Plan, error) {
	if stmt == nil {
		return nil, fmt.Errorf("sql: nil statement")
	}
	// Resolve the grouping dimensions; none is a pure aggregate over
	// everything.
	dims := stmt.GroupBy
	if len(dims) == 0 {
		for _, it := range stmt.Items {
			if it.Agg == AggNone {
				dims = append(dims, it.Column)
			}
		}
	}
	keep := make([]int, len(dims))
	for i, d := range dims {
		if !schema.Has(d) {
			return nil, fmt.Errorf("sql: unknown column %q (schema has %v)", d, schema.Dims())
		}
		if slices.Contains(dims[:i], d) {
			return nil, fmt.Errorf("sql: column %q is grouped on twice", d)
		}
		keep[i] = schema.Index(d)
	}

	// The engine carries one measure, so a statement has at most one
	// aggregate, over it.
	op, aggs := engine.OpSum, 0
	for _, it := range stmt.Items {
		switch it.Agg {
		case AggNone:
			continue
		case AggCount:
			op = engine.OpCount
		case AggMax:
			op = engine.OpMax
		case AggMin:
			op = engine.OpMin
		case AggSum:
			op = engine.OpSum
		}
		if aggs++; aggs > 1 {
			return nil, fmt.Errorf("sql: %s(%s) is a second aggregate; a statement computes one", it.Agg, it.Column)
		}
		if it.Column != "measure" && it.Column != "*" {
			return nil, fmt.Errorf("sql: %s(%s): aggregates are over measure (or * for COUNT)", it.Agg, it.Column)
		}
	}

	where, err := compileWhere(stmt.Where, schema)
	if err != nil {
		return nil, err
	}
	q := engine.Query{
		Name:       "sql:" + summarize(stmt),
		Dataset:    stmt.Dataset,
		QueryType:  string(olap.QueryTypeFor(dims)),
		Select:     &engine.Select{View: engine.NewView(schema.NumDims(), keep...), Where: where},
		Combine:    op,
		MapCost:    engine.DefaultMapCost,
		ReduceCost: engine.DefaultReduceCost,
	}
	return &Plan{Statement: stmt, Query: q, Dims: dims}, nil
}

// PostProcess applies the statement's ORDER BY and LIMIT to the engine's
// (key-sorted) reduce output: a stable sort, then the cut. When LIMIT n cuts
// ordered rows none of which is NaN, a bounded heap of n row positions —
// ordered by the ORDER BY, then by position — finds the same rows in the
// same order without sorting the rest; a NaN compares equal to every value,
// which is no order a heap can keep, so such rows are sorted whole. The
// result shares no memory with out, and when LIMIT cuts it, none with the
// rows cut off either.
func (p *Plan) PostProcess(out []engine.KV) []engine.KV {
	stmt := p.Statement
	var order func(a, b engine.KV) int
	switch stmt.OrderBy {
	case "value":
		// Rows that do not order (NaN values) compare equal to everything.
		order = func(a, b engine.KV) int {
			switch {
			case a.Val < b.Val:
				return -1
			case a.Val > b.Val:
				return 1
			}
			return 0
		}
	case "key":
		order = func(a, b engine.KV) int { return strings.Compare(a.Key, b.Key) }
	}
	if order != nil && stmt.Desc {
		asc := order
		order = func(a, b engine.KV) int { return asc(b, a) }
	}
	n := len(out)
	if stmt.Limit > 0 && stmt.Limit < n {
		n = stmt.Limit
		if order != nil && !slices.ContainsFunc(out, func(kv engine.KV) bool { return math.IsNaN(kv.Val) }) {
			return topN(out, n, order)
		}
	}
	rows := append([]engine.KV(nil), out...)
	if order != nil {
		slices.SortStableFunc(rows, order)
	}
	if n < len(rows) {
		rows = append([]engine.KV(nil), rows[:n]...)
	}
	return rows
}

// topN returns the first n of rows under order, ties in row order — what a
// stable sort puts first — through a max-heap of n row positions.
func topN(rows []engine.KV, n int, order func(a, b engine.KV) int) []engine.KV {
	by := func(i, j int) int { // a total order on positions: no two tie
		if c := order(rows[i], rows[j]); c != 0 {
			return c
		}
		return i - j
	}
	h := make([]int, n) // a max-heap: sorted last first, the first n rows are one
	for i := range h {
		h[i] = i
	}
	slices.SortFunc(h, func(i, j int) int { return by(j, i) })
	down := func(r int) {
		for c := 2*r + 1; c < n; r, c = c, 2*c+1 {
			if c+1 < n && by(h[c+1], h[c]) > 0 {
				c++
			}
			if by(h[c], h[r]) < 0 {
				return
			}
			h[r], h[c] = h[c], h[r]
		}
	}
	for i := n; i < len(rows); i++ {
		if by(i, h[0]) < 0 {
			h[0] = i
			down(0)
		}
	}
	slices.SortFunc(h, by)
	top := make([]engine.KV, n)
	for k, i := range h {
		top[k] = rows[i]
	}
	return top
}

// CompileString parses and compiles in one step.
func CompileString(query string, schema *olap.Schema) (*Plan, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Compile(stmt, schema)
}

// check is one compiled WHERE conjunct.
type check struct {
	// holds says, for the field ordering before, equal to or after the
	// value, whether the operator is satisfied.
	holds   [3]bool
	value   string
	numeric bool
	numVal  float64
}

var operators = map[string][3]bool{
	"=": {false, true, false}, "!=": {true, false, true},
	"<": {true, false, false}, "<=": {true, true, false},
	">": {false, false, true}, ">=": {false, true, true},
}

// compileWhere resolves the WHERE conjuncts against the schema.
func compileWhere(conds []Condition, schema *olap.Schema) ([]engine.Cond, error) {
	where := make([]engine.Cond, len(conds))
	for i, c := range conds {
		if !schema.Has(c.Column) {
			return nil, fmt.Errorf("sql: unknown column %q in WHERE", c.Column)
		}
		ch := check{holds: operators[c.Op], value: c.Value, numeric: c.Numeric}
		if c.Numeric {
			v, err := strconv.ParseFloat(c.Value, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q: %w", c.Value, err)
			}
			ch.numVal = v
		}
		where[i] = engine.Cond{Field: schema.Index(c.Column), Pass: ch.pass}
	}
	return where, nil
}

// pass reports whether a field's text satisfies the conjunct. A numeric
// conjunct fails a field that is not a number, and takes one that does not
// order against its value (NaN) as equal to it.
func (ch check) pass(got string) bool {
	if !ch.numeric {
		return ch.holds[strings.Compare(got, ch.value)+1]
	}
	gv, err := strconv.ParseFloat(got, 64)
	switch {
	case err != nil:
		return false
	case gv < ch.numVal:
		return ch.holds[0]
	case gv > ch.numVal:
		return ch.holds[2]
	}
	return ch.holds[1]
}

// summarize renders a short name for the compiled query.
func summarize(stmt *Statement) string {
	var b strings.Builder
	for i, it := range stmt.Items {
		if i > 0 {
			b.WriteString(",")
		}
		if it.Agg != AggNone {
			fmt.Fprintf(&b, "%s(%s)", it.Agg, it.Column)
		} else {
			b.WriteString(it.Column)
		}
	}
	fmt.Fprintf(&b, "@%s", stmt.Dataset)
	return b.String()
}
