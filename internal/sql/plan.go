package sql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bohr/internal/engine"
	"bohr/internal/olap"
	"bohr/internal/workload"
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
// coordinate tuples (workload.JoinKey), so the compiled map function
// filters on WHERE and projects to the grouping dimensions.
func Compile(stmt *Statement, schema *olap.Schema) (*Plan, error) {
	if stmt == nil {
		return nil, fmt.Errorf("sql: nil statement")
	}
	// Resolve the grouping dimensions.
	dims := stmt.GroupBy
	if len(dims) == 0 {
		for _, it := range stmt.Items {
			if it.Agg == AggNone {
				dims = append(dims, it.Column)
			}
		}
	}
	if len(dims) == 0 {
		// Pure aggregate over everything: group on a constant.
		dims = nil
	}
	for _, d := range dims {
		if !schema.Has(d) {
			return nil, fmt.Errorf("sql: unknown column %q (schema has %v)", d, schema.Dims())
		}
	}
	for _, c := range stmt.Where {
		if !schema.Has(c.Column) {
			return nil, fmt.Errorf("sql: unknown column %q in WHERE", c.Column)
		}
	}

	// Pick the combine op from the first aggregate (the engine carries a
	// single measure).
	op := engine.OpSum
	for _, it := range stmt.Items {
		switch it.Agg {
		case AggCount:
			op = engine.OpCount
		case AggMax:
			op = engine.OpMax
		case AggMin:
			op = engine.OpMin
		case AggSum:
			op = engine.OpSum
		default:
			continue
		}
		break
	}

	checks, err := compileChecks(stmt.Where, schema)
	if err != nil {
		return nil, err
	}
	proj, err := workload.NewProjection(schema, dims)
	if err != nil {
		return nil, err
	}
	grouped := len(dims) > 0

	q := engine.Query{
		Name:      "sql:" + summarize(stmt),
		Dataset:   stmt.Dataset,
		QueryType: string(olap.QueryTypeFor(dims)),
		// One in-place index of the stored key serves the WHERE conjuncts
		// and the projection alike.
		Map: func(r engine.KV, emit func(string, float64)) {
			key := "<all>" // a pure aggregate groups on a constant
			if grouped || len(checks) > 0 {
				var x workload.KeyIndex
				shaped := proj.Index(&x, r.Key)
				if len(checks) > 0 && !(shaped && passes(checks, &x)) {
					return
				}
				if grouped {
					key = r.Key // foreign key shape: leave untouched
					if shaped {
						key = proj.Key(&x)
					}
				}
			}
			emit(key, r.Val)
		},
		Combine:    op,
		MapCost:    engine.DefaultMapCost,
		ReduceCost: engine.DefaultReduceCost,
	}
	return &Plan{Statement: stmt, Query: q, Dims: dims}, nil
}

// PostProcess applies the statement's ORDER BY and LIMIT to the engine's
// (key-sorted) reduce output. The result shares no memory with out, and
// when LIMIT cuts it, none with the rows cut off either.
func (p *Plan) PostProcess(out []engine.KV) []engine.KV {
	rows := append([]engine.KV(nil), out...)
	stmt := p.Statement
	switch stmt.OrderBy {
	case "value":
		sort.SliceStable(rows, func(i, j int) bool {
			if stmt.Desc {
				return rows[i].Val > rows[j].Val
			}
			return rows[i].Val < rows[j].Val
		})
	case "key":
		sort.SliceStable(rows, func(i, j int) bool {
			if stmt.Desc {
				return rows[i].Key > rows[j].Key
			}
			return rows[i].Key < rows[j].Key
		})
	}
	if stmt.Limit > 0 && len(rows) > stmt.Limit {
		rows = append([]engine.KV(nil), rows[:stmt.Limit]...)
	}
	return rows
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
	idx     int
	op      string
	value   string
	numeric bool
	numVal  float64
}

// compileChecks resolves the WHERE conjuncts against the schema.
func compileChecks(conds []Condition, schema *olap.Schema) ([]check, error) {
	checks := make([]check, len(conds))
	for i, c := range conds {
		ch := check{idx: schema.Index(c.Column), op: c.Op, value: c.Value, numeric: c.Numeric}
		if c.Numeric {
			v, err := strconv.ParseFloat(c.Value, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q: %w", c.Value, err)
			}
			ch.numVal = v
		}
		checks[i] = ch
	}
	return checks, nil
}

// passes reports whether an indexed, schema-shaped key satisfies every
// conjunct.
func passes(checks []check, x *workload.KeyIndex) bool {
	for i := range checks {
		ch := &checks[i]
		got := x.Field(ch.idx)
		var cmp int
		if ch.numeric {
			gv, err := strconv.ParseFloat(got, 64)
			if err != nil {
				return false
			}
			switch {
			case gv < ch.numVal:
				cmp = -1
			case gv > ch.numVal:
				cmp = 1
			}
		} else {
			cmp = strings.Compare(got, ch.value)
		}
		ok := false
		switch ch.op {
		case "=":
			ok = cmp == 0
		case "!=":
			ok = cmp != 0
		case "<":
			ok = cmp < 0
		case "<=":
			ok = cmp <= 0
		case ">":
			ok = cmp > 0
		case ">=":
			ok = cmp >= 0
		}
		if !ok {
			return false
		}
	}
	return true
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
