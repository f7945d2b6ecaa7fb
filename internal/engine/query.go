package engine

import "fmt"

// MapFn transforms one input record into zero or more intermediate
// records by calling emit once per output record. A nil MapFn is the
// identity. The engine shares one MapFn between sites mapping in parallel,
// so it must not keep state across calls; emit folds the record into the
// calling executor's combiner before it returns and keeps key only when it
// opens a new group, so a key that is a substring of r.Key costs nothing.
type MapFn func(r KV, emit func(key string, val float64))

// Query describes one recurring analytics query over a dataset. The
// engine executes it as map → combine → shuffle → reduce, iterated
// Iterations times for DAGs like PageRank where reduce output feeds the
// next round's map.
type Query struct {
	Name string
	// Dataset names the dataset the query reads.
	Dataset string
	// QueryType identifies the attribute set the query accesses; queries
	// with equal QueryType share a dimension cube and probe budget.
	QueryType string
	// Map is applied to every input record. nil = identity.
	Map MapFn
	// Select is the declarative alternative to Map for what a filter and a
	// projection of the key's fields can say; the engine runs it over the
	// store's dictionary-coded key columns. At most one of the two is set.
	Select *Select
	// Combine is the associative merge for the combiner and reducer.
	Combine CombineOp
	// Iterations > 1 chains rounds (e.g. PageRank); reduce output becomes
	// the next round's input, re-scattered across sites by reduce task
	// placement. 0 is treated as 1.
	Iterations int
	// MapCost and ReduceCost are modeled seconds of compute per record.
	MapCost, ReduceCost float64
}

// Validate checks the query is runnable.
func (q *Query) Validate() error {
	if q.Name == "" {
		return fmt.Errorf("engine: query needs a name")
	}
	if q.Dataset == "" {
		return fmt.Errorf("engine: query %q needs a dataset", q.Name)
	}
	if q.MapCost < 0 || q.ReduceCost < 0 {
		return fmt.Errorf("engine: query %q has negative cost", q.Name)
	}
	if q.Iterations < 0 {
		return fmt.Errorf("engine: query %q has negative iterations", q.Name)
	}
	if q.Select == nil {
		return nil
	}
	if q.Map != nil {
		return fmt.Errorf("engine: query %q sets both Map and Select", q.Name)
	}
	if q.Iterations > 1 {
		return fmt.Errorf("engine: query %q iterates a Select: reduce output does not have its key shape", q.Name)
	}
	return q.Select.validate(q.Name)
}

// rounds returns the effective iteration count.
func (q *Query) rounds() int {
	if q.Iterations <= 0 {
		return 1
	}
	return q.Iterations
}

// DefaultCosts are per-record compute costs calibrated so that the
// simulated QCTs land in the seconds range the paper reports for 40
// GB-per-site workloads scaled down to in-memory record counts.
const (
	DefaultMapCost    = 2.5e-3 // seconds per record mapped (parsing raw rows)
	DefaultReduceCost = 2e-4   // seconds per record reduced
)

// ScanQuery builds a simple projection/scan query: identity map, sum
// combine — the AMPLab "scan" class.
func ScanQuery(name, dataset string) Query {
	return Query{
		Name: name, Dataset: dataset, QueryType: "scan",
		Combine: OpSum, MapCost: DefaultMapCost, ReduceCost: DefaultReduceCost,
	}
}

// AggregationQuery builds a group-by-aggregate query: map projects the
// record's key in the view (the zero View keeps the key), values are
// summed — the AMPLab "aggregation" class.
func AggregationQuery(name, dataset string, view View) Query {
	return Query{
		Name: name, Dataset: dataset, QueryType: "aggregation",
		Map: view.Map(), Combine: OpSum,
		MapCost: DefaultMapCost * 1.5, ReduceCost: DefaultReduceCost,
	}
}

// UDFQuery builds the AMPLab-style UDF: a simplified PageRank where each
// round each page's score is scattered to its neighborhood and re-summed.
// iterations is the number of rank rounds.
func UDFQuery(name, dataset string, iterations int) Query {
	return Query{
		Name: name, Dataset: dataset, QueryType: "udf",
		Map: func(r KV, emit func(string, float64)) {
			// Damped contribution kept on the page plus a share emitted to
			// a deterministic "linked" page (same key space).
			emit(r.Key, 0.15+0.85*r.Val*0.5)
			emit(linkOf(r.Key), 0.85*r.Val*0.5)
		},
		Combine:    OpSum,
		Iterations: iterations,
		MapCost:    DefaultMapCost * 2, ReduceCost: DefaultReduceCost * 2,
	}
}

// linkOf deterministically maps a page key to one page it links to,
// keeping the key space closed so PageRank rounds stay well-defined.
func linkOf(key string) string {
	h := fnv1a(key)
	// Rotate within a ring of 1<<16 synthetic link targets derived from
	// the key hash: pages sharing a hash bucket link to the same target,
	// giving the skewed in-degree distribution real webgraphs have.
	return fmt.Sprintf("%s#%d", key[:min(len(key), 2)], h%(1<<16))
}
