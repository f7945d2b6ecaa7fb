package serve

import (
	"fmt"
	"strings"

	"bohr/internal/cache"
	"bohr/internal/obs"
	"bohr/internal/sql"
)

// NewResultCache builds the query result cache. New builds the server's
// through it, and so does the benchmark harness, which times inserts at
// the cap. Keys pair the statement's canonical rendering with the change
// counter of the dataset it read (cacheKey),
// so textual variants of one query hit the same entry while any data
// change misses; the ingest path also drops a dataset's entries as soon
// as new rows land. col may be nil; the cache registers
// serve.results.{entries,bytes,evictions} level counters on it.
func NewResultCache(caps cache.Caps, col *obs.Collector) *cache.Results { return cache.New(caps, col) }

// cacheKey derives the cache key for a statement, given as its Normalize
// rendering, over a dataset at the given change counter.
func cacheKey(norm string, contentHash uint64) string {
	return fmt.Sprintf("%s\x00%016x", norm, contentHash)
}

// Normalize renders a parsed statement canonically: uppercase keywords,
// single spacing, lowercased identifiers in parse order. Two query texts
// that parse to the same statement normalize identically, so whitespace
// and case variants share one cache entry.
func Normalize(stmt *sql.Statement) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range stmt.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Agg != sql.AggNone {
			fmt.Fprintf(&b, "%s(%s)", it.Agg, strings.ToLower(it.Column))
		} else {
			b.WriteString(strings.ToLower(it.Column))
		}
	}
	fmt.Fprintf(&b, " FROM %s", strings.ToLower(stmt.Dataset))
	if len(stmt.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, c := range stmt.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			// String values print quoted and escaped: a bare rendering
			// would give hour < '5' (string compare) and hour < 5 (numeric)
			// one key, and let a literal holding " AND " pose as two
			// conjuncts.
			if c.Numeric {
				fmt.Fprintf(&b, "%s %s %s", strings.ToLower(c.Column), c.Op, c.Value)
			} else {
				fmt.Fprintf(&b, "%s %s %q", strings.ToLower(c.Column), c.Op, c.Value)
			}
		}
	}
	if len(stmt.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range stmt.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strings.ToLower(g))
		}
	}
	if stmt.OrderBy != "" {
		fmt.Fprintf(&b, " ORDER BY %s", stmt.OrderBy)
		if stmt.Desc {
			b.WriteString(" DESC")
		}
	}
	if stmt.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", stmt.Limit)
	}
	return b.String()
}
