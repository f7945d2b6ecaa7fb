package serve

import (
	"fmt"
	"strings"
	"sync"

	"bohr/internal/cache"
	"bohr/internal/engine"
	"bohr/internal/obs"
	"bohr/internal/sql"
)

// ResultCache memoizes finished query results on the bounded LRU store.
// Keys pair the statement's canonical rendering with the change counter
// of the dataset the statement read (Backend.ContentHash), so textual
// variants of one query hit the same entry while any data change misses
// (and the stale entry ages out instead of being served). The ingest
// path additionally invalidates eagerly: when new rows land for a
// dataset, InvalidateDataset drops its entries immediately instead of
// waiting for LRU aging, so the memory frees at once.
type ResultCache struct {
	store *cache.Store[string, []engine.KV]

	// mu guards the dataset index: every inserted key, bucketed by the
	// dataset the statement read, so invalidation does not depend on
	// parsing datasets back out of keys.
	mu        sync.Mutex
	byDataset map[string]map[string]struct{}
}

// NewResultCache builds a result cache with the given capacity; col may
// be nil. The store registers serve.results.{entries,bytes,evictions}
// level counters on the collector.
func NewResultCache(caps cache.Caps, col *obs.Collector) *ResultCache {
	return &ResultCache{
		store: cache.New("serve.results", caps, col, func(k string, rows []engine.KV) int64 {
			n := int64(len(k))
			for _, kv := range rows {
				n += int64(len(kv.Key)) + 8
			}
			return n
		}),
		byDataset: map[string]map[string]struct{}{},
	}
}

// Key derives the cache key for a statement, given as its Normalize
// rendering, over a dataset at the given change counter.
func (rc *ResultCache) Key(norm string, contentHash uint64) string {
	return fmt.Sprintf("%s\x00%016x", norm, contentHash)
}

// Get returns the cached rows for the key, if present.
func (rc *ResultCache) Get(key string) ([]engine.KV, bool) {
	return rc.store.Get(key)
}

// Insert stores finished rows under the key, indexed by the dataset the
// statement read, and advances the store's logical clock one round, so
// entries untouched for a full capacity cycle age out LRU.
func (rc *ResultCache) Insert(key, dataset string, rows []engine.KV) {
	rc.store.Put(key, rows)
	rc.store.Advance()
	rc.mu.Lock()
	bucket := rc.byDataset[dataset]
	if bucket == nil {
		bucket = map[string]struct{}{}
		rc.byDataset[dataset] = bucket
	}
	bucket[key] = struct{}{}
	// The store evicts on its own; prune index entries the store no
	// longer holds once a bucket visibly outgrows the live set, so the
	// index stays proportional to the store.
	if len(bucket) >= 64 && len(bucket) > 2*rc.store.Len() {
		for k := range bucket {
			if _, live := rc.store.Peek(k); !live {
				delete(bucket, k)
			}
		}
	}
	rc.mu.Unlock()
}

// InvalidateDataset drops every cached result whose statement read the
// named dataset and returns how many entries it removed. The ingest path
// calls it when new rows land, so the next query over the dataset
// recomputes against fresh data instead of racing LRU aging.
func (rc *ResultCache) InvalidateDataset(dataset string) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	bucket := rc.byDataset[dataset]
	if len(bucket) == 0 {
		return 0
	}
	dropped := 0
	for k := range bucket {
		if _, live := rc.store.Peek(k); live {
			dropped++
		}
		rc.store.Delete(k)
	}
	delete(rc.byDataset, dataset)
	return dropped
}

// Len reports live entries (for tests).
func (rc *ResultCache) Len() int { return rc.store.Len() }

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
