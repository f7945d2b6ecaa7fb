package serve

import (
	"fmt"
	"testing"

	"bohr/internal/cache"
	"bohr/internal/engine"
	"bohr/internal/sql"
)

func mustParse(t *testing.T, q string) *sql.Statement {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return stmt
}

func TestNormalizeCollapsesVariants(t *testing.T) {
	base := mustParse(t, "SELECT url, SUM(measure) FROM logs WHERE country = 'US' GROUP BY url ORDER BY value DESC LIMIT 5")
	variants := []string{
		"select url,   sum(measure) from logs where country='US' group by url order by value desc limit 5",
		"SELECT url, SUM(measure)\nFROM logs\nWHERE country = 'US'\nGROUP BY url ORDER BY value DESC LIMIT 5",
	}
	want := Normalize(base)
	for _, v := range variants {
		if got := Normalize(mustParse(t, v)); got != want {
			t.Fatalf("Normalize(%q) = %q, want %q", v, got, want)
		}
	}
}

func TestNormalizeDistinguishesStatements(t *testing.T) {
	a := Normalize(mustParse(t, "SELECT url, SUM(measure) FROM logs GROUP BY url"))
	for _, q := range []string{
		"SELECT url, SUM(measure) FROM logs GROUP BY url LIMIT 5",
		"SELECT url, COUNT(*) FROM logs GROUP BY url",
		"SELECT url, SUM(measure) FROM other GROUP BY url",
		"SELECT url, SUM(measure) FROM logs WHERE url = 'x' GROUP BY url",
	} {
		if b := Normalize(mustParse(t, q)); b == a {
			t.Fatalf("distinct statement %q normalized to the same key %q", q, a)
		}
	}
}

func TestResultCacheKeyIncludesContentHash(t *testing.T) {
	rc := NewResultCache(cache.Caps{Entries: 8}, nil)
	stmt := mustParse(t, "SELECT url, SUM(measure) FROM logs GROUP BY url")
	rows := []engine.KV{{Key: "a", Val: 1}}
	k1 := cacheKey(Normalize(stmt), 0x1111)
	k2 := cacheKey(Normalize(stmt), 0x2222)
	if k1 == k2 {
		t.Fatal("keys over different content hashes collide")
	}
	if want := Normalize(stmt) + "\x000000000000001111"; k1 != want {
		t.Fatalf("key = %q, want %q", k1, want)
	}
	rc.Insert(k1, stmt.Dataset, rows)
	if _, ok := rc.Get(k2); ok {
		t.Fatal("changed data (new content hash) still hit the old entry")
	}
	got, ok := rc.Get(k1)
	if !ok || len(got) != 1 || got[0].Key != "a" {
		t.Fatalf("Get(k1) = %v, %v", got, ok)
	}
}

func TestResultCacheInvalidateDataset(t *testing.T) {
	rc := NewResultCache(cache.Caps{Entries: 16}, nil)
	logs := mustParse(t, "SELECT url, SUM(measure) FROM logs GROUP BY url")
	other := mustParse(t, "SELECT url, SUM(measure) FROM events GROUP BY url")
	k1 := cacheKey(Normalize(logs), 1)
	k2 := cacheKey(Normalize(logs), 2)
	k3 := cacheKey(Normalize(other), 1)
	rc.Insert(k1, logs.Dataset, []engine.KV{{Key: "a", Val: 1}})
	rc.Insert(k2, logs.Dataset, []engine.KV{{Key: "b", Val: 2}})
	rc.Insert(k3, other.Dataset, []engine.KV{{Key: "c", Val: 3}})
	if n := rc.InvalidateDataset("logs"); n != 2 {
		t.Fatalf("InvalidateDataset dropped %d entries, want 2", n)
	}
	if _, ok := rc.Get(k1); ok {
		t.Fatal("logs entry survived invalidation")
	}
	if _, ok := rc.Get(k2); ok {
		t.Fatal("second logs entry survived invalidation")
	}
	if _, ok := rc.Get(k3); !ok {
		t.Fatal("unrelated dataset's entry was dropped")
	}
	// Idempotent and safe on unknown datasets.
	if n := rc.InvalidateDataset("logs"); n != 0 {
		t.Fatalf("second invalidation dropped %d", n)
	}
	if n := rc.InvalidateDataset("never-seen"); n != 0 {
		t.Fatalf("unknown dataset dropped %d", n)
	}
}

func TestResultCacheEvictsLRU(t *testing.T) {
	rc := NewResultCache(cache.Caps{Entries: 2}, nil)
	stmt := mustParse(t, "SELECT url, SUM(measure) FROM logs GROUP BY url")
	for i := uint64(0); i < 5; i++ {
		rc.Insert(cacheKey(Normalize(stmt), i), stmt.Dataset, []engine.KV{{Key: "x", Val: float64(i)}})
	}
	if got := rc.Len(); got > 2 {
		t.Fatalf("cache holds %d entries, cap 2", got)
	}
}

// TestUnlimitedCapsNeverEvict checks a server built with cache.Unlimited()
// is not silently capped at the default entry count.
func TestUnlimitedCapsNeverEvict(t *testing.T) {
	s := New(newFakeBackend(t), Config{CacheCaps: cache.Unlimited()}, nil)
	rows := []engine.KV{{Key: "x", Val: 1}}
	for i := 0; i <= cache.DefaultEntries; i++ {
		s.results.Insert(fmt.Sprintf("k%d", i), "logs", rows)
	}
	if got := s.results.Len(); got != cache.DefaultEntries+1 {
		t.Fatalf("unlimited cache holds %d entries, want %d", got, cache.DefaultEntries+1)
	}
}
