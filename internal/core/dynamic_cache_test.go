package core

import (
	"context"
	"encoding/json"
	"testing"

	"bohr/internal/cache"
	"bohr/internal/engine"
	"bohr/internal/obs"
	"bohr/internal/parallel"
	"bohr/internal/placement"
	"bohr/internal/similarity"
	"bohr/internal/workload"
)

// dynCacheRun executes one dynamic run on a fresh empty cluster with an
// explicitly-sized signature cache and returns the report's JSON plus the
// cache for inspection.
func dynCacheRun(t *testing.T, w *workload.Workload, c *engine.Cluster, caps cache.Caps, scheme placement.SchemeID) ([]byte, *similarity.SignatureCache) {
	t.Helper()
	empty, err := engine.NewCluster(c.Top, 1, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	sc := similarity.NewSignatureCacheSized(nil, caps)
	opts := placement.Options{Seed: 3, SigCache: sc}
	dyn := DynamicConfig{InitialFraction: 0.25, BatchFraction: 0.05, ReplanEvery: 3, Queries: 9}
	rep, err := RunDynamic(context.Background(), empty, w, scheme, dyn, WithPlacement(opts))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b, sc
}

// TestDynamicReportEvictionNeutral is the acceptance gate of the
// bounded memo layer: eviction changes WHAT is cached, never what is
// computed, so a dynamic run's report is byte-identical whether the
// signature cache is unlimited, default-capped, or squeezed to a handful
// of entries — while the squeezed run demonstrably evicted and stayed
// within its caps.
func TestDynamicReportEvictionNeutral(t *testing.T) {
	c, w := setup(t, workload.TPCDS)

	unlimited, _ := dynCacheRun(t, w, c, cache.Unlimited(), placement.Bohr)
	deflt, dsc := dynCacheRun(t, w, c, cache.Caps{Entries: cache.DefaultEntries, Bytes: cache.DefaultBytes}, placement.Bohr)
	tiny, tsc := dynCacheRun(t, w, c, cache.Caps{Entries: 4}, placement.Bohr)

	if string(unlimited) != string(deflt) {
		t.Fatalf("default caps changed the report:\n%s\nvs\n%s", deflt, unlimited)
	}
	if string(unlimited) != string(tiny) {
		t.Fatalf("tiny caps changed the report:\n%s\nvs\n%s", tiny, unlimited)
	}
	// Default caps are far above this run's working set: no eviction.
	if dsc.Evictions() != 0 {
		t.Fatalf("default caps evicted: sigcache=%d", dsc.Evictions())
	}
	// The squeezed run really was squeezed, and settled within caps.
	if tsc.Evictions() == 0 {
		t.Fatal("tiny caps never evicted the signature cache")
	}
	if tsc.Len() > 4 {
		t.Fatalf("signature cache settled at %d entries over the 4-entry cap", tsc.Len())
	}
}

// TestDynamicReportWidthIndependentUnderEviction extends the pool-width
// determinism gate to the evicting configuration: LRU decisions ride a
// logical clock advanced at sequential points, so width 1 and width 8
// evict identically and the reports match byte for byte.
func TestDynamicReportWidthIndependentUnderEviction(t *testing.T) {
	c, w := setup(t, workload.TPCDS)

	prev := parallel.SetDefaultWidth(1)
	defer parallel.SetDefaultWidth(prev)
	w1, w1sc := dynCacheRun(t, w, c, cache.Caps{Entries: 4}, placement.Bohr)

	parallel.SetDefaultWidth(8)
	w8, w8sc := dynCacheRun(t, w, c, cache.Caps{Entries: 4}, placement.Bohr)

	if string(w1) != string(w8) {
		t.Fatalf("width changed the evicting report:\n%s\nvs\n%s", w1, w8)
	}
	if w1sc.Evictions() != w8sc.Evictions() {
		t.Fatalf("eviction counts diverge across widths: %d vs %d", w1sc.Evictions(), w8sc.Evictions())
	}
	if w1sc.Evictions() == 0 {
		t.Fatal("configuration did not exercise eviction")
	}
}

// TestDynamicCacheBounded is the make-check bounded-growth gate: a
// longer dynamic run with default capacities keeps the signature cache's
// entry count and bytes at or below its configured cap once settled. The
// planner's derived state needs no cap — it lives on the stores' contents
// and goes when they change — but must still serve the replans that see
// unchanged sites.
func TestDynamicCacheBounded(t *testing.T) {
	c, w := setup(t, workload.TPCDS)
	empty, err := engine.NewCluster(c.Top, 1, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	caps := cache.DefaultCaps()
	sc := similarity.NewSignatureCacheSized(nil, caps)
	col := obs.NewCollector()
	opts := placement.Options{Seed: 5, SigCache: sc, Obs: col}
	// The stream exhausts after the third batch, so the later replans
	// (q8, q12) see sites unchanged since the previous plan's moves — the
	// recurring fast path the content memo exists for.
	dyn := DynamicConfig{InitialFraction: 0.25, BatchFraction: 0.25, ReplanEvery: 4, Queries: 16}
	if _, err := RunDynamic(context.Background(), empty, w, placement.Bohr, dyn, WithPlacement(opts)); err != nil {
		t.Fatal(err)
	}
	if caps.Entries > 0 && sc.Len() > caps.Entries {
		t.Fatalf("signature cache %d entries over cap %d", sc.Len(), caps.Entries)
	}
	if caps.Bytes > 0 && sc.Bytes() > caps.Bytes {
		t.Fatalf("signature cache %d bytes over cap %d", sc.Bytes(), caps.Bytes)
	}
	// The memo layer is doing its job: recurring rounds hit.
	if hits := col.MetricsSnapshot().Counters[placement.CounterDerivedHits]; hits == 0 {
		t.Fatal("derived state never hit across 16 arrivals")
	}
}
