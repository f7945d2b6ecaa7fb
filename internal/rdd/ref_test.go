package rdd

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/similarity"
	"bohr/internal/stats"
)

// refMix is similarity's SplitMix64 finalizer, copied.
func refMix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// refSignature is the signature kernel before a partition's distinct keys
// were mixed once each: every record's key hashed and mixed with every one of
// the m seeds NewMinHasher(m, seed) derives.
func refSignature(keys []string, m int, seed int64) []uint64 {
	seeds := make([]uint64, m)
	z := uint64(seed)
	for i := range seeds {
		z += 0x9E3779B97F4A7C15
		seeds[i] = refMix(z)
	}
	sig := make([]uint64, m)
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	for _, k := range keys {
		b := similarity.KeyHash(k)
		for i, s := range seeds {
			if v := refMix(b ^ s); v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// refPairwise is PairwiseSimilarity over refSignature, sequentially.
func refPairwise(parts []engine.Partition, cfg DimsumConfig) *SimilarityMatrix {
	n, m := len(parts), cfg.HashFunctions
	sigs := make([][]uint64, n)
	total := 0
	for i, p := range parts {
		keys := make([]string, len(p.Records))
		for r, rec := range p.Records {
			keys[r] = rec.Key
		}
		sigs[i] = refSignature(keys, m, cfg.Seed)
		total += len(p.Records)
	}
	sample := max(int(float64(m)*cfg.Gamma+0.5), 1)
	prefix := max(sample/4, 1)
	order := stats.NewRand(cfg.Seed).Perm(m)
	res := &SimilarityMatrix{Sim: make([][]float64, n)}
	for i := range res.Sim {
		res.Sim[i] = make([]float64, n)
		res.Sim[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			matches, compared := 0, 0
			for s := 0; s < sample; s++ {
				compared++
				if sigs[i][order[s]] == sigs[j][order[s]] {
					matches++
				}
				if s+1 == prefix && matches == 0 {
					break
				}
			}
			res.Comparisons += compared
			res.Sim[i][j] = float64(matches) / float64(compared)
			res.Sim[j][i] = res.Sim[i][j]
		}
	}
	res.Overhead = float64(total*m)*hashOpCost + float64(res.Comparisons)*cmpOpCost
	return res
}

// benchShapedParts returns n partitions of size records, each drawn from a
// window of keys that overlaps its neighbours' so that about a quarter of a
// partition's records are distinct keys, as on a bench site.
func benchShapedParts(seed int64, n, size int) []engine.Partition {
	rng := stats.NewRand(seed)
	parts := make([]engine.Partition, n)
	for p := range parts {
		keys := make([]string, size)
		for i := range keys {
			keys[i] = fmt.Sprintf("url%d%sc%d", p*size/64+rng.Intn(size/12), engine.KeySep, rng.Intn(3))
		}
		parts[p] = mkPartition(p, keys...)
	}
	return parts
}

// TestPairwiseMatchesRefSignature holds the signature kernel that mixes each
// distinct key once to the one that mixed every record, bit for bit, on a
// duplicate-heavy corpus with an empty partition: the matrix, its counters
// and the assignment built on it.
func TestPairwiseMatchesRefSignature(t *testing.T) {
	parts := benchShapedParts(3, 16, 320)
	parts = append(parts, mkPartition(len(parts)), mkPartition(len(parts)+1, "lone", "lone", "lone"))
	for _, cfg := range []DimsumConfig{DefaultDimsum(), {HashFunctions: 128, Gamma: 1, Seed: 9}} {
		want := refPairwise(parts, cfg)
		got, err := PairwiseSimilarity(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Comparisons != want.Comparisons || got.Overhead != want.Overhead {
			t.Fatalf("%+v: comparisons %d, overhead %v; want %d, %v", cfg, got.Comparisons, got.Overhead, want.Comparisons, want.Overhead)
		}
		for i := range want.Sim {
			if !slices.Equal(got.Sim[i], want.Sim[i]) {
				t.Fatalf("%+v: row %d is %v, want %v", cfg, i, got.Sim[i], want.Sim[i])
			}
		}

		a := Assigner{Config: cfg}
		for _, executors := range []int{2, 4} {
			assign, overhead, err := a.Assign(parts, executors)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := KMeans(want.Sim, executors, kmeansIters, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			balance(ref, parts, executors)
			if !slices.Equal(assign, ref) || overhead != want.Overhead {
				t.Fatalf("%+v on %d executors: assigned %v at %v, want %v at %v", cfg, executors, assign, overhead, ref, want.Overhead)
			}
		}
	}
}

// BenchmarkPairwiseSimilarity sizes one machine's similarity step on a
// bench-shaped site: 16 partitions of 320 records, about a quarter of each
// partition's records distinct keys.
func BenchmarkPairwiseSimilarity(b *testing.B) {
	parts := benchShapedParts(7, 16, 320)
	records, distinct := 0, 0
	for _, p := range parts {
		seen := map[string]bool{}
		for _, r := range p.Records {
			seen[r.Key] = true
		}
		records, distinct = records+len(p.Records), distinct+len(seen)
	}
	cfg := DefaultDimsum()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PairwiseSimilarity(parts, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
	b.ReportMetric(float64(distinct)/float64(records), "distinct/record")
}
