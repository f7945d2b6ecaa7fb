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
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i] = engine.KeyHash(k)
	}
	return refSignatureOf(hashes, m, seed)
}

// refSignatureOf is refSignature over the keys' hashes.
func refSignatureOf(hashes []uint64, m int, seed int64) []uint64 {
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
	for _, b := range hashes {
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
		parts[p] = mkPartition(keys...)
	}
	return parts
}

// TestPairwiseMatchesRefSignature holds the signature kernel that mixes each
// distinct key once to the one that mixed every record, bit for bit, on a
// duplicate-heavy corpus with an empty partition: the matrix, its counters
// and the assignment built on it.
func TestPairwiseMatchesRefSignature(t *testing.T) {
	parts := benchShapedParts(3, 16, 320)
	parts = append(parts, mkPartition(), mkPartition("lone", "lone", "lone"))
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

// TestSignatureBatchMatchesRefSignatureAdversarial feeds the signature
// kernel what its id dedupe and shared mixes could get wrong: the zero hash
// (alone, repeated, beside others), one hash under several ids (keys that
// collide), repeats, hashes that share their low bits, and sets that
// overlap one another or list ids the batch met in an earlier set. At pool
// widths 1 and 4 every signature must equal the kernel that mixed every
// record's hash, and the input must come back unwritten.
func TestSignatureBatchMatchesRefSignatureAdversarial(t *testing.T) {
	const m, seed = 64, 11
	rng := stats.NewRand(5)
	// The table: ids 0-2 hash to zero, 3-4 to MaxUint64, 5-404 share their
	// low bits, 405-804 are keys' hashes and 805-1004 repeat some of those.
	table := []uint64{0, 0, 0, math.MaxUint64, math.MaxUint64}
	for i := 0; i < 400; i++ {
		table = append(table, uint64(rng.Intn(1<<20))<<44|0x5a5)
	}
	for i := 0; i < 400; i++ {
		table = append(table, engine.KeyHash(fmt.Sprint("k", i)))
	}
	for i := 0; i < 200; i++ {
		table = append(table, table[5+rng.Intn(800)])
	}
	sets := [][]int32{
		nil,
		{0},
		{0, 1, 2, 0},
		{0, 7, 1, 7},
		{9, 9, 9, 9, 9},
		{3, 0, 4, 3},
	}
	for len(sets) < 14 {
		set := make([]int32, 1500)
		for i := range set {
			set[i] = int32(rng.Intn(len(table)))
		}
		sets = append(sets, set)
	}
	big := sets[len(sets)-1]
	sets = append(sets, big[:700], big[300:]) // overlapping views of one set
	want := make([][]uint64, len(sets))
	for i, set := range sets {
		hashes := make([]uint64, len(set))
		for r, id := range set {
			hashes[r] = table[id]
		}
		want[i] = refSignatureOf(hashes, m, seed)
	}
	h, err := similarity.NewMinHasher(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 4} {
		in, tab := make([][]int32, len(sets)), slices.Clone(table)
		for i := range sets[:len(sets)-2] {
			in[i] = slices.Clone(sets[i])
		}
		in[len(sets)-2], in[len(sets)-1] = in[len(sets)-3][:700], in[len(sets)-3][300:]
		got := h.SignatureBatch(in, tab, width)
		for i := range sets {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("width %d, set %d (%d ids): signature differs from the reference", width, i, len(sets[i]))
			}
			if !slices.Equal(in[i], sets[i]) {
				t.Fatalf("width %d: set %d was written", width, i)
			}
		}
		if !slices.Equal(tab, table) {
			t.Fatalf("width %d: the hash table was written", width)
		}
	}
}

// BenchmarkPairwiseSimilarity sizes one machine's similarity step on a
// bench-shaped site: 16 partitions of 320 records, about a quarter of each
// partition's records distinct keys, carrying their key ids as a layout's
// partitions do.
func BenchmarkPairwiseSimilarity(b *testing.B) {
	parts := benchShapedParts(7, 16, 320)
	ids, hashes := engine.PartitionKeys(parts)
	for i := range parts {
		parts[i].KeyIDs, parts[i].Hashes = ids[i], hashes
	}
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
