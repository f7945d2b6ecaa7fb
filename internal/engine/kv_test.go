package engine

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"bohr/internal/stats"
)

func TestCombineSum(t *testing.T) {
	out := CombinePartials([]KV{{"a", 1}, {"b", 2}, {"a", 3}}, OpSum)
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0].Key != "a" || out[0].Val != 4 {
		t.Fatalf("out[0] = %+v", out[0])
	}
	if out[1].Key != "b" || out[1].Val != 2 {
		t.Fatalf("out[1] = %+v", out[1])
	}
}

// TestCombineCount: counting happens in the map-side combiner, which
// counts records whatever their values; the reducer sums its partials
// (TestCombinePartialsSumsCounts).
func TestCombineCount(t *testing.T) {
	l, err := NewLayout([]KV{{"a", 99}, {"a", 1}, {"a", 7}}, Stage{Exec: Executors{Machines: 1, PerMachine: 1}})
	if err != nil {
		t.Fatal(err)
	}
	out := l.Scan(&Query{Combine: OpCount}).Inter
	if len(out) != 1 || out[0].Val != 3 {
		t.Fatalf("count = %+v", out)
	}
}

func TestCombineMaxMin(t *testing.T) {
	in := []KV{{"a", 5}, {"a", -2}, {"a", 3}}
	if out := CombinePartials(in, OpMax); out[0].Val != 5 {
		t.Fatalf("max = %v", out[0].Val)
	}
	if out := CombinePartials(in, OpMin); out[0].Val != -2 {
		t.Fatalf("min = %v", out[0].Val)
	}
}

func TestCombineEmpty(t *testing.T) {
	if out := CombinePartials(nil, OpSum); len(out) != 0 {
		t.Fatalf("empty combine = %v", out)
	}
}

func TestCombineSortedOutput(t *testing.T) {
	out := CombinePartials([]KV{{"z", 1}, {"a", 1}, {"m", 1}}, OpSum)
	for i := 1; i < len(out); i++ {
		if out[i-1].Key >= out[i].Key {
			t.Fatalf("output not sorted: %v", out)
		}
	}
}

func TestCombineOpStrings(t *testing.T) {
	if OpSum.String() != "sum" || OpCount.String() != "count" ||
		OpMax.String() != "max" || OpMin.String() != "min" || CombineOp(9).String() != "?" {
		t.Fatal("op strings wrong")
	}
}

func TestKeyCountsAndDistinct(t *testing.T) {
	recs := []KV{{"a", 1}, {"a", 2}, {"b", 3}}
	// Key counts live in the store's cell index, maintained by Add.
	st := &Store{}
	ix := st.index(View{})
	st.Add(recs...)
	if ix.count[ix.ids["a"]] != 2 || ix.count[ix.ids["b"]] != 1 {
		t.Fatalf("cell counts = %v over %v", ix.count, ix.keys)
	}
	if DistinctKeys(recs) != 2 {
		t.Fatalf("DistinctKeys = %d", DistinctKeys(recs))
	}
}

func TestSelfSimilarity(t *testing.T) {
	recs := []KV{{"a", 1}, {"a", 1}, {"a", 1}, {"b", 1}} // 4 records, 2 keys
	if got := SelfSimilarity(recs); got != 0.5 {
		t.Fatalf("SelfSimilarity = %v", got)
	}
	if SelfSimilarity(nil) != 0 {
		t.Fatal("empty similarity should be 0")
	}
}

// Property: CombinePartials is idempotent (combining combined output
// changes nothing) and conserves sums under OpSum.
func TestCombineProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := stats.NewRand(seed)
		n := int(nRaw)%100 + 1
		recs := make([]KV, n)
		var total float64
		for i := range recs {
			v := math.Floor(rng.Float64()*100) / 4
			recs[i] = KV{Key: fmt.Sprintf("k%d", rng.Intn(10)), Val: v}
			total += v
		}
		once := CombinePartials(recs, OpSum)
		twice := CombinePartials(once, OpSum)
		if len(once) != len(twice) {
			return false
		}
		var sum float64
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
			sum += once[i].Val
		}
		return math.Abs(sum-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRecords(t *testing.T) {
	recs := make([]KV, 10)
	for i := range recs {
		recs[i] = KV{Key: fmt.Sprintf("k%d", i)}
	}
	parts, err := PartitionRecords(recs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	// Sizes 4, 3, 3; contiguous and complete.
	total := 0
	for i, p := range parts {
		if p.Index != i {
			t.Fatalf("index %d != %d", p.Index, i)
		}
		total += len(p.Records)
	}
	if total != 10 {
		t.Fatalf("records covered = %d", total)
	}
	if len(parts[0].Records) != 4 || parts[0].Records[0].Key != "k0" {
		t.Fatalf("first partition = %+v", parts[0])
	}
}

func TestPartitionRecordsEdgeCases(t *testing.T) {
	if _, err := PartitionRecords(nil, 0); err == nil {
		t.Fatal("n=0 should error")
	}
	parts, err := PartitionRecords(nil, 4)
	if err != nil || parts != nil {
		t.Fatalf("empty input: %v %v", parts, err)
	}
	// More partitions than records: one record each.
	parts, _ = PartitionRecords([]KV{{"a", 1}, {"b", 2}}, 10)
	if len(parts) != 2 {
		t.Fatalf("capped partitions = %d", len(parts))
	}
}

func TestRoundRobinAssigner(t *testing.T) {
	parts := make([]Partition, 5)
	a, overhead, err := RoundRobinAssigner{}.Assign(parts, 2)
	if err != nil || overhead != 0 {
		t.Fatalf("assign: %v %v", overhead, err)
	}
	want := []int{0, 1, 0, 1, 0}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("assignment = %v", a)
		}
	}
	if _, _, err := (RoundRobinAssigner{}).Assign(parts, 0); err == nil {
		t.Fatal("zero executors should error")
	}
}
