package engine

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"bohr/internal/stats"
	"bohr/internal/wan"
)

// Property: a scan (identity map, OpSum) conserves the total value mass —
// the sum over the final output equals the sum over all input records,
// regardless of placement, task fractions, or executor counts.
func TestRunConservesMassProperty(t *testing.T) {
	f := func(seed int64, sitesRaw, execRaw uint8) bool {
		rng := stats.NewRand(seed)
		c := testClusterQ(int(sitesRaw%3)+2, int(execRaw%4)+1)
		var total float64
		for i := 0; i < c.N(); i++ {
			n := rng.Intn(300)
			for r := 0; r < n; r++ {
				v := float64(rng.Intn(100))
				total += v
				c.Data[i].Add("d", KV{Key: fmt.Sprintf("k%d", rng.Intn(40)), Val: v})
			}
		}
		res, err := c.Run(context.Background(), JobConfig{Query: ScanQuery("s", "d")})
		if err != nil {
			return false
		}
		var got float64
		for _, kv := range res.Output {
			got += kv.Val
		}
		return math.Abs(got-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: movers select exactly min(n, len(src)) distinct in-range
// positions, in store order, for both policies and any destination
// counts, and Remove takes exactly those.
func TestMoverSelectionProperty(t *testing.T) {
	f := func(seed int64, nRaw, askRaw uint8, similar bool) bool {
		rng := stats.NewRand(seed)
		n := int(nRaw%200) + 1
		st := &Store{}
		for i := 0; i < n; i++ {
			st.Add(KV{Key: fmt.Sprintf("k%d", rng.Intn(30)), Val: float64(i)})
		}
		dst := DstCells{}
		for i := 0; i < rng.Intn(20); i++ {
			dst[fmt.Sprintf("k%d", rng.Intn(30))] = rng.Intn(50) + 1
		}
		ask := int(askRaw % 220)
		var mover Mover = RandomMover{}
		if similar {
			mover = SimilarMover{DstTopK: rng.Intn(10)}
		}
		sel := st.choose(mover, dst, ask, rng)
		want := min(ask, n)
		if len(sel.records) != want || len(sel.at) != want {
			return false
		}
		for k, i := range sel.at {
			if i < 0 || i >= n || (k > 0 && i <= sel.at[k-1]) || sel.records[k] != st.recs[i] {
				return false
			}
		}
		return st.remove(sel) == nil && len(st.Records()) == n-want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: ApplyMoves conserves records globally for any plan the
// planner could emit.
func TestApplyMovesConservationProperty(t *testing.T) {
	f := func(seed int64, moveRaw uint8) bool {
		rng := stats.NewRand(seed)
		c := testClusterQ(3, 2)
		total := 0
		for i := 0; i < c.N(); i++ {
			n := 100 + rng.Intn(200)
			total += n
			for r := 0; r < n; r++ {
				c.Data[i].Add("d", KV{Key: fmt.Sprintf("k%d", rng.Intn(25)), Val: 1})
			}
		}
		var specs []MoveSpec
		for m := 0; m < int(moveRaw%6); m++ {
			specs = append(specs, MoveSpec{
				Dataset: "d",
				Src:     rng.Intn(3),
				Dst:     rng.Intn(3),
				MB:      rng.Float64() * c.MB(100),
			})
		}
		if _, err := c.ApplyMoves(specs, SimilarMover{}, rng); err != nil {
			return false
		}
		after := 0
		for i := 0; i < c.N(); i++ {
			after += len(c.Data[i].Records("d"))
		}
		return after == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: KeyOwner always returns a site with positive task fraction.
func TestKeyOwnerRespectsZeroFractionsProperty(t *testing.T) {
	f := func(seed int64, key string) bool {
		rng := stats.NewRand(seed)
		n := 2 + rng.Intn(6)
		frac := make([]float64, n)
		alive := map[int]bool{}
		var sum float64
		for i := range frac {
			if rng.Float64() < 0.4 {
				continue // leave at zero
			}
			frac[i] = rng.Float64()
			sum += frac[i]
		}
		if sum == 0 {
			frac[0] = 1
			sum = 1
		}
		for i := range frac {
			frac[i] /= sum
			if frac[i] > 0 {
				alive[i] = true
			}
		}
		return alive[KeyOwner(key, frac)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// testClusterQ builds a uniform cluster for property tests.
func testClusterQ(sites, execs int) *Cluster {
	names := make([]string, sites)
	up := make([]float64, sites)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		up[i] = float64(5 * (i + 1))
	}
	top, err := newTopologyQ(names, up)
	if err != nil {
		panic(err)
	}
	c, err := NewCluster(top, 1, execs, 100)
	if err != nil {
		panic(err)
	}
	return c
}

// newTopologyQ builds a symmetric topology for property tests.
func newTopologyQ(names []string, up []float64) (*wan.Topology, error) {
	return wan.NewTopology(names, up, up)
}
