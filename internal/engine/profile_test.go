package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bohr/internal/stats"
	"bohr/internal/wan"
)

// ProfileIntermediate replays the map+combine stage of one site over the
// dataset's records there and returns the post-combiner record count — the
// oracle a Profile's counts are held to.
func (c *Cluster) ProfileIntermediate(dataset string, q Query, site int) (int, error) {
	l, _, err := c.Data[site].Store(dataset).Layout(Stage{Exec: c.Exec[site]})
	if err != nil {
		return 0, err
	}
	return len(l.Scan(&q).Inter), nil
}

// linkQuery emits a record's cell and a link key that several cells share,
// like the UDF's scatter: a count of cells is not a count of keys.
var linkQuery = Query{
	Name: "link", Dataset: "d", Combine: OpSum,
	Map: func(r KV, emit func(string, float64)) {
		f := firstField(r.Key)
		emit(f, r.Val)
		emit("L"+f[len(f)-1:], r.Val)
	},
}

// profileCluster is four sites of unequal executor shapes holding skewed
// cells; site 2 holds nothing. Site 0's store keeps an index of another
// view, which a profile must read past without adopting.
func profileCluster(t *testing.T) *Cluster {
	t.Helper()
	top, err := wan.NewTopology([]string{"a", "b", "c", "d"}, []float64{5, 10, 20, 40}, []float64{5, 10, 20, 40})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(top, 1, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	c.Exec = []Executors{{1, 4}, {2, 2}, {3, 1}, {2, 3}}
	rng := stats.NewRand(3)
	for site, n := range []int{300, 170, 0, 90} {
		for r := 0; r < n; r++ {
			u := rng.Float64()
			c.Data[site].Add("d", KV{Key: fmt.Sprintf("c%d%sx%d", int(40*u*u)+site, KeySep, r), Val: 1})
		}
	}
	c.Data[0].Store("d").index(View{})
	return c
}

// spell spells a cell column out as its cells' keys.
func spell(ix *cellIndex) []string {
	out := make([]string, len(ix.cell))
	for i, id := range ix.cell {
		out[i] = ix.keys[id]
	}
	return out
}

// TestDryRunMatchesApplyMoves is the dry run's differential: for every
// mover, the cell column a Profile's dry run leaves at each site is the one
// the records real ApplyMoves leaves there fall in — sequence, not just
// counts — the two draw the same random numbers, and the counts equal a
// replay of the moved cluster.
func TestDryRunMatchesApplyMoves(t *testing.T) {
	base := profileCluster(t)
	mb := base.MB
	lists := map[string][]MoveSpec{
		// Out of order, with a site onto itself, an empty source and a spec
		// of no volume, which ApplyMoves skips.
		"mixed": {
			{Dataset: "d", Src: 3, Dst: 0, MB: mb(40)},
			{Dataset: "d", Src: 0, Dst: 1, MB: mb(60)},
			{Dataset: "d", Src: 1, Dst: 1, MB: mb(5)},
			{Dataset: "d", Src: 0, Dst: 3, MB: mb(25)},
			{Dataset: "d", Src: 2, Dst: 1, MB: mb(10)},
			{Dataset: "d", Src: 1, Dst: 0, MB: mb(30)},
			{Dataset: "d", Src: 3, Dst: 1, MB: 0},
		},
		// n ≥ len: the whole site leaves, then part of it comes back.
		"whole-site": {
			{Dataset: "d", Src: 3, Dst: 2, MB: mb(1000)},
			{Dataset: "d", Src: 2, Dst: 3, MB: mb(45)},
		},
	}
	movers := map[string]Mover{
		"similar-top0":   SimilarMover{View: fieldView},
		"similar-top1":   SimilarMover{View: fieldView, DstTopK: 1},
		"similar-top500": SimilarMover{View: fieldView, DstTopK: 500},
		"random":         RandomMover{},
	}
	for lname, specs := range lists {
		for mname, mover := range movers {
			name := lname + "/" + mname
			moved := base.Clone()
			realRng, dryRng := stats.NewRand(9), stats.NewRand(9)
			if _, err := moved.ApplyMoves(specs, mover, realRng); err != nil {
				t.Fatal(err)
			}
			prof := NewProfile(base, "d", linkQuery.Map, fieldView)
			cols, err := prof.dryRun(specs, mover, dryRng)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := realRng.Int63(), dryRng.Int63(); a != b {
				t.Errorf("%s: the dry run drew other random numbers than ApplyMoves", name)
			}
			for i := range cols {
				ix := cols[i].ix
				if ix == nil {
					ix, _ = base.Data[i].Store("d").cells(fieldView)
				}
				var want []string
				for _, r := range moved.Data[i].Records("d") {
					want = append(want, firstField(r.Key))
				}
				if got := spell(ix); !slices.Equal(got, want) {
					t.Errorf("%s: site %d column\n%v\nwant\n%v", name, i, got, want)
				}
				live := map[string]int{}
				for _, cell := range spell(ix) {
					live[cell]++
				}
				for id, n := range ix.count {
					if n != live[ix.keys[id]] {
						t.Errorf("%s: site %d cell %q counted %d, holds %d", name, i, ix.keys[id], n, live[ix.keys[id]])
					}
				}
			}
			counts, err := prof.Counts(specs, mover, stats.NewRand(9))
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range counts {
				want, err := moved.ProfileIntermediate("d", linkQuery, i)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s: site %d profiled %d records, a replay counts %d", name, i, got, want)
				}
			}
		}
	}
}

// TestProfileCountsMatchReplay holds the stores' own counts to a replay,
// and checks a profile neither writes a store nor adopts an index.
func TestProfileCountsMatchReplay(t *testing.T) {
	c := profileCluster(t)
	versions := make([]uint64, c.N())
	for i := range versions {
		versions[i] = c.Data[i].Store("d").Version()
	}
	prof := NewProfile(c, "d", linkQuery.Map, fieldView)
	counts, err := prof.Counts(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range counts {
		want, err := c.ProfileIntermediate("d", linkQuery, i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("site %d profiled %d records, a replay counts %d", i, got, want)
		}
		if st := c.Data[i].Store("d"); st.Version() != versions[i] {
			t.Errorf("site %d: profiling wrote the store", i)
		}
	}
	if ix := c.Data[0].Store("d").idx; ix == nil || ix.view == fieldView {
		t.Error("profiling replaced the store's own index")
	}
	if _, err := prof.Counts([]MoveSpec{{Dataset: "d", Src: 0, Dst: 1, MB: 1}}, SimilarMover{View: NewView(2, 1)}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("a mover of another view was profiled")
	}
	if _, err := prof.Counts([]MoveSpec{{Dataset: "e", Src: 0, Dst: 1, MB: 1}}, RandomMover{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("a move of another dataset was profiled")
	}
}
