package engine

import (
	"fmt"
	"strings"
	"testing"

	"bohr/internal/olap"
	"bohr/internal/stats"
	"bohr/internal/wan"
)

// outerFields is what NewView(3, 0, 2) makes of a three-field key: not a
// substring of the key, so the projection joins.
func outerFields(key string) string {
	f := strings.Split(key, KeySep)
	return f[0] + KeySep + f[2]
}

// TestCellCountsMatchOlapCube is the count view's differential against the
// olap cube it replaced on the planning path: on generated sites — skewed
// and tie-heavy cell sizes, fresh stores and stores whose own column kept
// the cells similarity-aware moves emptied at count zero — the view's
// Total, Distinct, Count and every Top(k) up to distinct+1 equal the cube's
// TotalCount, NumCells, Lookup and TopCells(k) over the projected records,
// and a mover that knows the top k cells knows exactly the ones Top(k)
// lists.
func TestCellCountsMatchOlapCube(t *testing.T) {
	top, err := wan.NewTopology([]string{"a", "b", "c"}, []float64{5, 10, 20}, []float64{5, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	schema := olap.MustSchema("f0", "f2")
	rng := stats.NewRand(17)
	emptied := 0
	for trial := 0; trial < 24; trial++ {
		tieHeavy, moved := trial%2 == 1, trial%4 >= 2
		c, err := NewCluster(top, 1, 3, 100)
		if err != nil {
			t.Fatal(err)
		}
		for site := 0; site < c.N(); site++ {
			n := 40 + rng.Intn(200)
			for r := 0; r < n; r++ {
				var a, b int
				if tieHeavy {
					// Every cell the same size, give or take one record.
					a, b = r%7, (r/7)%3
				} else {
					u := rng.Float64()
					a, b = int(12*u*u), rng.Intn(3)
				}
				c.Data[site].Add("d", KV{Key: fmt.Sprintf("a%[1]d%[4]sx%[2]d%[4]sb%[3]d", a, r, b, KeySep), Val: 1})
			}
		}
		mover := SimilarMover{View: NewView(3, 0, 2), DstTopK: trial % 5}
		if moved {
			specs := []MoveSpec{
				{Dataset: "d", Src: 0, Dst: 1, MB: c.MB(60)},
				{Dataset: "d", Src: 2, Dst: 0, MB: c.MB(35)},
				{Dataset: "d", Src: 1, Dst: 2, MB: c.MB(50)},
			}
			if _, err := c.ApplyMoves(specs, mover, stats.NewRand(int64(trial))); err != nil {
				t.Fatal(err)
			}
		}
		for site := 0; site < c.N(); site++ {
			name := fmt.Sprintf("trial %d site %d", trial, site)
			st := c.Data[site].Store("d")
			cells, _ := st.Cells(mover.View)
			rows := make([]olap.Row, 0, len(st.Records()))
			for _, r := range st.Records() {
				rows = append(rows, olap.Row{Coords: strings.Split(outerFields(r.Key), KeySep), Measure: r.Val})
			}
			cube, err := olap.BuildCube(schema, rows, 0)
			if err != nil {
				t.Fatal(err)
			}
			if cells.Total() != cube.TotalCount() || cells.Distinct() != cube.NumCells() {
				t.Fatalf("%s: view %d records in %d cells, cube %d in %d",
					name, cells.Total(), cells.Distinct(), cube.TotalCount(), cube.NumCells())
			}
			for _, key := range cells.ix.keys {
				if cells.ix.count[cells.ix.ids[key]] == 0 {
					emptied++
				}
				want := 0
				if cell, ok := cube.Lookup(strings.Split(key, KeySep)...); ok {
					want = cell.Count
				}
				if got := cells.Count(key); got != want {
					t.Fatalf("%s: cell %q counts %d, the cube %d", name, key, got, want)
				}
			}
			for k := 1; k <= cells.Distinct()+1; k++ {
				got, want := cells.Top(k), cube.TopCells(k)
				if len(got) != len(want) {
					t.Fatalf("%s: Top(%d) has %d cells, TopCells %d", name, k, len(got), len(want))
				}
				inTop := map[string]bool{}
				for i, cell := range got {
					if w := want[i]; cell.Key != strings.Join(w.Coords, KeySep) || cell.Count != w.Count {
						t.Fatalf("%s: Top(%d)[%d] = %+v, TopCells has %v×%d", name, k, i, cell, w.Coords, w.Count)
					}
					inTop[cell.Key] = true
				}
				known := cells.ix.known(k)
				for _, key := range cells.ix.keys {
					if (known(key) > 0) != inTop[key] {
						t.Fatalf("%s: a mover knowing the top %d cells knows %q at %d; in Top: %v",
							name, k, key, known(key), inTop[key])
					}
				}
			}
		}
	}
	if emptied == 0 {
		t.Fatal("no store kept an emptied cell: the moved leg exercised nothing")
	}
}
