package olap

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestCellsImmutableAfterMutation pins the copy contract: mutating the
// slice Cells returns — coordinates included — must not corrupt the cube,
// and a later Cells call still renders the cube as built.
func TestCellsImmutableAfterMutation(t *testing.T) {
	c := mustBuild(t, MustSchema("a", "b"), []Row{
		{Coords: []string{"x", "1"}, Measure: 2},
		{Coords: []string{"y", "2"}, Measure: 3},
		{Coords: []string{"x", "1"}, Measure: 10},
	})
	snap := c.Cells()
	before := fmt.Sprint(snap)

	snap[0].Coords[0] = "corrupted"
	snap[0].Sum = -1e9
	if _, ok := c.Lookup("corrupted", "1"); ok {
		t.Error("mutating a returned cell's coords leaked into the cube")
	}
	cell, ok := c.Lookup("x", "1")
	if !ok || cell.Sum != 12 {
		t.Errorf("cube cell damaged by snapshot mutation: %+v ok=%v", cell, ok)
	}
	if got := fmt.Sprint(c.Cells()); got != before {
		t.Errorf("cells changed after snapshot mutation:\nbefore %s\nafter  %s", before, got)
	}
}

// TestTopCellsTieBreakDeterministic builds a cube where every cell has
// the same count, in several different insertion orders, and checks the
// TopCells head is identical — the (count desc, key asc) order is total,
// so insertion order must not show through.
func TestTopCellsTieBreakDeterministic(t *testing.T) {
	schema := MustSchema("k")
	rows := make([]Row, 9)
	for i := range rows {
		rows[i] = Row{Coords: []string{fmt.Sprintf("v%d", i)}, Measure: 1}
	}
	var want string
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 6; trial++ {
		shuffled := append([]Row(nil), rows...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		c := mustBuild(t, schema, shuffled)
		var got string
		for _, cell := range c.TopCells(5) {
			got += key(cell.Coords) + ";"
		}
		if trial == 0 {
			want = got
		} else if got != want {
			t.Fatalf("trial %d: TopCells order %q differs from %q despite all-tied counts", trial, got, want)
		}
	}
}

// TestCubeConcurrentReads stress-tests the documented contract that a
// built cube is safe to read concurrently (run under -race in make
// check): many goroutines call every accessor at once.
func TestCubeConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := randomCube(t, rng, 2000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = c.Cells()
				_ = c.TopCells(3)
				_ = c.TotalCount()
				_, _ = c.Lookup("r0", "p0", "d0")
				if _, err := c.DimensionCube("region"); err != nil {
					t.Error(err)
				}
				_ = c.StorageBytes()
			}
		}()
	}
	wg.Wait()
}

// TestBuildCubePooledConcurrentStress runs several pooled builds at
// width > 1 simultaneously (meaningful under -race): the builds share
// nothing and must all agree with the width-1 build.
func TestBuildCubePooledConcurrentStress(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	schema := MustSchema("region", "product", "day")
	rows := make([]Row, buildGrain*2+53)
	for i := range rows {
		rows[i] = Row{
			Coords: []string{
				fmt.Sprintf("r%d", rng.Intn(4)),
				fmt.Sprintf("p%d", rng.Intn(4)),
				fmt.Sprintf("d%d", rng.Intn(4)),
			},
			Measure: rng.Float64(),
		}
	}
	want := fmt.Sprint(mustBuild(t, schema, rows).inOrder())
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := BuildCube(schema, rows, 4)
			if err != nil {
				t.Error(err)
				return
			}
			if got := fmt.Sprint(c.inOrder()); got != want {
				t.Errorf("pooled build diverged from the width-1 build")
			}
		}()
	}
	wg.Wait()
}
