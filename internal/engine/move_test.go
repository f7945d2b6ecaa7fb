package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"bohr/internal/stats"
)

// DstCells is a destination described by cell counts already in the
// mover's attribute space, so a test can state a destination without
// building its store.
type DstCells map[string]int

func (d DstCells) index(v View) *cellIndex {
	ix := newCellIndex(v, len(d))
	for cell, n := range d {
		ix.count[ix.intern(cell)] += n
	}
	return ix
}

// selectFrom has the mover choose n records of src, held in a fresh store,
// toward a destination described by cell counts.
func selectFrom(m Mover, src []KV, dst DstCells, n int, rng *rand.Rand) []KV {
	st := &Store{}
	st.Add(src...)
	return st.choose(m, dst, n, rng).records
}

func TestRandomMoverSelectsN(t *testing.T) {
	rng := stats.NewRand(1)
	src := make([]KV, 100)
	for i := range src {
		src[i] = KV{Key: fmt.Sprintf("k%d", i)}
	}
	got := selectFrom(RandomMover{}, src, nil, 30, rng)
	if len(got) != 30 {
		t.Fatalf("selected %d", len(got))
	}
	seen := map[string]bool{}
	for _, r := range got {
		if seen[r.Key] {
			t.Fatalf("record %q selected twice", r.Key)
		}
		seen[r.Key] = true
	}
	// Over-ask returns everything.
	if got := selectFrom(RandomMover{}, src, nil, 1000, rng); len(got) != 100 {
		t.Fatalf("over-ask = %d", len(got))
	}
}

// TestRandomMoverPicksAPermPrefix holds RandomMover's pick, which runs
// rand.Perm's loop in a reused buffer, to rng.Perm(size)[:n] sorted: the
// same positions, the rng left where Perm leaves it, and a fresh slice that
// a later pick does not overwrite.
func TestRandomMoverPicksAPermPrefix(t *testing.T) {
	sizes := []int{1000}
	for size := 0; size <= 64; size++ {
		sizes = append(sizes, size)
	}
	for _, seed := range []int64{1, 7, 42, 1009} {
		for _, size := range sizes {
			for _, n := range []int{1, size / 3, size - 1, size} {
				if n < 0 || n > size {
					continue
				}
				got, want := stats.NewRand(seed), stats.NewRand(seed)
				at := RandomMover{}.pick(nil, size, nil, n, got)
				perm := want.Perm(size)[:n]
				sort.Ints(perm)
				if !slices.Equal(at, perm) {
					t.Fatalf("seed %d, %d of %d: picked %v, want %v", seed, n, size, at, perm)
				}
				if a, b := got.Int63(), want.Int63(); a != b {
					t.Fatalf("seed %d, %d of %d: the next draw is %d, after Perm %d", seed, n, size, a, b)
				}
				RandomMover{}.pick(nil, size, nil, n, got)
				if !slices.Equal(at, perm) {
					t.Fatalf("seed %d, %d of %d: the next pick overwrote the positions", seed, n, size)
				}
			}
		}
	}
}

func TestSimilarMoverPrefersSharedKeys(t *testing.T) {
	src := []KV{
		{"shared-big", 1}, {"shared-big", 1},
		{"local-only", 1}, {"local-only", 1}, {"local-only", 1},
		{"shared-small", 1},
	}
	dst := DstCells{"shared-big": 50, "shared-small": 2}
	got := selectFrom(SimilarMover{}, src, dst, 3, nil)
	if len(got) != 3 {
		t.Fatalf("selected %d", len(got))
	}
	for _, r := range got {
		if r.Key != "shared-big" && r.Key != "shared-small" {
			t.Fatalf("selected non-shared key %q before shared ones", r.Key)
		}
	}
	// Among shared keys, the smaller source cluster leaves first:
	// shared-small (1 record) precedes shared-big (2 records).
	if first := selectFrom(SimilarMover{}, src, dst, 1, nil); first[0].Key != "shared-small" {
		t.Fatalf("smallest shared cluster should move first, got %q", first[0].Key)
	}
}

func TestSimilarMoverDstTopKBoundsKnowledge(t *testing.T) {
	// With DstTopK=1 the mover only knows the destination's biggest cell;
	// records of other shared keys rank as unknown.
	src := []KV{{"big", 1}, {"small", 1}, {"tail", 1}}
	dst := DstCells{"big": 50, "small": 2}
	got := selectFrom(SimilarMover{DstTopK: 1}, src, dst, 1, nil)
	if got[0].Key != "big" {
		t.Fatalf("only the known top cell should rank first, got %q", got[0].Key)
	}
}

func TestSimilarMoverSharedSmallClustersFirst(t *testing.T) {
	// Among destination-shared keys, whole small clusters leave first:
	// each departed cluster removes one post-combiner cell from the
	// source, so singletons relieve the bottleneck fastest per record.
	src := []KV{
		{"dup", 1}, {"dup", 1}, {"dup", 1},
		{"solo1", 1}, {"solo2", 1},
	}
	dst := DstCells{"dup": 4, "solo1": 1, "solo2": 1}
	for _, r := range selectFrom(SimilarMover{}, src, dst, 2, nil) {
		if r.Key == "dup" {
			t.Fatalf("shared singletons should move before the shared duplicated key, got %q", r.Key)
		}
	}
}

func TestSimilarMoverOverAsk(t *testing.T) {
	src := []KV{{"a", 1}, {"b", 2}}
	if got := selectFrom(SimilarMover{}, src, nil, 10, nil); len(got) != 2 {
		t.Fatalf("over-ask = %d", len(got))
	}
}

func TestApplyMovesMovesRecords(t *testing.T) {
	c := testCluster(t)
	for i := 0; i < 100; i++ {
		c.Data[0].Add("ds", KV{Key: fmt.Sprintf("k%d", i%10), Val: 1})
	}
	rng := stats.NewRand(2)
	// 100 records at 100 B = 0.01 MB total; move 0.004 MB = 40 records.
	res, err := c.ApplyMoves([]MoveSpec{{Dataset: "ds", Src: 0, Dst: 2, MB: 0.004}}, SimilarMover{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 40 {
		t.Fatalf("moved %d records, want 40", res.Records)
	}
	if len(c.Data[0].Records("ds")) != 60 || len(c.Data[2].Records("ds")) != 40 {
		t.Fatalf("post-move sizes: %d / %d",
			len(c.Data[0].Records("ds")), len(c.Data[2].Records("ds")))
	}
	if len(res.Transfers) != 1 || res.Transfers[0].MB != c.MB(40) {
		t.Fatalf("transfers = %+v", res.Transfers)
	}
}

func TestApplyMovesValidation(t *testing.T) {
	c := testCluster(t)
	rng := stats.NewRand(1)
	if _, err := c.ApplyMoves(nil, nil, rng); err == nil {
		t.Fatal("nil mover should error")
	}
	if _, err := c.ApplyMoves([]MoveSpec{{Dataset: "ds", Src: 0, Dst: 99, MB: 1}}, RandomMover{}, rng); err == nil {
		t.Fatal("out-of-range site should error")
	}
}

func TestApplyMovesSkipsDegenerate(t *testing.T) {
	c := testCluster(t)
	c.Data[0].Add("ds", KV{"k", 1})
	rng := stats.NewRand(1)
	res, err := c.ApplyMoves([]MoveSpec{
		{Dataset: "ds", Src: 0, Dst: 0, MB: 5},   // self move
		{Dataset: "ds", Src: 1, Dst: 2, MB: 5},   // empty source
		{Dataset: "ds", Src: 0, Dst: 1, MB: 0},   // zero volume
		{Dataset: "ds", Src: 0, Dst: 1, MB: -3},  // negative volume
		{Dataset: "none", Src: 0, Dst: 1, MB: 5}, // unknown dataset
	}, RandomMover{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 0 || len(res.Transfers) != 0 {
		t.Fatalf("degenerate moves should be no-ops: %+v", res)
	}
	if len(c.Data[0].Records("ds")) != 1 {
		t.Fatal("data should be untouched")
	}
}

func TestApplyMovesConservation(t *testing.T) {
	c := testCluster(t)
	rng := stats.NewRand(3)
	total := 0
	for i := 0; i < c.N(); i++ {
		n := 200 * (i + 1)
		total += n
		for r := 0; r < n; r++ {
			c.Data[i].Add("ds", KV{Key: fmt.Sprintf("s%d-%d", i, r%20), Val: 1})
		}
	}
	specs := []MoveSpec{
		{Dataset: "ds", Src: 0, Dst: 1, MB: 0.005},
		{Dataset: "ds", Src: 1, Dst: 2, MB: 0.01},
		{Dataset: "ds", Src: 2, Dst: 0, MB: 0.002},
	}
	if _, err := c.ApplyMoves(specs, SimilarMover{}, rng); err != nil {
		t.Fatal(err)
	}
	after := 0
	for i := 0; i < c.N(); i++ {
		after += len(c.Data[i].Records("ds"))
	}
	if after != total {
		t.Fatalf("records not conserved: %d → %d", total, after)
	}
}

func TestSimilarMoveImprovesCombining(t *testing.T) {
	// The motivating example of Figure 1: moving similar data must yield
	// less intermediate data than moving random data.
	mkCluster := func() *Cluster {
		c := testCluster(t)
		rng := stats.NewRand(42)
		// Site 0 (bottleneck): mixed keys, half shared with site 2.
		for i := 0; i < 4000; i++ {
			var k string
			if i%2 == 0 {
				k = fmt.Sprintf("shared-%d", rng.Intn(200)) // also at site 2
			} else {
				k = fmt.Sprintf("site0-%d", rng.Intn(200))
			}
			c.Data[0].Add("ds", KV{Key: k, Val: 1})
		}
		for i := 0; i < 2000; i++ {
			c.Data[2].Add("ds", KV{Key: fmt.Sprintf("shared-%d", rng.Intn(200)), Val: 1})
		}
		return c
	}
	moveMB := 0.2 // 2000 records
	run := func(m Mover) float64 {
		c := mkCluster()
		rng := stats.NewRand(9)
		if _, err := c.ApplyMoves([]MoveSpec{{Dataset: "ds", Src: 0, Dst: 2, MB: moveMB}}, m, rng); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background(), JobConfig{Query: ScanQuery("s", "ds")})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Sum(res.IntermediateMBPerSite)
	}
	similar := run(SimilarMover{})
	random := run(RandomMover{})
	if similar >= random {
		t.Fatalf("similarity-aware movement should reduce intermediate data: similar=%v random=%v", similar, random)
	}
}

// refSelect is the selection and split ApplyMoves ran before stores kept a
// cell index, kept as the reference the store path must reproduce: count
// the destination's keys, project and count every source record, cut the
// destination to its top cells, rank the projected keys, stable-sort the
// record indices by rank, take the first n, and split the source in
// source order.
func refSelect(src, dstRecs []KV, similar bool, project func(string) string, topK, n int, rng *rand.Rand) (moved, kept []KV) {
	allIndices := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	var idx []int
	switch {
	case n >= len(src):
		idx = allIndices(len(src))
	case !similar:
		idx = rng.Perm(len(src))[:n]
	default:
		proj := project
		if proj == nil {
			proj = func(k string) string { return k }
		}
		srcCounts := make(map[string]int, len(src))
		projected := make([]string, len(src))
		for i, r := range src {
			projected[i] = proj(r.Key)
			srcCounts[projected[i]]++
		}
		dstCounts := map[string]int{}
		for _, r := range dstRecs {
			dstCounts[proj(r.Key)]++
		}
		if topK > 0 && len(dstCounts) > topK {
			type kc struct {
				k string
				c int
			}
			cells := make([]kc, 0, len(dstCounts))
			for k, c := range dstCounts {
				cells = append(cells, kc{k, c})
			}
			sort.Slice(cells, func(a, b int) bool {
				if cells[a].c != cells[b].c {
					return cells[a].c > cells[b].c
				}
				return cells[a].k < cells[b].k
			})
			dstCounts = make(map[string]int, topK)
			for _, cell := range cells[:topK] {
				dstCounts[cell.k] = cell.c
			}
		}
		keys := make([]string, 0, len(srcCounts))
		for k := range srcCounts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			ka, kb := keys[a], keys[b]
			da, db := dstCounts[ka], dstCounts[kb]
			if (da > 0) != (db > 0) {
				return da > 0
			}
			if srcCounts[ka] != srcCounts[kb] {
				return srcCounts[ka] < srcCounts[kb]
			}
			if da != db {
				return da > db
			}
			return ka < kb
		})
		rank := make(map[string]int, len(keys))
		for i, k := range keys {
			rank[k] = i
		}
		idx = allIndices(len(src))
		sort.SliceStable(idx, func(a, b int) bool {
			return rank[projected[idx[a]]] < rank[projected[idx[b]]]
		})
		idx = idx[:n]
	}
	moving := make(map[int]bool, len(idx))
	for _, i := range idx {
		moving[i] = true
	}
	for i, r := range src {
		if moving[i] {
			moved = append(moved, r)
		} else {
			kept = append(kept, r)
		}
	}
	return moved, kept
}

// TestStoreMovesMatchReference drives seeded random sequences of add /
// move / clone-then-diverge / restore over real clusters and, beside each,
// a model of plain record slices moved by refSelect. After every step the
// stores must hold the model's records in the model's order (so the same
// records moved, in the same order, and the same stayed), every live
// index must equal a from-scratch recount, and the version must have
// risen on exactly the stores the step mutated.
func TestStoreMovesMatchReference(t *testing.T) {
	const sites = 3
	prefix := func(fields int) func(string) string {
		return func(k string) string {
			return strings.Join(strings.SplitN(k, KeySep, fields+1)[:fields], KeySep)
		}
	}
	// Each mover beside the reference's projection of its view.
	movers := []struct {
		SimilarMover
		project func(string) string
	}{
		{SimilarMover{}, nil}, {SimilarMover{DstTopK: 1}, nil}, {SimilarMover{DstTopK: 500}, nil},
		{SimilarMover{View: NewView(3, 0, 1)}, prefix(2)}, {SimilarMover{View: NewView(3, 0, 1), DstTopK: 1}, prefix(2)},
		{SimilarMover{View: NewView(3, 0, 1), DstTopK: 3}, prefix(2)}, {SimilarMover{View: NewView(3, 0), DstTopK: 2}, prefix(1)},
	}
	// pair is one cluster and its model; clones join the list and diverge.
	type pair struct {
		c   *Cluster
		ref [sites][]KV
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := stats.NewRand(seed)
		serial := 0.0
		randRecs := func(n int) []KV {
			out := make([]KV, n)
			for i := range out {
				serial++ // distinct values tell records of one key apart
				out[i] = KV{Key: fmt.Sprintf("a%[1]d%[4]sb%[2]d%[4]sc%[3]d", rng.Intn(3), rng.Intn(4), rng.Intn(6), KeySep), Val: serial}
			}
			return out
		}
		versions := func(ps []*pair) [][sites]uint64 {
			out := make([][sites]uint64, len(ps))
			for p, pr := range ps {
				for i := range out[p] {
					out[p][i] = pr.c.Data[i].Store("d").Version()
				}
			}
			return out
		}
		pairs := []*pair{{c: testClusterQ(sites, 1)}}
		for step := 0; step < 80; step++ {
			pi := rng.Intn(len(pairs))
			p := pairs[pi]
			before := versions(pairs)
			var mutated [sites]bool
			what := ""
			switch op := rng.Intn(10); {
			case op < 3:
				site, recs := rng.Intn(sites), randRecs(1+rng.Intn(40))
				what = fmt.Sprintf("add %d@%d", len(recs), site)
				p.c.Data[site].Add("d", recs...)
				p.ref[site] = append(p.ref[site], recs...)
				mutated[site] = true
			case op < 8:
				src, dst := rng.Intn(sites), rng.Intn(sites)
				if src == dst || len(p.ref[src]) == 0 {
					continue
				}
				// Asks reach past the source, so n ≥ len(src) happens.
				mb := p.c.MB(1 + rng.Intn(len(p.ref[src])+5))
				n := min(p.c.RecordsFor(mb), len(p.ref[src]))
				if n == 0 {
					continue
				}
				var mover Mover = RandomMover{}
				var sm SimilarMover
				var project func(string) string
				similar := rng.Intn(4) > 0
				if similar {
					m := movers[rng.Intn(len(movers))]
					sm, project = m.SimilarMover, m.project
					mover = sm
				}
				what = fmt.Sprintf("move %d %d→%d %T view=%v topK=%d", n, src, dst, mover, sm.View, sm.DstTopK)
				moveSeed := rng.Int63()
				res, err := p.c.ApplyMoves([]MoveSpec{{Dataset: "d", Src: src, Dst: dst, MB: mb}}, mover, stats.NewRand(moveSeed))
				if err != nil {
					t.Fatalf("seed %d step %d (%s): %v", seed, step, what, err)
				}
				moved, kept := refSelect(p.ref[src], p.ref[dst], similar, project, sm.DstTopK, n, stats.NewRand(moveSeed))
				if res.Records != len(moved) {
					t.Fatalf("seed %d step %d (%s): moved %d records, reference %d", seed, step, what, res.Records, len(moved))
				}
				p.ref[src] = kept
				p.ref[dst] = append(p.ref[dst], moved...)
				mutated[src], mutated[dst] = true, true
			case op < 9:
				what = "clone"
				cl := &pair{c: p.c.Clone(), ref: p.ref}
				for i := range cl.ref {
					cl.ref[i] = slices.Clone(cl.ref[i])
				}
				pairs = append(pairs, cl)
				before = append(before, before[pi]) // a clone starts at its source's versions
			default:
				site, recs := rng.Intn(sites), randRecs(rng.Intn(30))
				what = fmt.Sprintf("restore %d@%d", len(recs), site)
				p.c.Data[site].Restore("d", slices.Clone(recs))
				p.ref[site] = recs
				mutated[site] = true
			}
			after := versions(pairs)
			for q, pr := range pairs {
				for i := 0; i < sites; i++ {
					at := fmt.Sprintf("seed %d step %d (%s): cluster %d site %d", seed, step, what, q, i)
					if rose := after[q][i] > before[q][i]; rose != (q == pi && mutated[i]) {
						t.Fatalf("%s: version %d → %d, mutated=%v", at, before[q][i], after[q][i], q == pi && mutated[i])
					}
					st := pr.c.Data[i].Store("d")
					if !slices.Equal(st.Records(), pr.ref[i]) {
						t.Fatalf("%s: records diverge from the reference\n got %v\nwant %v", at, st.Records(), pr.ref[i])
					}
					if st == nil || st.idx == nil {
						continue
					}
					ix := st.idx
					if len(ix.cell) != len(st.recs) {
						t.Fatalf("%s: cell column has %d entries for %d records", at, len(ix.cell), len(st.recs))
					}
					recount := make([]int, len(ix.count))
					for r, rec := range st.recs {
						cell := ix.view.Key(rec.Key)
						if ix.keys[ix.cell[r]] != cell {
							t.Fatalf("%s: record %d is in cell %q, projects to %q", at, r, ix.keys[ix.cell[r]], cell)
						}
						recount[ix.cell[r]]++
					}
					if !slices.Equal(recount, ix.count) {
						t.Fatalf("%s: index counts %v, recount %v", at, ix.count, recount)
					}
				}
			}
		}
	}
}

// TestStoreMovesMatchReferenceTieHeavy is the differential where selection,
// as opposed to sorting, can go wrong: hundreds of cells whose counts are
// 1, 2 or 3, so the destination's top-K cut and the source's rank both fall
// inside large groups only the key tie-break orders, with the cut at, just
// inside and just past the live cell count and asks from one record through
// several cell boundaries to the whole store.
func TestStoreMovesMatchReferenceTieHeavy(t *testing.T) {
	const cells = 640
	for seed := int64(1); seed <= 3; seed++ {
		rng := stats.NewRand(seed)
		site := func(tag float64) []KV {
			var recs []KV
			for cell := range cells {
				for range 1 + rng.Intn(3) {
					recs = append(recs, KV{Key: fmt.Sprintf("k%03d", cell), Val: tag + float64(len(recs))})
				}
			}
			rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
			return recs
		}
		// The destination misses some of the source's cells and holds others
		// the source lacks, so both rank classes are populated.
		srcRecs, dstRecs := site(0), site(1e6)
		srcRecs = slices.DeleteFunc(srcRecs, func(r KV) bool { return r.Key < "k020" })
		dstRecs = slices.DeleteFunc(dstRecs, func(r KV) bool { return r.Key >= "k620" })
		const live = 620
		asks := []int{1, 2, 3, 4, 5, 7, 12, 40, 300, 900, len(srcRecs) - 1, len(srcRecs)}
		for _, topK := range []int{0, 1, live - 1, live, live + 1, 500} {
			for _, n := range asks {
				c := testClusterQ(2, 1)
				c.Data[0].Add("d", srcRecs...)
				c.Data[1].Add("d", dstRecs...)
				at := fmt.Sprintf("seed %d topK %d n %d", seed, topK, n)
				// Two moves in a row: the second selects from an index the
				// first one's Remove compacted.
				ref := [2][]KV{srcRecs, dstRecs}
				for round := range 2 {
					mb := c.MB(n)
					n := min(c.RecordsFor(mb), len(ref[0]))
					if _, err := c.ApplyMoves([]MoveSpec{{Dataset: "d", Src: 0, Dst: 1, MB: mb}}, SimilarMover{DstTopK: topK}, nil); err != nil {
						t.Fatalf("%s round %d: %v", at, round, err)
					}
					moved, kept := refSelect(ref[0], ref[1], true, nil, topK, n, nil)
					ref[0], ref[1] = kept, append(slices.Clone(ref[1]), moved...)
					for i := range ref {
						if got := c.Data[i].Records("d"); !slices.Equal(got, ref[i]) {
							t.Fatalf("%s round %d: site %d diverges from the reference (%d records, want %d)", at, round, i, len(got), len(ref[i]))
						}
					}
				}
			}
		}
	}
}

// TestNthElementMatchesSort checks the selection helper against a full
// sort: the element at n is the sorted one and nothing on either side of it
// belongs on the other — for every n on small inputs, the ends and a spread
// of n on large ones, over shuffled, sorted, reversed and all-equal-count
// input under the mover's (count desc, key asc) order.
func TestNthElementMatchesSort(t *testing.T) {
	type cell struct {
		count int
		key   string
	}
	less := func(a, b cell) bool {
		if a.count != b.count {
			return a.count > b.count
		}
		return a.key < b.key
	}
	cmp := func(a, b cell) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	}
	rng := stats.NewRand(5)
	check := func(name string, in []cell, n int) {
		t.Helper()
		want := slices.Clone(in)
		slices.SortFunc(want, cmp)
		got := slices.Clone(in)
		nthElement(got, n, less)
		if got[n] != want[n] {
			t.Fatalf("%s: n=%d of %d: got %v, sorted has %v", name, n, len(in), got[n], want[n])
		}
		for i, c := range got {
			if (i < n && less(got[n], c)) || (i > n && less(c, got[n])) {
				t.Fatalf("%s: n=%d of %d: %v at %d is on the wrong side of %v", name, n, len(in), c, i, got[n])
			}
		}
		slices.SortFunc(got, cmp)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: n=%d of %d: selection changed the elements", name, n, len(in))
		}
	}
	for size := 1; size <= 700; size += 1 + size/3 {
		for _, counts := range []int{1, 3, 1000} {
			in := make([]cell, size)
			for i := range in {
				in[i] = cell{1 + rng.Intn(counts), fmt.Sprintf("k%04d", i)}
			}
			sorted := slices.Clone(in)
			slices.SortFunc(sorted, cmp)
			reversed := slices.Clone(sorted)
			slices.Reverse(reversed)
			shuffled := slices.Clone(in)
			rng.Shuffle(size, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for name, input := range map[string][]cell{"insertion": in, "sorted": sorted, "reversed": reversed, "shuffled": shuffled} {
				name = fmt.Sprintf("%s/counts≤%d", name, counts)
				ns := []int{0, size - 1, size / 2, rng.Intn(size)}
				if size <= 16 {
					ns = ns[:0]
					for n := range size {
						ns = append(ns, n)
					}
				}
				for _, n := range ns {
					check(name, input, n)
				}
			}
		}
	}
}

// TestApplyMovesOnCloneLeavesSnapshot: moves on a clone grow the clone's
// destinations — once each, by what the rest of the move list brings them —
// in arrays of their own. Every record slice the snapshot handed out before
// holds the same records after, read up to its capacity, where the
// snapshot's own next Add writes.
func TestApplyMovesOnCloneLeavesSnapshot(t *testing.T) {
	c := testCluster(t)
	for i := 0; i < c.N(); i++ {
		for r := 0; r < 300+70*i; r++ {
			c.Data[i].Add("ds", KV{Key: fmt.Sprintf("k%d", r%(13+i)), Val: float64(r)})
		}
	}
	held, want := make([][]KV, c.N()), make([][]KV, c.N())
	for i := range held {
		held[i] = c.Data[i].Records("ds")
		if len(held[i]) == cap(held[i]) {
			t.Fatalf("site %d has no spare capacity a clone could write into", i)
		}
		want[i] = slices.Clone(held[i][:cap(held[i])])
	}
	// Every site sends to every other, so each destination takes two arrivals.
	var specs []MoveSpec
	for src := 0; src < c.N(); src++ {
		for dst := 0; dst < c.N(); dst++ {
			if src != dst {
				specs = append(specs, MoveSpec{Dataset: "ds", Src: src, Dst: dst, MB: c.MB(40 + 10*src + dst)})
			}
		}
	}
	for _, m := range []Mover{RandomMover{}, SimilarMover{}, SimilarMover{DstTopK: 3}} {
		res, err := c.Clone().ApplyMoves(specs, m, stats.NewRand(5))
		if err != nil || res.Records == 0 {
			t.Fatalf("%T: moved %+v, %v", m, res, err)
		}
		for i := range held {
			if !slices.Equal(held[i][:cap(held[i])], want[i]) || !slices.Equal(c.Data[i].Records("ds"), want[i][:len(held[i])]) {
				t.Fatalf("%T: the clone's moves changed the snapshot's records at site %d", m, i)
			}
		}
	}
}

// TestSmallForwardsGrowDestinationAmortised: a destination that takes one
// small forward at a time, as a site under ingest does, grows by append's
// amortised growth. 200 forwards of 10 records into a 4,000-record site
// allocate at most 4× the site's final record bytes, all that the moves
// allocate included. A move that reserved exactly what it brings would copy
// the site on every forward: about 170×.
func TestSmallForwardsGrowDestinationAmortised(t *testing.T) {
	const start, forwards, batch = 4000, 200, 10
	c := testClusterQ(2, 1)
	recs := func(n, tag int) []KV {
		out := make([]KV, n)
		for i := range out {
			out[i] = KV{Key: fmt.Sprintf("k%d-%d", tag, i%97), Val: float64(i)}
		}
		return out
	}
	c.Data[1].Add("d", recs(start, -1)...)
	arrivals := make([][]KV, forwards)
	for i := range arrivals {
		arrivals[i] = recs(batch, i)
	}
	var allocated uint64
	var before, after runtime.MemStats
	for _, a := range arrivals {
		c.Data[0].Add("d", a...)
		runtime.ReadMemStats(&before)
		res, err := c.ApplyMoves([]MoveSpec{{Dataset: "d", Src: 0, Dst: 1, MB: c.MB(batch)}}, RandomMover{}, nil)
		runtime.ReadMemStats(&after)
		if err != nil || res.Records != batch {
			t.Fatalf("forwarded %+v, %v", res, err)
		}
		allocated += after.TotalAlloc - before.TotalAlloc
	}
	final := len(c.Data[1].Records("d")) * int(unsafe.Sizeof(KV{}))
	ratio := float64(allocated) / float64(final)
	t.Logf("%d forwards of %d records: %d bytes allocated, %.2f× the final %d record bytes", forwards, batch, allocated, ratio, final)
	if ratio > 4 {
		t.Fatalf("%d small forwards allocated %.2f× the destination's final record bytes, want at most 4×", forwards, ratio)
	}
}

// BenchmarkForwardSmallMove is the live write path's forward step in
// isolation: 12 records arrive at a 2,500-record, 600-cell site and 12
// leave it, chosen from the whole site, toward a destination holding 580
// of those cells of which the mover knows the 500 largest. The sites are
// rebuilt, off the clock, every 64 forwards so the destination stays the
// size named here. In the unshared leg nobody holds the source's record
// slice, so Remove compacts it in place; in the handed-out leg Records
// hands it out before every forward, so Remove copies the kept records.
func BenchmarkForwardSmallMove(b *testing.B) {
	const cells, records, dstCells, batch = 600, 2500, 580, 12
	rng := stats.NewRand(42)
	key := func(cell int) string { return fmt.Sprintf("a%02d|b%02d|c%d", cell/30, cell%30, cell%7) }
	site := func(cells, records int) []KV {
		recs := make([]KV, records)
		for i := range recs {
			cell := i // every cell at least once, the rest skewed low
			if i >= cells {
				cell = rng.Intn(1+rng.Intn(cells)) % cells
			}
			recs[i] = KV{Key: key(cell), Val: float64(i)}
		}
		return recs
	}
	srcRecs, dstRecs := site(cells, records), site(dstCells, records)
	arrivals := make([][]KV, 64)
	for i := range arrivals {
		arrivals[i] = make([]KV, batch)
		for j := range arrivals[i] {
			arrivals[i][j] = KV{Key: key(rng.Intn(cells)), Val: -1}
		}
	}
	mover := SimilarMover{DstTopK: 500}
	for _, leg := range []struct {
		name    string
		handOut bool
	}{{"unshared", false}, {"handed-out", true}} {
		b.Run(leg.name, func(b *testing.B) {
			var c *Cluster
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%len(arrivals) == 0 {
					b.StopTimer()
					c = testClusterQ(2, 1)
					c.Data[0].Add("d", srcRecs...)
					c.Data[1].Add("d", dstRecs...)
					if _, err := c.ApplyMoves([]MoveSpec{{Dataset: "d", Src: 0, Dst: 1, MB: c.MB(1)}}, mover, nil); err != nil {
						b.Fatal(err) // builds both indexes off the clock
					}
					b.StartTimer()
				}
				c.Data[0].Add("d", arrivals[i%len(arrivals)]...)
				if leg.handOut {
					c.Data[0].Records("d")
				}
				res, err := c.ApplyMoves([]MoveSpec{{Dataset: "d", Src: 0, Dst: 1, MB: c.MB(batch)}}, mover, nil)
				if err != nil || res.Records != batch {
					b.Fatalf("forwarded %+v, %v", res, err)
				}
			}
		})
	}
}
