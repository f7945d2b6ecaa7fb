package engine

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

	"bohr/internal/wan"
)

// MoveSpec is one planned movement: MB megabytes of a dataset from Src to
// Dst, executed in the lag before the query arrives.
type MoveSpec struct {
	Dataset  string
	Src, Dst int
	MB       float64
}

// Mover chooses which records leave a site when a MoveSpec is executed.
// The choice is the heart of Bohr: similarity-agnostic systems pick
// randomly, Bohr picks records that combine at the destination. Movers
// are applied through ApplyMoves and a Profile's dry run.
type Mover interface {
	// pick returns the ascending positions of n of src's size records
	// (0 < n < size) to move toward dst.
	pick(src DstView, size int, dst DstView, n int, rng *rand.Rand) []int
}

// RandomMover models Iridium-style similarity-agnostic placement: a
// uniform random sample of records leaves the site. It never looks at the
// destination.
type RandomMover struct{}

func (RandomMover) pick(_ DstView, size int, _ DstView, n int, rng *rand.Rand) []int {
	// rng.Perm(size)[:n], drawing what it draws, in a reused permutation;
	// the positions are a fresh slice, which remove hands to the successor
	// content's carry.
	buf := perms.Get().(*[]int)
	defer perms.Put(buf)
	m := slices.Grow((*buf)[:0], size)[:size]
	*buf = m
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	at := slices.Clone(m[:n])
	sort.Ints(at)
	return at
}

// perms is RandomMover.pick's permutation buffer, reused across moves.
var perms = sync.Pool{New: func() any { return new([]int) }}

// SimilarMover implements Bohr's similarity-aware selection: records whose
// keys the destination already holds leave first (they combine away into
// existing destination cells), smaller source clusters foremost (a whole
// cluster leaving removes one post-combiner cell from the bottleneck
// regardless of size). This mirrors §4.1: the dimension cube has already
// clustered and sorted records by similarity, so the site peels off the
// most combinable cells — the cube here being the cell index the source
// and destination stores maintain for the mover's projection.
type SimilarMover struct {
	// View projects a stored key into the attribute space the dominant
	// query type combines on (the dimension-cube view of §4.1); the zero
	// View keeps full keys. A store keeps its cell index for one View.
	View View
	// DstTopK bounds what the mover knows about the destination: only the
	// destination's DstTopK largest (projected) cells — what its probe
	// carried (§4.2). Zero means full knowledge.
	DstTopK int
}

// rankedCell is one live source cell as SimilarMover ranks it.
type rankedCell struct {
	id       int32
	src, dst int
}

// pickScratch is SimilarMover.pick's per-cell buffers, reused across moves
// so that a small forward pays for its records, not the site's cells.
type pickScratch struct {
	cells []rankedCell
	quota []int
}

var pickScratches = sync.Pool{New: func() any { return new(pickScratch) }}

func (m SimilarMover) pick(src DstView, _ int, dst DstView, n int, _ *rand.Rand) []int {
	ix := src.index(m.View)
	dstCount := dst.index(m.View).known(m.DstTopK)
	scratch := pickScratches.Get().(*pickScratch)
	defer pickScratches.Put(scratch)
	// Order cells for maximum combining benefit per moved megabyte.
	// Destination-shared cells move first: their records vanish into
	// existing destination cells, and within that class smaller source
	// cells go first — a whole cell leaving removes one cell from the
	// source's post-combiner output regardless of its size, so small
	// cells relieve the bottleneck fastest. Cells the destination does
	// not hold follow, smallest first for the same reason.
	cells := scratch.cells[:0]
	for id, c := range ix.count {
		if c > 0 {
			cells = append(cells, rankedCell{int32(id), c, dstCount(ix.keys[id])})
		}
	}
	scratch.cells = cells
	before := func(a, b rankedCell) bool {
		if (a.dst > 0) != (b.dst > 0) {
			return a.dst > 0
		}
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst > b.dst
		}
		return ix.keys[a.id] < ix.keys[b.id]
	}
	// Whole cells leave in rank order; the cell that crosses n gives up
	// only its earliest records. Only the cells that leave are ordered:
	// one heapify, then a pop per departing cell.
	for i := len(cells)/2 - 1; i >= 0; i-- {
		siftDown(cells, i, before)
	}
	quota := slices.Grow(scratch.quota[:0], len(ix.count))[:len(ix.count)]
	clear(quota)
	scratch.quota = quota
	for left := n; left > 0 && len(cells) > 0; {
		c, last := cells[0], len(cells)-1
		cells[0], cells = cells[last], cells[:last]
		siftDown(cells, 0, before)
		q := min(c.src, left)
		quota[c.id] = q
		left -= q
	}
	at := make([]int, 0, n)
	for i, id := range ix.cell {
		if quota[id] > 0 {
			quota[id]--
			if at = append(at, i); len(at) == n {
				break
			}
		}
	}
	return at
}

// MoveResult reports what a movement execution did.
type MoveResult struct {
	// MovedMB is the total volume moved per (src, dst) pair.
	Transfers []wan.Transfer
	// Duration is the WAN time the movement took (fluid model); planners
	// must keep this within the query lag T. ApplyMoves leaves it zero:
	// placement's Plan.Execute times a plan's moves together.
	Duration float64
	// Records is the total number of records moved.
	Records int
}

// ApplyMoves executes movement specs against the cluster's data in place:
// the mover selects records at each source store — from the store's whole
// record set, in store order — which are removed there and appended at
// the destination. Moves are applied in deterministic order
// (by dataset, then src, then dst). The rng drives random selection only.
func (c *Cluster) ApplyMoves(specs []MoveSpec, mover Mover, rng *rand.Rand) (*MoveResult, error) {
	steps, err := c.moveSteps(specs, mover)
	if err != nil {
		return nil, err
	}
	res := &MoveResult{}
	for k, sp := range steps {
		src := c.Data[sp.Src].Store(sp.Dataset)
		if src.Len() == 0 {
			continue
		}
		dst := c.Data[sp.Dst].ensure(sp.Dataset)
		sel := src.choose(mover, dst, sp.n, rng)
		if err := src.remove(sel); err != nil {
			return nil, err
		}
		// The destination grows once, at its first arrival, by what this and
		// the dataset's later steps bring it, with slices.Grow's amortised
		// growth: an exact reserve would copy a site that takes one small
		// forward per ingest batch on every forward.
		want := 0
		for _, next := range steps[k:] {
			if next.Dataset != sp.Dataset {
				break
			}
			if next.Dst == sp.Dst {
				want += next.n
			}
		}
		dst.reserve(want)
		dst.Add(sel.records...)
		res.Records += len(sel.records)
		res.Transfers = append(res.Transfers, wan.Transfer{
			Src: wan.SiteID(sp.Src), Dst: wan.SiteID(sp.Dst), MB: c.MB(len(sel.records)),
		})
	}
	return res, nil
}

// moveStep is a spec as ApplyMoves executes it: n records toward Dst.
type moveStep struct {
	MoveSpec
	n int
}

// moveSteps is the specs in ApplyMoves' order — dataset, src, dst —
// without the ones it skips, each with its record count.
func (c *Cluster) moveSteps(specs []MoveSpec, mover Mover) ([]moveStep, error) {
	if mover == nil {
		return nil, fmt.Errorf("engine: ApplyMoves needs a mover")
	}
	steps := make([]moveStep, 0, len(specs))
	for _, sp := range specs {
		if sp.MB <= 0 || sp.Src == sp.Dst {
			continue
		}
		if sp.Src < 0 || sp.Src >= c.N() || sp.Dst < 0 || sp.Dst >= c.N() {
			return nil, fmt.Errorf("engine: move %q %d→%d out of range", sp.Dataset, sp.Src, sp.Dst)
		}
		if n := c.RecordsFor(sp.MB); n > 0 {
			steps = append(steps, moveStep{sp, n})
		}
	}
	slices.SortStableFunc(steps, func(a, b moveStep) int {
		return cmp.Or(strings.Compare(a.Dataset, b.Dataset), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return steps, nil
}
