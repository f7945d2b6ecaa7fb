package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// Profile counts at each site the records Layout.Scan(q) puts out under
// Stage{Exec} — now, or after a move list — on the stores' cell columns,
// exactly for a map under which a cell's records emit the same keys
// (DESIGN.md §15). Not safe for concurrent use; profiles sharing a counted
// base (On) are.
type Profile struct {
	*profileBase
	c            *Cluster
	hits, misses int // column lookups
	scratch      *profileScratch
}

// profileBase is immutable once counted.
type profileBase struct {
	dataset string
	view    View
	mapFn   MapFn
	ids     map[string]int32 // emitted key → id
	flat    []int32          // emitted key ids, cell after cell
	sites   []column         // the stores' own columns and counts
	base    []int
}

// profileScratch is a profile's working memory, pooled: the stamp of the
// executor that last counted a cell, a key, and the columns of the last dry
// run by site, which the next one forks into.
type profileScratch struct {
	seenCell, seenKey []uint32
	stamp             uint32
	forks             []column
}

var profileScratches = sync.Pool{New: func() any { return new(profileScratch) }}

// column is a cell column and its cells' emitted key ids in flat.
type column struct {
	ix   *cellIndex
	keys []keySpan
}

type keySpan struct{ lo, hi int32 }

// NewProfile profiles the map function mapFn (nil = identity) over the
// dataset, on the cell columns of the view a SimilarMover moves in.
func NewProfile(c *Cluster, dataset string, mapFn MapFn, view View) *Profile {
	return &Profile{profileBase: &profileBase{dataset: dataset, view: view, mapFn: mapFn, ids: map[string]int32{}}, c: c}
}

// On returns p's profile on c, whose stores of the dataset hold the contents
// p counted: it shares p's counted base, and counts the column lookups that
// counting made as hits. p must have counted (Cells or Counts).
func (p *Profile) On(c *Cluster) *Profile {
	return &Profile{profileBase: p.profileBase, c: c, hits: len(p.sites)}
}

// Counts returns every site's count after specs — moves of the dataset,
// run with mover and rng as ApplyMoves would run them, drawing what it
// draws — and with no specs the stores' own.
func (p *Profile) Counts(specs []MoveSpec, mover Mover, rng *rand.Rand) ([]int, error) {
	defer p.release()
	cols, err := p.dryRun(specs, mover, rng)
	out := slices.Clone(p.base)
	for i, col := range cols {
		if col.ix != nil && err == nil {
			out[i], err = p.count(i, col)
		}
	}
	return out, err
}

// Cells returns every site's cell counts: the stores' own columns the
// profile counts on, looked up once.
func (p *Profile) Cells() ([]CellCounts, error) {
	defer p.release()
	if err := p.countSites(); err != nil {
		return nil, err
	}
	out := make([]CellCounts, len(p.sites))
	for i, col := range p.sites {
		out[i] = CellCounts{col.ix}
	}
	return out, nil
}

// Lookups returns the column lookups that hit and missed the stores'
// memo, one per site; a dry run's reread of a column is a hit.
func (p *Profile) Lookups() (hits, misses int) { return p.hits, p.misses }

// scratchpad returns the profile's working memory until release.
func (p *Profile) scratchpad() *profileScratch {
	if p.scratch == nil {
		p.scratch = profileScratches.Get().(*profileScratch)
	}
	return p.scratch
}

func (p *Profile) release() {
	if p.scratch != nil {
		profileScratches.Put(p.scratch)
		p.scratch = nil
	}
}

// countSites maps and counts every store's own column, once.
func (p *Profile) countSites() error {
	if p.base != nil {
		return nil
	}
	p.sites = make([]column, p.c.N())
	base := make([]int, len(p.sites))
	collect := func(key string, _ float64) {
		id, ok := p.ids[key]
		if !ok {
			id = int32(len(p.ids))
			p.ids[key] = id
		}
		p.flat = append(p.flat, id)
	}
	s := p.scratchpad()
	for i := range p.sites {
		st := p.c.Data[i].Store(p.dataset)
		ix, hit := st.cells(p.view)
		if hit {
			p.hits++
		} else {
			p.misses++
		}
		col := column{ix, make([]keySpan, len(ix.keys))}
		s.grow(len(ix.keys), 0)
		for r, c := range ix.cell {
			if s.seenCell[c] != s.stamp {
				s.seenCell[c] = s.stamp
				lo, rec := int32(len(p.flat)), st.record(r)
				if p.mapFn == nil {
					collect(rec.Key, rec.Val)
				} else {
					p.mapFn(rec, collect)
				}
				col.keys[c] = keySpan{lo, int32(len(p.flat))}
			}
		}
		p.sites[i] = col
		var err error
		if base[i], err = p.count(i, col); err != nil {
			return err
		}
	}
	p.base = base
	return nil
}

// dryRun plays specs on forks of the columns they touch and returns those
// by site, zero for the others.
func (p *Profile) dryRun(specs []MoveSpec, mover Mover, rng *rand.Rand) ([]column, error) {
	if err := p.countSites(); err != nil || len(specs) == 0 {
		return nil, err
	}
	steps, err := p.c.moveSteps(specs, mover)
	if err != nil {
		return nil, err
	}
	incoming := make([]int, len(p.sites))
	for _, sp := range steps {
		if m, ok := mover.(SimilarMover); sp.Dataset != p.dataset || ok && m.View != p.view {
			return nil, fmt.Errorf("engine: profile of %q in %v given a move of %q by %T", p.dataset, p.view, sp.Dataset, mover)
		}
		incoming[sp.Dst] += sp.n
	}
	s := p.scratchpad()
	s.forks = append(s.forks, make([]column, max(len(p.sites)-len(s.forks), 0))...)
	cols := make([]column, len(p.sites))
	col := func(site int) *column {
		if cols[site].ix == nil {
			p.hits++
			b, f := p.sites[site], &s.forks[site]
			if f.ix == nil {
				f.ix = new(cellIndex)
			}
			b.ix.forkInto(f.ix, incoming[site])
			f.keys = append(slices.Grow(f.keys[:0], len(b.keys)+incoming[site]), b.keys...)
			cols[site] = *f
		}
		return &cols[site]
	}
	for _, sp := range steps {
		src := col(sp.Src)
		if len(src.ix.cell) == 0 {
			continue
		}
		dst := col(sp.Dst)
		at := selectAt(mover, src.ix, len(src.ix.cell), dst.ix, sp.n, rng)
		for _, i := range at {
			c := src.ix.cell[i]
			if id := dst.ix.addCell(src.ix.keys[c]); int(id) < len(dst.keys) {
				dst.keys[id] = src.keys[c]
			} else {
				dst.keys = append(dst.keys, src.keys[c])
			}
		}
		src.ix.remove(at)
	}
	return cols, nil
}

// count sums, over the site's executors, the distinct keys col emits.
func (p *Profile) count(site int, col column) (int, error) {
	execs, _, err := Stage{Exec: p.c.Exec[site]}.lay(len(col.ix.cell), nil, nil)
	s := p.scratchpad()
	total := 0
	for _, ex := range execs {
		s.grow(len(col.ix.keys), len(p.ids))
		for _, part := range ex.parts {
			for _, c := range col.ix.cell[part.lo:part.hi] {
				if s.seenCell[c] != s.stamp {
					s.seenCell[c] = s.stamp
					for _, k := range p.flat[col.keys[c].lo:col.keys[c].hi] {
						if s.seenKey[k] != s.stamp {
							s.seenKey[k] = s.stamp
							total++
						}
					}
				}
			}
		}
	}
	return total, err
}

// grow makes room to stamp cells cells and keys keys; a new stamp.
func (s *profileScratch) grow(cells, keys int) {
	s.seenCell = append(s.seenCell, make([]uint32, max(cells-len(s.seenCell), 0))...)
	s.seenKey = append(s.seenKey, make([]uint32, max(keys-len(s.seenKey), 0))...)
	if s.stamp++; s.stamp == 0 {
		clear(s.seenCell)
		clear(s.seenKey)
		s.stamp = 1
	}
}
