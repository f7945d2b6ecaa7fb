package engine

import (
	"fmt"
	"math/rand"
	"slices"
)

// Profile counts at each site the records Layout.Scan(q) puts out under
// Stage{Exec} — now, or after a move list — on the stores' cell columns,
// exactly for a map under which a cell's records emit the same keys
// (DESIGN.md §15). Not safe for concurrent use.
type Profile struct {
	c       *Cluster
	dataset string
	view    View
	mapFn   MapFn
	collect func(key string, _ float64)
	ids     map[string]int32 // emitted key → id
	flat    []int32          // emitted key ids, cell after cell
	// the stores' own columns and counts, once counted; column lookups
	sites        []column
	base         []int
	hits, misses int
	// the stamp of the executor that last counted a cell, a key
	seenCell, seenKey []uint32
	stamp             uint32
	// forks are the columns of the last dry run, by site: the next one
	// forks into their buffers, so they live only until it starts.
	forks []column
}

// column is a cell column and its cells' emitted key ids in flat.
type column struct {
	ix   *cellIndex
	keys []keySpan
}

type keySpan struct{ lo, hi int32 }

// NewProfile profiles the map function mapFn (nil = identity) over the
// dataset, on the cell columns of the view a SimilarMover moves in.
func NewProfile(c *Cluster, dataset string, mapFn MapFn, view View) *Profile {
	p := &Profile{c: c, dataset: dataset, view: view, mapFn: mapFn, ids: map[string]int32{}}
	p.collect = func(key string, _ float64) {
		id, ok := p.ids[key]
		if !ok {
			id = int32(len(p.ids))
			p.ids[key] = id
		}
		p.flat = append(p.flat, id)
	}
	return p
}

// Counts returns every site's count after specs — moves of the dataset,
// run with mover and rng as ApplyMoves would run them, drawing what it
// draws — and with no specs the stores' own.
func (p *Profile) Counts(specs []MoveSpec, mover Mover, rng *rand.Rand) ([]int, error) {
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

// countSites maps and counts every store's own column, once.
func (p *Profile) countSites() error {
	if p.base != nil {
		return nil
	}
	p.sites = make([]column, p.c.N())
	base := make([]int, len(p.sites))
	for i := range p.sites {
		st := p.c.Data[i].Store(p.dataset)
		ix, hit := st.cells(p.view)
		if hit {
			p.hits++
		} else {
			p.misses++
		}
		col := column{ix, make([]keySpan, len(ix.keys))}
		p.grow(len(ix.keys))
		for r, c := range ix.cell {
			if p.seenCell[c] != p.stamp {
				p.seenCell[c] = p.stamp
				lo, rec := int32(len(p.flat)), st.recs[r]
				if p.mapFn == nil {
					p.collect(rec.Key, rec.Val)
				} else {
					p.mapFn(rec, p.collect)
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
	if p.forks == nil {
		p.forks = make([]column, len(p.sites))
	}
	cols := make([]column, len(p.sites))
	col := func(site int) *column {
		if cols[site].ix == nil {
			p.hits++
			b, f := p.sites[site], &p.forks[site]
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
	p.grow(len(col.ix.keys))
	total := 0
	for _, ex := range execs {
		p.stamp++
		for _, s := range ex.parts {
			for _, c := range col.ix.cell[s.lo:s.hi] {
				if p.seenCell[c] != p.stamp {
					p.seenCell[c] = p.stamp
					for _, k := range p.flat[col.keys[c].lo:col.keys[c].hi] {
						if p.seenKey[k] != p.stamp {
							p.seenKey[k] = p.stamp
							total++
						}
					}
				}
			}
		}
	}
	return total, err
}

// grow makes room to stamp cells cells and every key; a new stamp.
func (p *Profile) grow(cells int) {
	p.seenCell = append(p.seenCell, make([]uint32, max(cells-len(p.seenCell), 0))...)
	p.seenKey = append(p.seenKey, make([]uint32, max(len(p.ids)-len(p.seenKey), 0))...)
	p.stamp++
}
