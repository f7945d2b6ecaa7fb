package olap

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"bohr/internal/parallel"
)

// buildGrain is the rows-per-chunk grain of BuildCube. It is FIXED —
// derived from the input, never from the pool width or any measured
// timing — so the per-chunk float reduction tree, and hence every folded
// Sum bit pattern, is identical whether the chunks run on one goroutine
// or sixteen; the merge always walks chunks in index order. It is large
// because every chunk pays a merge pass over its distinct cells: a coarse
// grain amortizes that against the per-row fold savings while still
// giving a 120k-row build four-way parallelism.
const buildGrain = 32768

// buildTuner learns BuildCube's per-chunk cost and shrinks the worker
// count when a build is too small to amortize pool dispatch. It chooses
// only how many WORKERS run the fixed chunks, which cannot change any
// output bit.
var buildTuner = parallel.NewTuner()

// cellTable is an open-addressed (linear probing) index from cell-key
// hash to row position. Both the build fold and the columnar Cube use it
// in place of a Go map: one PACKED 8-byte entry per slot — the top 32
// bits of the key hash as a tag, the row index plus one in the low 32 —
// so a 2304-cell table probes a few KB that sit in L1/L2, and nearly
// every probe resolves on a single word compare with key verification
// only on tag match. (A false tag match is just a longer probe; the
// verification keeps it correct.) It starts small regardless of row
// count — cube builds are duplicate-heavy, so the table tracks DISTINCT
// cells and growing a few times is far cheaper than probing a row-sized,
// cache-cold table.
type cellTable struct {
	mask    uint64
	entries []uint64 // tag<<32 | idx+1; 0 = empty
	used    int
	hashes  []uint64 // full hash per row index, for grow and merge
}

func newCellTable() *cellTable {
	// 2048 slots = one 16KB, L1-resident allocation: big enough that the
	// common duplicate-heavy chunk (a few hundred to a thousand distinct
	// cells) never grows, cheap to rebuild once or twice when it does.
	return newCellTableSized(2048)
}

// newCellTableSized creates a table with the given power-of-two slot
// count.
func newCellTableSized(size uint64) *cellTable {
	return &cellTable{
		mask:    size - 1,
		entries: make([]uint64, size),
		hashes:  make([]uint64, 0, size/2),
	}
}

func slotFor(h uint64, idx int32) uint64 {
	return h&0xffffffff00000000 | uint64(uint32(idx)+1)
}

// grow doubles the table and reinserts every occupied slot, re-deriving
// each slot's home position from the stored full hash.
func (t *cellTable) grow() {
	size := (t.mask + 1) * 2
	t.mask = size - 1
	t.entries = make([]uint64, size)
	for idx, h := range t.hashes {
		j := h & t.mask
		for t.entries[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.entries[j] = slotFor(h, int32(idx))
	}
}

// add records hash h for the next row index (which it returns) and
// inserts it at slot j, growing at load factor 1/2.
func (t *cellTable) add(j, h uint64) int32 {
	idx := int32(len(t.hashes))
	t.hashes = append(t.hashes, h)
	t.entries[j] = slotFor(h, idx)
	t.used++
	if uint64(t.used)*2 > t.mask {
		t.grow()
	}
	return idx
}

// SWAR byte masks for separator detection a word at a time.
const (
	swarLo  uint64 = 0x0101010101010101
	swarHi  uint64 = 0x8080808080808080
	sepWord uint64 = swarLo * uint64(sep)
)

// sepMask01 returns a word with 0x01 in every byte of w that equals the
// reserved separator, using the exact zero-byte mask from Hacker's
// Delight on w ^ sepWord (per-byte, no cross-byte borrow, so adjacent
// byte values can never produce a false byte — the cheaper Mycroft mask
// can). sep is non-zero, so zero padding bytes in a short tail word are
// never flagged. Callers accumulate these masks bytewise and take one
// horizontal sum at the end instead of a popcount per word.
func sepMask01(w uint64) uint64 {
	x := w ^ sepWord // sep bytes of w become zero bytes of x
	y := (x & ^swarHi) + ^swarHi
	return (^(y | x | ^swarHi)) >> 7
}

// hashKey hashes the joined cell key: FNV-style word-at-a-time over the
// contiguous buffer with the tail read as one zero-padded word, finished
// with a strong avalanche (the table masks with the LOW bits, which raw
// FNV mixes poorly). Internal to the fold, never persisted, so it only
// needs to be fast and well-mixed, not stable across releases. (A
// per-coordinate variant that skips the join measured meaningfully
// slower — the single tight loop over contiguous bytes wins.)
//
// The second return is the number of separator bytes in the key, counted
// in the same word loads the hash consumes: a clean nd-coordinate key
// has exactly nd-1, so the fold detects coordinate validation failures
// without running strings.IndexByte per coordinate and only rescans to
// locate the offending coordinate on the error path.
func hashKey(b []byte) (uint64, int) {
	const (
		offset  uint64 = 14695981039346656037
		offset2 uint64 = 0x9e3779b97f4a7c15
		prime   uint64 = 1099511628211
	)
	// Two independent lanes over alternating words break the serial
	// xor-multiply dependency chain in half; they are combined before the
	// final avalanche.
	h1, h2 := offset, offset2
	var sepAcc uint64
	n := len(b)
	j := 0
	for ; j+16 <= n; j += 16 {
		w1 := uint64(b[j]) | uint64(b[j+1])<<8 | uint64(b[j+2])<<16 | uint64(b[j+3])<<24 |
			uint64(b[j+4])<<32 | uint64(b[j+5])<<40 | uint64(b[j+6])<<48 | uint64(b[j+7])<<56
		w2 := uint64(b[j+8]) | uint64(b[j+9])<<8 | uint64(b[j+10])<<16 | uint64(b[j+11])<<24 |
			uint64(b[j+12])<<32 | uint64(b[j+13])<<40 | uint64(b[j+14])<<48 | uint64(b[j+15])<<56
		sepAcc += sepMask01(w1) + sepMask01(w2)
		h1 = (h1 ^ w1) * prime
		h2 = (h2 ^ w2) * prime
	}
	if j+8 <= n {
		w := uint64(b[j]) | uint64(b[j+1])<<8 | uint64(b[j+2])<<16 | uint64(b[j+3])<<24 |
			uint64(b[j+4])<<32 | uint64(b[j+5])<<40 | uint64(b[j+6])<<48 | uint64(b[j+7])<<56
		sepAcc += sepMask01(w)
		h1 = (h1 ^ w) * prime
		j += 8
	}
	if j < n {
		var w uint64
		for k := 0; j+k < n; k++ {
			w |= uint64(b[j+k]) << (8 * uint(k))
		}
		sepAcc += sepMask01(w)
		h2 = (h2 ^ w) * prime
	}
	var seps int
	if n < 256 {
		// Each byte lane of sepAcc accumulated at most n/8 < 32 hits and
		// the horizontal sum is at most n < 256, so the multiply-shift
		// sum is exact.
		seps = int((sepAcc * swarLo) >> 56)
	} else {
		// Huge keys (never produced by realistic schemas) overflow the
		// bytewise accumulator's horizontal sum; count directly.
		seps = bytes.Count(b, sepByte)
	}
	h := h1 ^ (h2 * prime)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h, seps
}

// sepByte is the separator as a one-byte slice for bytes.Count.
var sepByte = []byte{sep}

// tagMask/idxMask split a packed cellTable entry.
const (
	tagMask uint64 = 0xffffffff00000000
	idxMask uint64 = 0x00000000ffffffff
)

// foldPartial is one chunk's fold output: the partial cells (measures
// only, in first-insertion order — no Coords, no strings), the chunk's
// hash table (which retains every cell's full hash), and the joined keys
// packed back-to-back in one byte arena. The merge reuses hashes and key
// spans directly; the columnar cube's interned coordinates are
// materialized exactly once, from the merged survivors only.
type foldPartial struct {
	cells []Cell // Sum/Count per distinct key; Coords always nil here
	rows  int
	table *cellTable
	arena []byte   // joined keys, concatenated in order
	offs  []uint32 // key k spans arena[offs[k]:offs[k+1]]
}

func (fp *foldPartial) key(k int32) []byte { return fp.arena[fp.offs[k]:fp.offs[k+1]] }

// foldChunk folds rows[lo:hi] into a fresh partial. The per-row cost is
// one joined-key copy onto the arena tail (dropped again if the cell
// already exists), one word-wise hash with the separator validation
// fused into the same loads, and one packed-table probe that usually
// resolves on a single word compare with one bytes.Equal to confirm. No
// per-row heap object is allocated. Row errors carry the GLOBAL row
// index, and parallel.MapOrdered returns the lowest failing chunk's
// error, so BuildCube names the first offending row at every width.
func foldChunk(schema *Schema, rows []Row, lo, hi int) (*foldPartial, error) {
	nd := schema.NumDims()
	// Sized for the rows given, up to what a full chunk starts with: the
	// planner folds 1,000-row sites, and every buffer grows on demand.
	n := hi - lo
	fp := &foldPartial{
		cells: make([]Cell, 0, min(n, 2048)),
		table: newCellTable(),
		arena: make([]byte, 0, min(16*n, 128<<10)),
		offs:  make([]uint32, 1, min(n+1, 2048)),
	}
	for i := lo; i < hi; i++ {
		r := rows[i]
		if len(r.Coords) != nd {
			return nil, fmt.Errorf("row %d: olap: insert: row has %d coords, schema has %d dims",
				i, len(r.Coords), nd)
		}
		// Join the row's key onto the arena tail by hand: one capacity
		// check and one copy per coordinate, no per-append bookkeeping.
		start := len(fp.arena)
		need := nd - 1
		for _, v := range r.Coords {
			need += len(v)
		}
		if cap(fp.arena)-start < need {
			grown := make([]byte, start, 2*(start+need))
			copy(grown, fp.arena)
			fp.arena = grown
		}
		// buf addresses the spare capacity past len; the arena length is
		// only committed when the key turns out to be a NEW cell, so the
		// duplicate path (the common one) never touches the length at all.
		buf := fp.arena[start : start+need]
		pos := 0
		for ci, v := range r.Coords {
			if ci > 0 {
				buf[pos] = sep
				pos++
			}
			pos += copy(buf[pos:], v)
		}
		h, seps := hashKey(buf)
		if seps != nd-1 {
			// A joined nd-coordinate key always carries exactly nd-1
			// separators, so a mismatch means some coordinate contains
			// one; rescan slowly to name it.
			for ci, v := range r.Coords {
				if strings.IndexByte(v, sep) >= 0 {
					return nil, fmt.Errorf("row %d: olap: insert: coord %d contains reserved separator", i, ci)
				}
			}
			return nil, fmt.Errorf("row %d: olap: insert: separator count mismatch", i)
		}
		t := fp.table
		tag := h & tagMask
		var idx int32
		// Local copies let the compiler keep the probe loop free of field
		// reloads, and deriving the mask from len(entries) proves the
		// index in bounds; add() may swap t.entries on grow, but only
		// after the loop has already broken.
		entries := t.entries
		mask := uint64(len(entries) - 1)
		j := h & mask
		for {
			e := entries[j&mask]
			if e == 0 {
				fp.cells = append(fp.cells, Cell{})
				fp.arena = fp.arena[:start+need] // new cell: commit the key copy
				fp.offs = append(fp.offs, uint32(len(fp.arena)))
				idx = t.add(j&mask, h)
				break
			}
			if e&tagMask == tag {
				idx = int32(e&idxMask) - 1
				if bytes.Equal(fp.key(idx), buf) {
					break
				}
			}
			j++
		}
		cell := &fp.cells[idx]
		cell.Sum += r.Measure
		cell.Count++
	}
	fp.rows = hi - lo
	return fp, nil
}

// mergeInto folds p's cells into base, reusing the hashes and key spans
// both folds already computed: every merge step is a packed-table probe
// of base's table, and no joined key is ever rebuilt or converted to a
// string. Cell order is first-occurrence in chunk order, the order a
// single sequential pass over the rows would give.
func (base *foldPartial) mergeInto(p *foldPartial) {
	t := base.table
	for k := range p.cells {
		cell := &p.cells[k]
		h := p.table.hashes[k]
		key := p.key(int32(k))
		tag := h & tagMask
		entries := t.entries // reloaded each cell: add() may grow the table
		mask := uint64(len(entries) - 1)
		j := h & mask
		for {
			e := entries[j&mask]
			if e == 0 {
				base.cells = append(base.cells, *cell)
				base.arena = append(base.arena, key...)
				base.offs = append(base.offs, uint32(len(base.arena)))
				t.add(j&mask, h)
				break
			}
			if e&tagMask == tag {
				idx := int32(e&idxMask) - 1
				if bytes.Equal(base.key(idx), key) {
					dst := &base.cells[idx]
					dst.Sum += cell.Sum
					dst.Count += cell.Count
					break
				}
			}
			j++
		}
	}
	base.rows += p.rows
}

// materialize turns a merged fold into the columnar cube: each surviving
// cell's joined key is walked once, interning every coordinate span into
// the cube's per-dimension dictionaries, and the cell lands at the next
// row with its measures copied over. Key strings are materialized only
// for first-seen coordinate VALUES, not per cell.
func (fp *foldPartial) materialize(schema *Schema) *Cube {
	out := newCube(schema)
	n := len(fp.cells)
	// Presize the row index so the build never pays a mid-materialize
	// rehash: next power of two above twice the (known) cell count.
	if n > 0 {
		size := uint64(256)
		for size < uint64(n)*2 {
			size *= 2
		}
		out.idx = newCellTableSized(size)
		for d := range out.cols {
			out.cols[d] = make([]uint32, 0, n)
		}
		out.sums = make([]float64, 0, n)
		out.counts = make([]int, 0, n)
	}
	nd := schema.NumDims()
	ids := make([]uint32, nd)
	for i := 0; i < n; i++ {
		kb := fp.key(int32(i))
		start, d := 0, 0
		for p := 0; p <= len(kb); p++ {
			if p == len(kb) || kb[p] == sep {
				ids[d] = out.dicts[d].internBytes(kb[start:p])
				d++
				start = p + 1
			}
		}
		row := out.upsertRow(ids, hashIDs(ids)) // keys are distinct: always appends
		out.sums[row] = fp.cells[i].Sum
		out.counts[row] = fp.cells[i].Count
	}
	out.rows = fp.rows
	return out
}

// BuildCube constructs a cube over schema from rows. The rows always
// fold in fixed buildGrain chunks, merged in chunk order, so counts, cell
// order and the bit pattern of every Sum are the same at every pool
// width: width only sets how many workers (at most, after resolving 0 to
// the process default) run the chunks, and at width 1 they run inline.
// A build at or under one grain is a single sequential fold. (Sums of a
// multi-chunk build can differ from one sequential pass in the last ulps
// — float addition is not associative — which is why nothing serialized
// by core.Report ever reads a cube Sum.)
func BuildCube(schema *Schema, rows []Row, width int) (*Cube, error) {
	chunks := parallel.Chunks(len(rows), buildGrain)
	if len(chunks) == 0 {
		return newCube(schema), nil
	}
	workers := buildTuner.Workers(len(chunks), parallel.Resolve(width))
	t0 := time.Now()
	partials, err := parallel.MapOrdered(workers, len(chunks), func(ci int) (*foldPartial, error) {
		return foldChunk(schema, rows, chunks[ci][0], chunks[ci][1])
	})
	if err != nil {
		return nil, err
	}
	buildTuner.Observe(len(chunks), workers, time.Since(t0))
	// Merge later chunks into the first, reusing chunk 0's hash table and
	// the hashes and key spans every fold already computed; then
	// materialize the merged survivors into columnar form.
	base := partials[0]
	for _, p := range partials[1:] {
		base.mergeInto(p)
	}
	return base.materialize(schema), nil
}
