// Package ingest implements the streaming-ingestion subsystem: a
// partitioned pipeline that accepts records continuously, accumulates
// them in per-source bounded batches with size/interval flush triggers,
// applies admission control and throttling for hot sources, requeues a
// batch whose delivery failed, and tracks per-source monotonic offsets
// so a restarted source replays at-least-once without double-applying
// (dedupe on (source, offset)). The wire format is line-oriented and
// self-contained, so the same codec backs the HTTP endpoint, the
// streaming client, and the fuzz harness.
package ingest

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Record is one ingested row on the wire: its origin (source + 1-based
// monotonic offset, the replay/dedupe identity), its destination
// (dataset + arrival site), and the row itself (coordinates + measure).
type Record struct {
	// Source identifies the producing stream; offsets are monotonic per
	// source.
	Source string
	// Offset is the record's 1-based position in its source's stream.
	// Zero is invalid: the dedupe watermark starts at 0 ("nothing
	// accepted yet").
	Offset uint64
	// Dataset names the destination dataset.
	Dataset string
	// Site is the arrival site index.
	Site int
	// Coords are the row's dimension coordinates.
	Coords []string
	// Measure is the row's numeric measure. Non-finite values are
	// rejected by the codec.
	Measure float64
}

// Batch is one delivery unit handed to an Applier: records of a single
// source, in acceptance order.
type Batch struct {
	Source  string
	Records []Record
}

// The wire format is one record per line, fields separated by '|':
//
//	source|offset|dataset|site|measure|coord1|coord2|...
//
// String fields percent-escape '%', '|', '\n' and '\r' so arbitrary
// coordinate values round-trip; numeric fields use their canonical Go
// renderings. A record may have zero coordinates (five fields).

const fieldSep = '|'

// appendField appends s, percent-escaping the four characters that would
// break field or line framing. One scan: a field without any — nearly
// every field — is copied in a single append.
func appendField(dst []byte, s string) []byte {
	from := 0
	for i := 0; i < len(s); i++ {
		esc := fieldEscapes[s[i]]
		if esc == "" {
			continue
		}
		dst = append(dst, s[from:i]...)
		dst = append(dst, esc...)
		from = i + 1
	}
	return append(dst, s[from:]...)
}

// fieldEscapes maps a byte to its escape; "" for the bytes that need none.
var fieldEscapes = [256]string{'%': "%25", '|': "%7C", '\n': "%0A", '\r': "%0D"}

func unescapeField(s string) (string, error) {
	if !strings.ContainsRune(s, '%') {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		if i+2 >= len(s) {
			return "", fmt.Errorf("ingest: truncated %% escape at byte %d", i)
		}
		hi, err1 := hexNibble(s[i+1])
		lo, err2 := hexNibble(s[i+2])
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("ingest: bad %% escape %q at byte %d", s[i:i+3], i)
		}
		b.WriteByte(hi<<4 | lo)
		i += 2
	}
	return b.String(), nil
}

func hexNibble(c byte) (byte, error) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', nil
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, nil
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, nil
	}
	return 0, fmt.Errorf("not hex: %q", c)
}

// numbersRoom is what EncodeBatch reserves per record beyond its strings
// and the separators before its coordinates: a 10-digit offset, a 3-digit
// site, the longest measure (24), four separators and the newline.
const numbersRoom = 10 + 3 + 24 + 5

// appendRecord appends one record's wire line (no trailing newline).
func appendRecord(dst []byte, r *Record) []byte {
	dst = appendField(dst, r.Source)
	dst = append(dst, fieldSep)
	dst = strconv.AppendUint(dst, r.Offset, 10)
	dst = append(dst, fieldSep)
	dst = appendField(dst, r.Dataset)
	dst = append(dst, fieldSep)
	dst = strconv.AppendInt(dst, int64(r.Site), 10)
	dst = append(dst, fieldSep)
	dst = strconv.AppendFloat(dst, r.Measure, 'g', -1, 64)
	for _, c := range r.Coords {
		dst = append(dst, fieldSep)
		dst = appendField(dst, c)
	}
	return dst
}

// EncodeRecord renders one record as a wire line (no trailing newline).
// The rendering is canonical: decoding it and re-encoding reproduces the
// same bytes.
func EncodeRecord(r Record) string { return string(appendRecord(nil, &r)) }

// DecodeRecord parses one wire line. It never panics: malformed input —
// missing fields, a zero or non-numeric offset, a negative site, a
// non-finite measure, a broken escape — yields an error.
func DecodeRecord(line string) (Record, error) {
	var r Record
	if _, err := decodeRecord(line, &r, nil); err != nil {
		return Record{}, err
	}
	return r, nil
}

// decodeRecord parses one wire line into r, scanning field by field. The
// coordinates are appended to slab and r.Coords is cut from it with its
// capacity clipped (nil for a record without any); the extended slab is
// returned. Strings alias line unless they held an escape.
func decodeRecord(line string, r *Record, slab []string) ([]string, error) {
	const sep = string(fieldSep)
	fields := strings.Count(line, sep) + 1
	if fields < 5 {
		return slab, fmt.Errorf("ingest: record has %d fields, want at least 5", fields)
	}
	f, rest, _ := strings.Cut(line, sep)
	source, err := unescapeField(f)
	if err != nil {
		return slab, fmt.Errorf("ingest: source: %w", err)
	}
	if source == "" {
		return slab, fmt.Errorf("ingest: record needs a non-empty source")
	}
	f, rest, _ = strings.Cut(rest, sep)
	offset, err := strconv.ParseUint(f, 10, 64)
	if err != nil {
		return slab, fmt.Errorf("ingest: offset %q: %w", f, err)
	}
	if offset == 0 {
		return slab, fmt.Errorf("ingest: offsets are 1-based, got 0")
	}
	f, rest, _ = strings.Cut(rest, sep)
	dataset, err := unescapeField(f)
	if err != nil {
		return slab, fmt.Errorf("ingest: dataset: %w", err)
	}
	if dataset == "" {
		return slab, fmt.Errorf("ingest: record needs a non-empty dataset")
	}
	f, rest, _ = strings.Cut(rest, sep)
	site, err := strconv.Atoi(f)
	if err != nil {
		return slab, fmt.Errorf("ingest: site %q: %w", f, err)
	}
	if site < 0 {
		return slab, fmt.Errorf("ingest: site %d negative", site)
	}
	f, rest, _ = strings.Cut(rest, sep)
	measure, err := strconv.ParseFloat(f, 64)
	if err != nil {
		return slab, fmt.Errorf("ingest: measure %q: %w", f, err)
	}
	if math.IsNaN(measure) || math.IsInf(measure, 0) {
		return slab, fmt.Errorf("ingest: measure %v not finite", measure)
	}
	*r = Record{Source: source, Offset: offset, Dataset: dataset, Site: site, Measure: measure}
	n := fields - 5
	if n == 0 {
		return slab, nil
	}
	slab = slices.Grow(slab, n)
	from := len(slab)
	for i := range n {
		f, rest, _ = strings.Cut(rest, sep)
		c, err := unescapeField(f)
		if err != nil {
			return slab, fmt.Errorf("ingest: coord %d: %w", i, err)
		}
		slab = append(slab, c)
	}
	r.Coords = slab[from:len(slab):len(slab)]
	return slab, nil
}

// EncodeBatch renders records one per line with a trailing newline —
// the POST /v1/ingest request body.
func EncodeBatch(recs []Record) []byte {
	// One allocation in the common case: the size of the strings plus room
	// for the numbers and separators. A batch with escapes, 11-digit
	// offsets or the like grows past it.
	size := 0
	for i := range recs {
		r := &recs[i]
		size += len(r.Source) + len(r.Dataset) + len(r.Coords) + numbersRoom
		for _, c := range r.Coords {
			size += len(c)
		}
	}
	return AppendBatch(make([]byte, 0, size), recs)
}

// AppendBatch appends EncodeBatch's rendering of recs to dst — the same
// bytes, into a buffer the caller reuses.
func AppendBatch(dst []byte, recs []Record) []byte {
	for i := range recs {
		dst = appendRecord(dst, &recs[i])
		dst = append(dst, '\n')
	}
	return dst
}

// DecodeBatch parses a request body: one record per line, blank lines
// ignored. Errors carry the 1-based line number. The body is copied to
// one string, which every decoded field without an escape aliases; the
// records and their coordinates are two allocations sized by a first
// pass over the lines, each record's Coords cut from the shared one with
// its capacity clipped.
func DecodeBatch(data []byte) ([]Record, error) {
	text := string(data)
	nrec, ncoord := 0, 0
	for rest := text; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if blankLine(line) {
			continue
		}
		nrec++
		if seps := strings.Count(line, string(fieldSep)); seps > 4 {
			ncoord += seps - 4
		}
	}
	if nrec == 0 {
		return nil, nil
	}
	out := make([]Record, nrec)
	slab := make([]string, 0, ncoord)
	k := 0
	for i, rest := 1, text; rest != ""; i++ {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if blankLine(line) {
			continue
		}
		var err error
		if slab, err = decodeRecord(line, &out[k], slab); err != nil {
			return nil, fmt.Errorf("line %d: %w", i, err)
		}
		k++
	}
	return out, nil
}

// blankLine reports a line DecodeBatch skips: empty but for carriage
// returns.
func blankLine(line string) bool { return strings.TrimRight(line, "\r") == "" }
