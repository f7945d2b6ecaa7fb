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
	parts := strings.Split(line, string(fieldSep))
	if len(parts) < 5 {
		return Record{}, fmt.Errorf("ingest: record has %d fields, want at least 5", len(parts))
	}
	source, err := unescapeField(parts[0])
	if err != nil {
		return Record{}, fmt.Errorf("ingest: source: %w", err)
	}
	if source == "" {
		return Record{}, fmt.Errorf("ingest: record needs a non-empty source")
	}
	offset, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("ingest: offset %q: %w", parts[1], err)
	}
	if offset == 0 {
		return Record{}, fmt.Errorf("ingest: offsets are 1-based, got 0")
	}
	dataset, err := unescapeField(parts[2])
	if err != nil {
		return Record{}, fmt.Errorf("ingest: dataset: %w", err)
	}
	if dataset == "" {
		return Record{}, fmt.Errorf("ingest: record needs a non-empty dataset")
	}
	site, err := strconv.Atoi(parts[3])
	if err != nil {
		return Record{}, fmt.Errorf("ingest: site %q: %w", parts[3], err)
	}
	if site < 0 {
		return Record{}, fmt.Errorf("ingest: site %d negative", site)
	}
	measure, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return Record{}, fmt.Errorf("ingest: measure %q: %w", parts[4], err)
	}
	if math.IsNaN(measure) || math.IsInf(measure, 0) {
		return Record{}, fmt.Errorf("ingest: measure %v not finite", measure)
	}
	r := Record{Source: source, Offset: offset, Dataset: dataset, Site: site, Measure: measure}
	for i, p := range parts[5:] {
		c, err := unescapeField(p)
		if err != nil {
			return Record{}, fmt.Errorf("ingest: coord %d: %w", i, err)
		}
		r.Coords = append(r.Coords, c)
	}
	return r, nil
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
	out := make([]byte, 0, size)
	for i := range recs {
		out = appendRecord(out, &recs[i])
		out = append(out, '\n')
	}
	return out
}

// DecodeBatch parses a request body: one record per line, blank lines
// ignored. Errors carry the 1-based line number.
func DecodeBatch(data []byte) ([]Record, error) {
	var out []Record
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimRight(line, "\r") == "" {
			continue
		}
		r, err := DecodeRecord(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}
