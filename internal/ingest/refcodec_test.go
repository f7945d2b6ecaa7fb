package ingest

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// refDecodeRecord and refDecodeBatch are the strings.Split decoder the
// scanning one replaced, kept verbatim as FuzzDecodeBatch's reference:
// whatever body the reference accepts, DecodeBatch must accept with the
// same records, and whatever it rejects, DecodeBatch must reject naming
// the same line.
func refDecodeRecord(line string) (Record, error) {
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

func refDecodeBatch(data []byte) ([]Record, error) {
	var out []Record
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimRight(line, "\r") == "" {
			continue
		}
		r, err := refDecodeRecord(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}
