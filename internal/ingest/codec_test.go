package ingest

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"bohr/internal/engine"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Source: "s", Offset: 1, Dataset: "ds0", Site: 0, Measure: 1.5},
		{Source: "web-tier", Offset: 42, Dataset: "logs", Site: 3,
			Coords: []string{"url=/a", "US"}, Measure: -0.25},
		{Source: "a|b%c", Offset: 7, Dataset: "with\nnewline", Site: 1,
			Coords: []string{"", "pipe|pipe", "pct%25", "\r\n"}, Measure: 1e300},
		{Source: "s", Offset: math.MaxUint64, Dataset: "d", Site: 0,
			Coords: []string{engine.KeySep}, Measure: 0},
	}
	for _, r := range recs {
		line := EncodeRecord(r)
		if strings.ContainsAny(line, "\n\r") {
			t.Fatalf("encoded line %q contains framing bytes", line)
		}
		got, err := DecodeRecord(line)
		if err != nil {
			t.Fatalf("DecodeRecord(%q): %v", line, err)
		}
		if got.Coords == nil {
			got.Coords = r.Coords // both empty
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip: got %+v want %+v", got, r)
		}
		// Canonical: re-encoding the decoded record reproduces the bytes.
		if again := EncodeRecord(got); again != line {
			t.Fatalf("re-encode %q != %q", again, line)
		}
	}
	// The bytes are pinned: WAL frames written by earlier builds hold them.
	const hostile = "a%7Cb%25c|7|with%0Anewline|1|1e+300||pipe%7Cpipe|pct%2525|%0D%0A"
	if line := EncodeRecord(recs[2]); line != hostile {
		t.Fatalf("EncodeRecord = %q, pinned %q", line, hostile)
	}
	if body := string(EncodeBatch(recs[2:3])); body != hostile+"\n" {
		t.Fatalf("EncodeBatch = %q, pinned %q", body, hostile+"\n")
	}
}

func TestDecodeRecordRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"",
		"s|1|ds|0",                      // 4 fields
		"|1|ds|0|1",                     // empty source
		"s|0|ds|0|1",                    // zero offset
		"s|x|ds|0|1",                    // non-numeric offset
		"s|1||0|1",                      // empty dataset
		"s|1|ds|-1|1",                   // negative site
		"s|1|ds|x|1",                    // non-numeric site
		"s|1|ds|0|NaN",                  // non-finite measure
		"s|1|ds|0|+Inf",                 // non-finite measure
		"s|1|ds|0|nope",                 // non-numeric measure
		"s%|1|ds|0|1",                   // truncated escape
		"s%zz|1|ds|0|1",                 // bad escape digits
		"s|1|ds|0|1|ok|bad%9",           // truncated escape in coord
		"s|18446744073709551616|ds|0|1", // offset overflows uint64
	} {
		if _, err := DecodeRecord(line); err == nil {
			t.Errorf("DecodeRecord(%q) accepted malformed input", line)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	recs := []Record{
		{Source: "a", Offset: 1, Dataset: "ds", Site: 0, Coords: []string{"x"}, Measure: 1},
		{Source: "b", Offset: 2, Dataset: "ds", Site: 1, Coords: []string{"y", "z"}, Measure: 2},
	}
	body := EncodeBatch(recs)
	got, err := DecodeBatch(body)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("batch round trip: got %+v want %+v", got, recs)
	}
	// Blank and CRLF-only lines are skipped.
	got, err = DecodeBatch([]byte("\n\r\n" + string(body) + "\n\n"))
	if err != nil || len(got) != 2 {
		t.Fatalf("batch with blanks: %v, %d records", err, len(got))
	}
	// Errors carry the 1-based line number.
	_, err = DecodeBatch([]byte("a|1|ds|0|1\nbroken\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}

func TestEncodeBatchEmpty(t *testing.T) {
	if body := EncodeBatch(nil); len(body) != 0 {
		t.Fatalf("EncodeBatch(nil) = %q", body)
	}
	recs, err := DecodeBatch(nil)
	if err != nil || len(recs) != 0 {
		t.Fatalf("DecodeBatch(nil) = %v, %v", recs, err)
	}
}

// TestDecodeBatchAllocs bounds what decoding a 256-record body allocates:
// the body copied to one string, the records, and one slab for every
// record's coordinates — 3, whatever the batch size, for a body without
// escapes (each escaped field adds its unescaped string).
func TestDecodeBatchAllocs(t *testing.T) {
	recs := make([]Record, 256)
	for i := range recs {
		recs[i] = Record{Source: "bench", Offset: uint64(i + 1), Dataset: fmt.Sprintf("ds%d", i%3),
			Site: i % 4, Coords: []string{fmt.Sprintf("url-%d", i), "US", "mobile"}, Measure: 1.5}
	}
	body := EncodeBatch(recs)
	var got []Record
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if got, err = DecodeBatch(body); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("decoded batch differs from the encoded one")
	}
	if allocs > 3 {
		t.Fatalf("DecodeBatch of %d records: %v allocations, want at most 3", len(recs), allocs)
	}
}
