package ingest

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzRecordCodec drives the wire codec with arbitrary bytes: DecodeRecord
// must never panic, and every line it accepts must re-encode canonically —
// encode(decode(line)) decodes back to the same record, and a second
// decode/encode round is a fixed point.
func FuzzRecordCodec(f *testing.F) {
	f.Add("s|1|ds0|0|1.5")
	f.Add("web-tier|42|logs|3|-0.25|url=/a|US")
	f.Add("a%7Cb|7|d%0As|1|1e300||p%7Cq|%25")
	f.Add("s|18446744073709551615|d|0|0|%1f")
	f.Add("s|0|ds|0|1")
	f.Add("|||||")
	f.Add("s|1|ds|0|NaN")
	f.Add("s%|1|ds|0|1")
	f.Fuzz(func(t *testing.T, line string) {
		r, err := DecodeRecord(line)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		canon := EncodeRecord(r)
		r2, err := DecodeRecord(canon)
		if err != nil {
			t.Fatalf("canonical line %q rejected: %v", canon, err)
		}
		if again := EncodeRecord(r2); again != canon {
			t.Fatalf("encode not a fixed point: %q -> %q", canon, again)
		}
		if r2.Source != r.Source || r2.Offset != r.Offset || r2.Dataset != r.Dataset ||
			r2.Site != r.Site || len(r2.Coords) != len(r.Coords) {
			t.Fatalf("round trip changed record: %+v -> %+v", r, r2)
		}
		for i := range r.Coords {
			if r2.Coords[i] != r.Coords[i] {
				t.Fatalf("coord %d changed: %q -> %q", i, r.Coords[i], r2.Coords[i])
			}
		}
		if strings.ContainsAny(canon, "\n\r") {
			t.Fatalf("canonical line %q breaks framing", canon)
		}
	})
}

// FuzzDecodeBatch holds the scanning DecodeBatch to the strings.Split
// decoder it replaced (refDecodeBatch): on any body both accept, the
// records match field by field, coordinates by value (nil equals empty);
// on any body the reference rejects, DecodeBatch rejects naming the same
// line.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte("s|1|ds0|0|1.5\nweb|42|logs|3|-0.25|url=/a|US\n"))
	f.Add([]byte("s|1|ds|0|1\r\ns|2|ds|0|2|a\r\n"))              // CRLF
	f.Add([]byte("\n\r\n\ns|1|ds|0|1|x\n\n\r\n"))                // blank lines
	f.Add([]byte("a%7Cb|7|d%0As|1|1e300||p%7Cq|%25\ns|8|d|0|0")) // escapes, no final newline
	f.Add([]byte("s|1|ds|0|1\ns|2|ds|0|2\ns|3|ds|0|3|c"))        // zero-coordinate records
	f.Add([]byte("s|1|ds|0|1\nbroken\ns|3|ds|0|NaN\n"))
	f.Add([]byte("s|1|ds|0|1|ok|bad%9\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := refDecodeBatch(body)
		got, err := DecodeBatch(body)
		if wantErr != nil {
			if err == nil {
				t.Fatalf("reference rejects %q (%v), DecodeBatch accepts it", body, wantErr)
			}
			if errLine(err) != errLine(wantErr) {
				t.Fatalf("%q: DecodeBatch error %q, reference %q", body, err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("reference accepts %q, DecodeBatch rejects it: %v", body, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d records, reference %d", body, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Source != w.Source || g.Offset != w.Offset || g.Dataset != w.Dataset ||
				g.Site != w.Site || math.Float64bits(g.Measure) != math.Float64bits(w.Measure) ||
				!slices.Equal(g.Coords, w.Coords) {
				t.Fatalf("%q: record %d = %+v, reference %+v", body, i, g, w)
			}
		}
	})
}

// errLine is the "line N" prefix DecodeBatch errors carry.
func errLine(err error) string {
	line, _, _ := strings.Cut(err.Error(), ":")
	return line
}
