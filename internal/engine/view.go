package engine

import (
	"fmt"
	"strings"
)

// KeySep separates the fields of a record key (workload.JoinKey writes it);
// a field never contains it.
const KeySep = "\x1f"

// GroupAll is the key a View that keeps no field gives every record.
const GroupAll = "<all>"

// View is a projection of record keys: keys of Width fields, joined by
// KeySep, cut down to the kept fields in output order — the attribute space
// a query combines on (the dimension-cube view of §4.1) and a Select groups
// by. The zero View keeps the whole key. Views compare by value, and equal
// Views project every key alike, so a View is its own identity and memo key.
type View struct {
	width int
	keep  string // the kept positions, four bytes each, little-endian
	run   bool   // keep is an ascending contiguous run: a projection is a substring
}

// NewView returns the View of keys of width fields onto the fields at the
// keep positions, in that order. Key needs every position in [0, width); a
// Select checks them (Query.Validate).
func NewView(width int, keep ...int) View {
	b := make([]byte, 0, 4*len(keep))
	v := View{width: width, run: len(keep) > 0}
	for i, f := range keep {
		b = append(b, byte(f), byte(f>>8), byte(f>>16), byte(f>>24))
		v.run = v.run && (i == 0 || f == keep[i-1]+1)
	}
	v.keep = string(b)
	return v
}

// Width returns the field count of the keys the View projects; 0 for the
// zero View.
func (v View) Width() int { return v.width }

// Keep returns the kept positions, in output order.
func (v View) Keep() []int {
	out := make([]int, len(v.keep)/4)
	for k := range out {
		out[k] = v.kept(k)
	}
	return out
}

// kept returns the k-th kept position.
func (v View) kept(k int) int {
	s := v.keep[4*k : 4*k+4]
	return int(int32(uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24))
}

func (v View) String() string {
	if v.width == 0 {
		return "the whole key"
	}
	return fmt.Sprintf("fields %v of %d", v.Keep(), v.width)
}

// Key projects one key: the kept fields joined by KeySep. A key of another
// width is foreign and left untouched, and a View that keeps no field gives
// every key GroupAll. One pass finds the separators; a run of fields in key
// order is a substring of the key and allocates nothing, any other
// projection joins its fields into one new string.
func (v View) Key(key string) string {
	switch {
	case v.width == 0:
		return key
	case v.keep == "":
		return GroupAll
	}
	var fixed [16]int // the separators of keys up to 17 fields wide
	x := fieldIndex{key: key, sep: fixed[:0]}
	if v.width-1 > len(fixed) {
		x.sep = make([]int, 0, v.width-1)
	}
	for start := 0; ; {
		i := strings.IndexByte(key[start:], KeySep[0])
		if i < 0 {
			break
		}
		if len(x.sep) == v.width-1 {
			return key // more fields than the View's keys have
		}
		x.sep = append(x.sep, start+i)
		start += i + 1
	}
	if len(x.sep) != v.width-1 {
		return key
	}
	n := len(v.keep) / 4
	if v.run {
		return key[x.start(v.kept(0)):x.end(v.kept(n-1))]
	}
	size := n - 1 // separators
	for k := range n {
		size += x.end(v.kept(k)) - x.start(v.kept(k))
	}
	var b strings.Builder
	b.Grow(size)
	for k := range n {
		if k > 0 {
			b.WriteString(KeySep)
		}
		f := v.kept(k)
		b.WriteString(key[x.start(f):x.end(f)])
	}
	return b.String()
}

// Map returns the map function that emits each record under its projected
// key: nil, the identity, for the zero View.
func (v View) Map() MapFn {
	if v.width == 0 {
		return nil
	}
	return func(r KV, emit func(string, float64)) { emit(v.Key(r.Key), r.Val) }
}

// fieldIndex locates the fields of one key by its separators' offsets.
type fieldIndex struct {
	key string
	sep []int // sep[f] is the offset of the separator after field f
}

func (x *fieldIndex) start(f int) int {
	if f == 0 {
		return 0
	}
	return x.sep[f-1] + 1
}

func (x *fieldIndex) end(f int) int {
	if f == len(x.sep) {
		return len(x.key)
	}
	return x.sep[f]
}
