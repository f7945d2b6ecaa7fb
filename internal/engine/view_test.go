package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"bohr/internal/stats"
)

// refKey is what View.Key means, on split strings: pick the kept fields of a
// key of the view's width and join them; GroupAll when none is kept; any
// other key as it is.
func refKey(width int, keep []int, key string) string {
	if width == 0 {
		return key
	}
	if len(keep) == 0 {
		return GroupAll
	}
	fields := strings.Split(key, KeySep)
	if len(fields) != width {
		return key
	}
	kept := make([]string, len(keep))
	for k, f := range keep {
		kept[k] = fields[f]
	}
	return strings.Join(kept, KeySep)
}

// randomView draws a view of 1 to 20 fields keeping none, some or all of
// them: an ascending run half the time, any order otherwise.
func randomView(rng interface{ Intn(int) int }) (int, []int) {
	width := 1 + rng.Intn(20)
	n := rng.Intn(width + 1)
	if rng.Intn(2) == 0 {
		lo := rng.Intn(width - n + 1)
		keep := make([]int, n)
		for k := range keep {
			keep[k] = lo + k
		}
		return width, keep
	}
	keep := make([]int, n)
	for k := range keep {
		keep[k] = rng.Intn(width)
	}
	return width, keep
}

// TestViewKeyAgreesWithSplit is View.Key's differential against
// split-pick-join: views of up to 20 fields — past the fixed separator array
// — keeping runs, fields out of order, repeated fields or none, over keys of
// the view's width with empty fields and of every other width, no separator
// at all included. Equal views are equal values, and a run projection, like a
// foreign key, allocates nothing.
func TestViewKeyAgreesWithSplit(t *testing.T) {
	rng := stats.NewRand(5)
	alphabet := []string{"", "a", "bc", "x/y", "\x1e", "long-coordinate-value", "0"}
	key := func(width int) string {
		fields := make([]string, width)
		for i := range fields {
			fields[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return strings.Join(fields, KeySep)
	}
	for trial := 0; trial < 4000; trial++ {
		width, keep := randomView(rng)
		v := NewView(width, keep...)
		if !slices.Equal(v.Keep(), keep) || v.Width() != width {
			t.Fatalf("NewView(%d, %v) keeps %v of %d", width, keep, v.Keep(), v.Width())
		}
		if v != NewView(width, slices.Clone(keep)...) {
			t.Fatalf("two views of %d onto %v differ", width, keep)
		}
		for _, k := range []string{key(width), key(width), key(1 + rng.Intn(22)), ""} {
			if got, want := v.Key(k), refKey(width, keep, k); got != want {
				t.Fatalf("key %q in %v = %q, want %q", k, v, got, want)
			}
		}
	}
	if (View{}).Key("a"+KeySep+"b") != "a"+KeySep+"b" || NewView(0) != (View{}) {
		t.Fatal("the zero View does not keep the whole key")
	}
	if NewView(3, 0, 2) == NewView(3, 2, 0) || NewView(3, 0) == NewView(4, 0) {
		t.Fatal("views of other positions or widths compare equal")
	}

	var sink string
	shaped := strings.Join([]string{"u", "c", "h", "x"}, KeySep)
	for _, v := range []View{NewView(4, 0), NewView(4, 1, 2), NewView(4, 0, 1, 2, 3), NewView(17, 3)} {
		for _, k := range []string{shaped, "foreign"} {
			if allocs := testing.AllocsPerRun(100, func() { sink = v.Key(k) }); allocs != 0 {
				t.Errorf("%v of %q: %v allocations", v, k, allocs)
			}
		}
	}
	_ = sink
}

// TestSelectGroupsByViewKey ties the coded scan to the string projection: a
// Select over one executor, its records in store order, opens exactly the
// groups View.Key names, in first-record order — foreign keys of other widths
// and keys spelling another's projection included.
func TestSelectGroupsByViewKey(t *testing.T) {
	rng := stats.NewRand(8)
	for trial := 0; trial < 300; trial++ {
		width, keep := randomView(rng)
		view := NewView(width, keep...)
		var recs []KV
		for i := 0; i < 1+rng.Intn(120); i++ {
			w := width
			if rng.Intn(6) == 0 {
				w = 1 + rng.Intn(width+1) // foreign, or not
			}
			fields := make([]string, w)
			for f := range fields {
				fields[f] = fmt.Sprintf("v%d", rng.Intn(3))
			}
			recs = append(recs, KV{Key: strings.Join(fields, KeySep), Val: 1})
		}
		l, err := NewLayout(recs, Stage{Exec: Executors{Machines: 1, PerMachine: 1}})
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, r := range recs {
			if k := view.Key(r.Key); !slices.Contains(want, k) {
				want = append(want, k)
			}
		}
		got := l.Scan(&Query{Name: "q", Dataset: "d", Combine: OpCount, Select: &Select{View: view}}).Inter
		keys := make([]string, len(got))
		for i, kv := range got {
			keys[i] = kv.Key
		}
		if !slices.Equal(keys, want) {
			t.Fatalf("trial %d, %v: groups %q, View.Key gives %q", trial, view, keys, want)
		}
	}
}
