package sql

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/olap"
	"bohr/internal/rdd"
	"bohr/internal/workload"
)

// refCheck is one WHERE conjunct as the reference evaluates it.
type refCheck struct {
	idx     int
	op      string
	value   string
	numeric bool
	numVal  float64
}

// refMap is the statement as a map function over split keys — compare the
// WHERE fields as strings, pick the grouped fields by position — the oracle
// the coded scan, which reads neither strings nor a View, is held to.
func refMap(t testing.TB, plan *Plan, schema *olap.Schema) engine.MapFn {
	t.Helper()
	checks := make([]refCheck, len(plan.Statement.Where))
	for i, c := range plan.Statement.Where {
		checks[i] = refCheck{idx: schema.Index(c.Column), op: c.Op, value: c.Value, numeric: c.Numeric}
		if c.Numeric {
			v, err := strconv.ParseFloat(c.Value, 64)
			if err != nil {
				t.Fatal(err)
			}
			checks[i].numVal = v
		}
	}
	keep := make([]int, len(plan.Dims))
	for i, d := range plan.Dims {
		keep[i] = schema.Index(d)
	}
	return func(r engine.KV, emit func(string, float64)) {
		fields := strings.Split(r.Key, engine.KeySep)
		shaped := len(fields) == schema.NumDims()
		if len(checks) > 0 && !(shaped && passes(checks, fields)) {
			return
		}
		key := "<all>" // a pure aggregate groups on a constant
		if len(keep) > 0 {
			key = r.Key // foreign key shape: leave untouched
			if shaped {
				kept := make([]string, len(keep))
				for i, f := range keep {
					kept[i] = fields[f]
				}
				key = strings.Join(kept, engine.KeySep)
			}
		}
		emit(key, r.Val)
	}
}

// passes reports whether a schema-shaped key's fields satisfy every
// conjunct.
func passes(checks []refCheck, fields []string) bool {
	for i := range checks {
		ch := &checks[i]
		got := fields[ch.idx]
		var cmp int
		if ch.numeric {
			gv, err := strconv.ParseFloat(got, 64)
			if err != nil {
				return false
			}
			switch {
			case gv < ch.numVal:
				cmp = -1
			case gv > ch.numVal:
				cmp = 1
			}
		} else {
			cmp = strings.Compare(got, ch.value)
		}
		ok := false
		switch ch.op {
		case "=":
			ok = cmp == 0
		case "!=":
			ok = cmp != 0
		case "<":
			ok = cmp < 0
		case "<=":
			ok = cmp <= 0
		case ">":
			ok = cmp > 0
		case ">=":
			ok = cmp >= 0
		}
		if !ok {
			return false
		}
	}
	return true
}

// naiveFold is the third path to a statement's answer: split every key,
// read the statement itself, fold into one map. It shares nothing with the
// compiler, the reference closure or the engine's stage.
func naiveFold(stmt *Statement, dims []string, schema *olap.Schema, op engine.CombineOp, recs []engine.KV) map[string]float64 {
	holds := func(c Condition, got string) bool {
		less, more := got < c.Value, got > c.Value
		if c.Numeric {
			g, err := strconv.ParseFloat(got, 64)
			v, _ := strconv.ParseFloat(c.Value, 64)
			if err != nil {
				return false
			}
			// A field that does not order against the number (NaN) counts
			// as equal to it.
			less, more = g < v, g > v
		}
		switch c.Op {
		case "=":
			return !less && !more
		case "!=":
			return less || more
		case "<":
			return less
		case "<=":
			return !more
		case ">":
			return more
		}
		return !less
	}
	out := map[string]float64{}
records:
	for _, r := range recs {
		fields := strings.Split(r.Key, engine.KeySep)
		shaped := len(fields) == schema.NumDims()
		if len(stmt.Where) > 0 && !shaped {
			continue
		}
		for _, c := range stmt.Where {
			if !holds(c, fields[schema.Index(c.Column)]) {
				continue records
			}
		}
		key := "<all>"
		if len(dims) > 0 && shaped {
			kept := make([]string, len(dims))
			for i, d := range dims {
				kept[i] = fields[schema.Index(d)]
			}
			key = strings.Join(kept, engine.KeySep)
		} else if len(dims) > 0 {
			key = r.Key
		}
		old, seen := out[key]
		switch {
		case op == engine.OpCount:
			out[key] = old + 1
		case !seen:
			out[key] = r.Val
		case op == engine.OpSum:
			out[key] = old + r.Val
		case op == engine.OpMax:
			out[key] = math.Max(old, r.Val)
		case op == engine.OpMin:
			out[key] = math.Min(old, r.Val)
		}
	}
	return out
}

var refSchema = olap.MustSchema("a", "b", "c", "d")

// refPools are the field values of the duplicate-heavy stores: strings,
// numbers, numbers that only parse, and texts that do not.
var refPools = [4][]string{
	{"x", "y", "", "NaN", "12", "7"},
	{"3.5", "-4", "1e3", "abc", "10"},
	{"p", "q", "r", ""},
	{"0", "1", "2"},
}

// genStatement draws one statement over refSchema: 0–3 conjuncts of any
// operator against a string or a number, grouped on any ordered subset of
// the columns (or on none), under any of the four aggregates.
func genStatement(rng *rand.Rand) string {
	cols := refSchema.Dims()
	keep := rng.Perm(len(cols))[:rng.Intn(len(cols)+1)]
	agg := []string{"SUM(measure)", "COUNT(*)", "MIN(measure)", "MAX(measure)", "COUNT(measure)"}[rng.Intn(5)]
	var items, group []string
	for _, k := range keep {
		group = append(group, cols[k])
		if rng.Intn(2) == 0 {
			items = append(items, cols[k])
		}
	}
	text := "SELECT " + strings.Join(append(items, agg), ", ") + " FROM d"
	for i, n := 0, rng.Intn(4); i < n; i++ {
		f := rng.Intn(len(cols))
		value := "'" + refPools[f][rng.Intn(len(refPools[f]))] + "'"
		switch rng.Intn(4) {
		case 0:
			value = []string{"10", "3.5", "-4", "0", "12", "1000"}[rng.Intn(6)]
		case 1:
			value = fmt.Sprintf("'v%d'", rng.Intn(900)) // the all-distinct stores' values
		}
		text += []string{" WHERE ", " AND "}[min(i, 1)] + cols[f] + " " +
			[]string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)] + " " + value
	}
	if len(group) > 0 {
		text += " GROUP BY " + strings.Join(group, ", ")
	}
	return text
}

// genStore draws records of one of four kinds: duplicate-heavy (the kept
// dictionaries' product stays below an executor's share: the table indexed
// by tuple), all-distinct (it does not: the open-addressed one), mixed with
// keys of other widths — some spelling what a projection of a shaped key
// spells — and empty.
func genStore(rng *rand.Rand, kind, n int) []engine.KV {
	var recs []engine.KV
	for i := 0; i < n && kind < 3; i++ {
		fields := make([]string, 4)
		for f := range fields {
			fields[f] = refPools[f][rng.Intn(len(refPools[f]))]
			if kind == 1 {
				fields[f] = fmt.Sprintf("v%d", rng.Intn(900))
			}
		}
		if kind == 2 && rng.Intn(5) == 0 {
			fields = [][]string{{""}, {"x"}, {"x", "3.5"}, {"y", "abc", "p"}, {"12", "0"}, {"x", "3.5", "p", "0", "extra"}}[rng.Intn(6)]
		}
		recs = append(recs, engine.KV{Key: workload.JoinKey(fields), Val: math.Round(rng.NormFloat64()*1e6) / 1e3})
	}
	return recs
}

// sameResult compares two stage results field by field, values bit for bit.
func sameResult(a, b engine.StageResult) error {
	if a.Raw != b.Raw || a.MapTime != b.MapTime || a.AssignOverhead != b.AssignOverhead ||
		len(a.Inter) != len(b.Inter) || (a.Inter == nil) != (b.Inter == nil) {
		return fmt.Errorf("raw/map/assign/records = %d/%v/%v/%d, reference %d/%v/%v/%d",
			a.Raw, a.MapTime, a.AssignOverhead, len(a.Inter), b.Raw, b.MapTime, b.AssignOverhead, len(b.Inter))
	}
	for i := range a.Inter {
		if a.Inter[i].Key != b.Inter[i].Key || math.Float64bits(a.Inter[i].Val) != math.Float64bits(b.Inter[i].Val) {
			return fmt.Errorf("record %d = %q: %v, reference %q: %v", i, a.Inter[i].Key, a.Inter[i].Val, b.Inter[i].Key, b.Inter[i].Val)
		}
	}
	return nil
}

// checkStatement compiles the text and holds its Select to the reference
// closure through one layout — the whole StageResult, bit for bit — and
// both to the naive fold on group → value.
func checkStatement(t testing.TB, text string, store *engine.Store, stage engine.Stage) {
	t.Helper()
	plan, err := CompileString(text, refSchema)
	text = fmt.Sprintf("%s [%d records, %+v]", text, len(store.Records()), stage)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	ref := plan.Query
	ref.Select, ref.Map = nil, refMap(t, plan, refSchema)
	if err := ref.Validate(); err != nil || plan.Query.Validate() != nil {
		t.Fatalf("%s: invalid query: %v, %v", text, err, plan.Query.Validate())
	}
	layout, _, err := store.Layout(stage)
	if err != nil {
		t.Fatal(err)
	}
	coded := layout.Scan(&plan.Query)
	if err := sameResult(coded, layout.Scan(&ref)); err != nil {
		t.Fatalf("%s: coded scan: %v", text, err)
	}
	got := map[string]float64{}
	for _, kv := range engine.CombinePartials(coded.Inter, plan.Query.Combine) {
		got[kv.Key] = kv.Val
	}
	want := naiveFold(plan.Statement, plan.Dims, refSchema, plan.Query.Combine, store.Records())
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, naive fold has %d", text, len(got), len(want))
	}
	for k, v := range want {
		// Sums differ in the last bits: the stage adds per executor first.
		if g, ok := got[k]; !ok || math.Abs(g-v) > 1e-9*math.Max(1, math.Abs(v)) {
			t.Fatalf("%s: group %q = %v, naive fold has %v (present %v)", text, k, g, v, ok)
		}
	}
}

var refStages = []engine.Stage{
	{Exec: engine.Executors{Machines: 1, PerMachine: 1}},
	{Exec: engine.Executors{Machines: 1, PerMachine: 4}},
	{Exec: engine.Executors{Machines: 3, PerMachine: 2}},
	{Exec: engine.Executors{Machines: 1, PerMachine: 1}, Assigner: rdd.NewAssigner(11)},
	{Exec: engine.Executors{Machines: 1, PerMachine: 4}, Assigner: rdd.NewAssigner(11), CubeInput: true},
	{Exec: engine.Executors{Machines: 3, PerMachine: 2}, Assigner: rdd.NewAssigner(11)},
}

// TestSelectMatchesReferenceMap: three independent paths to one answer.
// Generated statements × generated stores × executor layouts: the coded
// scan's StageResult is the reference closure's through the same layout, and
// both fold to what a naive pass over the split keys computes.
func TestSelectMatchesReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	texts := []string{
		"SELECT COUNT(*) FROM d",
		"SELECT SUM(measure) FROM d WHERE b >= 10",
		"SELECT d, a FROM d",
		"SELECT b, MAX(measure) FROM d WHERE a = 'NaN' AND b = 0 GROUP BY b",
		"SELECT a, b, SUM(measure) FROM d GROUP BY a, b", // what a two-field foreign key may spell
		"SELECT c, b, a, d, MIN(measure) FROM d WHERE c != '' GROUP BY c, b, a, d",
	}
	for len(texts) < 70 {
		texts = append(texts, genStatement(rng))
	}
	for kind := range 4 { // duplicate-heavy, all-distinct, foreign widths, empty
		store := &engine.Store{}
		store.Add(genStore(rng, kind, 1200)...)
		for _, stage := range refStages {
			for _, text := range texts {
				checkStatement(t, text, store, stage)
			}
		}
	}
}

// FuzzSelect holds any statement that compiles, over a store drawn from the
// seed, to the same three-way agreement.
func FuzzSelect(f *testing.F) {
	f.Add("SELECT a, SUM(measure) FROM d WHERE b != 'abc' GROUP BY a", int64(1))
	f.Add("SELECT COUNT(*) FROM d WHERE d < 2 AND a >= 7", int64(2))
	f.Add("SELECT c, a FROM d WHERE c = ''", int64(3))
	f.Add("SELECT MAX(measure) FROM d", int64(7)) // foreign keys, no WHERE: one group
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		if _, err := CompileString(text, refSchema); err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		store := &engine.Store{}
		store.Add(genStore(rng, rng.Intn(4), 1+rng.Intn(300))...)
		checkStatement(t, text, store, refStages[rng.Intn(len(refStages))])
	})
}
