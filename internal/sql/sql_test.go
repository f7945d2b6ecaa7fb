package sql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/olap"
	"bohr/internal/wan"
	"bohr/internal/workload"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, SUM(m) FROM ds WHERE x = 'v' AND y >= 3.5")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{}
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	want := []tokenKind{
		tokIdent, tokIdent, tokComma, tokIdent, tokLParen, tokIdent, tokRParen,
		tokIdent, tokIdent, tokIdent, tokIdent, tokOp, tokString, tokIdent,
		tokIdent, tokOp, tokNumber, tokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("tokens = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"a ! b", "'unterminated", "a § b"} {
		if _, err := lex(bad); err == nil {
			t.Fatalf("lex(%q) should error", bad)
		}
	}
}

func TestLexTokenKindStrings(t *testing.T) {
	for k := tokEOF; k <= tokOp; k++ {
		if k.String() == "?" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
}

func TestParseSimple(t *testing.T) {
	stmt, err := Parse("SELECT url, SUM(measure) FROM logs GROUP BY url")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Dataset != "logs" {
		t.Fatalf("dataset = %q", stmt.Dataset)
	}
	if len(stmt.Items) != 2 || stmt.Items[0].Column != "url" || stmt.Items[1].Agg != AggSum {
		t.Fatalf("items = %+v", stmt.Items)
	}
	if len(stmt.GroupBy) != 1 || stmt.GroupBy[0] != "url" {
		t.Fatalf("group by = %v", stmt.GroupBy)
	}
}

func TestParseWhere(t *testing.T) {
	stmt, err := Parse("SELECT COUNT(*) FROM t WHERE region = 'US' AND hour >= 12")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Where) != 2 {
		t.Fatalf("where = %+v", stmt.Where)
	}
	if stmt.Where[0].Op != "=" || stmt.Where[0].Value != "US" || stmt.Where[0].Numeric {
		t.Fatalf("cond 0 = %+v", stmt.Where[0])
	}
	if stmt.Where[1].Op != ">=" || !stmt.Where[1].Numeric {
		t.Fatalf("cond 1 = %+v", stmt.Where[1])
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse("select sum(m) from t group by x"); err == nil {
		// sum(m) parses; grouping on x without selecting is fine.
	} else {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROM t",
		"SELECT FROM t",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE x",
		"SELECT a FROM t WHERE x =",
		"SELECT a FROM t GROUP x",
		"SELECT a FROM t trailing",
		"SELECT SUM(*) FROM t",
		"SELECT a, SUM(m) FROM t",    // plain col with agg, no group by
		"SELECT a FROM t GROUP BY b", // a not grouped
		"SELECT SUM( FROM t",
		"SELECT MAX(a FROM t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should error", q)
		}
	}
}

func TestParseCountStar(t *testing.T) {
	stmt, err := Parse("SELECT COUNT(*) FROM jobs GROUP BY class")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Items[0].Agg != AggCount || stmt.Items[0].Column != "*" {
		t.Fatalf("items = %+v", stmt.Items)
	}
}

func mkCluster(t *testing.T) *engine.Cluster {
	t.Helper()
	top, err := wan.NewTopology([]string{"a", "b"}, []float64{50, 50}, []float64{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.NewCluster(top, 1, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompileAndRun(t *testing.T) {
	schema := olap.MustSchema("url", "country", "hour")
	c := mkCluster(t)
	add := func(site int, url, country, hour string, v float64) {
		c.Data[site].Add("logs", engine.KV{
			Key: workload.JoinKey([]string{url, country, hour}), Val: v,
		})
	}
	add(0, "u1", "US", "00", 2)
	add(0, "u1", "US", "01", 3)
	add(1, "u1", "JP", "00", 5)
	add(1, "u2", "US", "02", 7)

	plan, err := CompileString("SELECT url, SUM(measure) FROM logs GROUP BY url", schema)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Query.Dataset != "logs" {
		t.Fatalf("dataset = %q", plan.Query.Dataset)
	}
	res, err := c.Run(context.Background(), engine.JobConfig{Query: plan.Query})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, kv := range res.Output() {
		got[kv.Key] = kv.Val
	}
	if got["u1"] != 10 || got["u2"] != 7 {
		t.Fatalf("output = %v", got)
	}
}

func TestCompileWhereFilters(t *testing.T) {
	schema := olap.MustSchema("url", "country", "hour")
	c := mkCluster(t)
	rows := []struct {
		url, cty, hr string
		v            float64
	}{
		{"u1", "US", "00", 1},
		{"u1", "JP", "00", 2},
		{"u2", "US", "05", 4},
	}
	for _, r := range rows {
		c.Data[0].Add("logs", engine.KV{Key: workload.JoinKey([]string{r.url, r.cty, r.hr}), Val: r.v})
	}
	plan, err := CompileString("SELECT country, SUM(measure) FROM logs WHERE country = 'US' GROUP BY country", schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), engine.JobConfig{Query: plan.Query})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output()) != 1 || res.Output()[0].Val != 5 {
		t.Fatalf("filtered output = %+v", res.Output())
	}
}

func TestCompileNumericComparison(t *testing.T) {
	schema := olap.MustSchema("url", "score")
	c := mkCluster(t)
	for i, score := range []string{"1", "5", "10", "30"} {
		c.Data[0].Add("logs", engine.KV{
			Key: workload.JoinKey([]string{"u", score}), Val: float64(i)},
		)
	}
	// Numeric: 5 < 10 < 30 even though "30" < "5" lexically.
	plan, err := CompileString("SELECT COUNT(*) FROM logs WHERE score >= 10", schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), engine.JobConfig{Query: plan.Query})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output()) != 1 || res.Output()[0].Val != 2 {
		t.Fatalf("numeric filter output = %+v", res.Output())
	}
	if res.Output()[0].Key != "<all>" {
		t.Fatalf("ungrouped aggregate key = %q", res.Output()[0].Key)
	}
}

func TestCompileAggregateOps(t *testing.T) {
	schema := olap.MustSchema("k")
	c := mkCluster(t)
	for _, v := range []float64{3, 9, 5} {
		c.Data[0].Add("d", engine.KV{Key: "k1", Val: v})
	}
	cases := []struct {
		q    string
		want float64
	}{
		{"SELECT MAX(measure) FROM d GROUP BY k", 9},
		{"SELECT MIN(measure) FROM d GROUP BY k", 3},
		{"SELECT SUM(measure) FROM d GROUP BY k", 17},
		{"SELECT COUNT(*) FROM d GROUP BY k", 3},
	}
	for _, tc := range cases {
		plan, err := CompileString(tc.q, schema)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		res, err := c.Run(context.Background(), engine.JobConfig{Query: plan.Query})
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if math.Abs(res.Output()[0].Val-tc.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", tc.q, res.Output()[0].Val, tc.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	schema := olap.MustSchema("a", "b")
	// Each statement with what its message must name.
	bad := map[string]string{
		"SELECT zzz FROM t GROUP BY zzz":              "zzz",
		"SELECT SUM(measure) FROM t WHERE nope = 'x'": "nope",
		// The engine carries one measure: a second aggregate would be
		// dropped, an argument other than the measure never resolved.
		"SELECT a, SUM(measure), COUNT(*) FROM t GROUP BY a": "COUNT(*)",
		"SELECT MAX(nosuch) FROM t":                          "MAX(nosuch)",
		"SELECT COUNT(a) FROM t":                             "COUNT(a)",
		"SELECT SUM(measure) FROM t GROUP BY a, a":           `"a"`,
		"SELECT b, b FROM t":                                 `"b"`,
		"SELECT SUM(measure) FROM t WHERE a < 1.2.3":         "1.2.3",
	}
	for q, names := range bad {
		if _, err := CompileString(q, schema); err == nil || !strings.Contains(err.Error(), names) {
			t.Errorf("CompileString(%q) = %v, want an error naming %s", q, err, names)
		}
	}
	for _, q := range []string{"SELECT COUNT(measure) FROM t", "SELECT a, b, MIN(measure) FROM t GROUP BY b, a"} {
		if _, err := CompileString(q, schema); err != nil {
			t.Errorf("CompileString(%q): %v", q, err)
		}
	}
	if _, err := Compile(nil, schema); err == nil {
		t.Error("nil statement should error")
	}
	if _, err := CompileString("not sql at all", schema); err == nil {
		t.Error("garbage should error")
	}
}

func TestCompileQueryTypeMatchesDims(t *testing.T) {
	schema := olap.MustSchema("a", "b", "c")
	plan, err := CompileString("SELECT b, a, SUM(measure) FROM t GROUP BY b, a", schema)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Query.QueryType != string(olap.QueryTypeFor([]string{"a", "b"})) {
		t.Fatalf("query type = %q", plan.Query.QueryType)
	}
	if !strings.HasPrefix(plan.Query.Name, "sql:") {
		t.Fatalf("name = %q", plan.Query.Name)
	}
}

func TestParseOrderByLimit(t *testing.T) {
	stmt, err := Parse("SELECT url, SUM(measure) FROM logs GROUP BY url ORDER BY value DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.OrderBy != "value" || !stmt.Desc || stmt.Limit != 5 {
		t.Fatalf("order/limit = %q/%v/%d", stmt.OrderBy, stmt.Desc, stmt.Limit)
	}
	stmt, err = Parse("SELECT url FROM logs ORDER BY key ASC")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.OrderBy != "key" || stmt.Desc {
		t.Fatalf("order = %q/%v", stmt.OrderBy, stmt.Desc)
	}
	bad := []string{
		"SELECT url FROM logs ORDER url",
		"SELECT url FROM logs ORDER BY bogus",
		"SELECT url FROM logs LIMIT x",
		"SELECT url FROM logs LIMIT -3",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should error", q)
		}
	}
}

func TestPostProcess(t *testing.T) {
	schema := olap.MustSchema("k")
	plan, err := CompileString("SELECT k, SUM(measure) FROM d GROUP BY k ORDER BY value DESC LIMIT 2", schema)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.PostProcess([]engine.KV{{Key: "a", Val: 3}, {Key: "b", Val: 9}, {Key: "c", Val: 5}})
	if len(out) != 2 || out[0].Key != "b" || out[1].Key != "c" {
		t.Fatalf("post-processed = %+v", out)
	}
	// Key descending.
	plan2, _ := CompileString("SELECT k, SUM(measure) FROM d GROUP BY k ORDER BY key DESC", schema)
	out = plan2.PostProcess([]engine.KV{{Key: "a", Val: 1}, {Key: "b", Val: 2}})
	if out[0].Key != "b" {
		t.Fatalf("key desc = %+v", out)
	}
	// No order/limit: pass-through copy.
	plan3, _ := CompileString("SELECT k, SUM(measure) FROM d GROUP BY k", schema)
	in := []engine.KV{{Key: "z", Val: 1}, {Key: "a", Val: 2}}
	out = plan3.PostProcess(in)
	if len(out) != 2 || out[0].Key != "z" {
		t.Fatalf("pass-through = %+v", out)
	}
	out[0].Key = "mutated"
	if in[0].Key != "z" {
		t.Fatal("PostProcess must not alias the input")
	}
}

// TestPostProcessMatchesStableSort holds PostProcess — the bounded heap
// under a LIMIT, the stable sort otherwise — to the copy, stable sort and
// cut it stands for: over rows heavy with tied keys and values, ±0, ±Inf and
// (in a third of them) NaN, by value and by key, each way, without a LIMIT
// and at LIMIT 1, rows−1, rows and rows+1, every row equal to the
// reference's, value bits included, and none shared with the input.
func TestPostProcessMatchesStableSort(t *testing.T) {
	schema := olap.MustSchema("k")
	rng := rand.New(rand.NewSource(46))
	vals := []float64{-1, 0, math.Copysign(0, -1), 2, 2, 3.5, math.Inf(1), math.Inf(-1)}
	cases := 0
	for c := range 150 {
		rows := make([]engine.KV, rng.Intn(40))
		for i := range rows {
			rows[i] = engine.KV{Key: fmt.Sprintf("k%d", rng.Intn(8)), Val: vals[rng.Intn(len(vals))]}
			if c%3 == 0 && rng.Intn(6) == 0 {
				rows[i].Val = math.NaN()
			}
		}
		in := slices.Clone(rows)
		for _, by := range []string{"value", "key"} {
			for _, desc := range []bool{false, true} {
				for _, limit := range []int{0, 1, len(rows) - 1, len(rows), len(rows) + 1} {
					text := "SELECT k, SUM(measure) FROM d GROUP BY k ORDER BY " + by
					if desc {
						text += " DESC"
					}
					if limit > 0 {
						text += fmt.Sprintf(" LIMIT %d", limit)
					}
					plan, err := CompileString(text, schema)
					if err != nil {
						t.Fatal(err)
					}
					want := slices.Clone(rows)
					slices.SortStableFunc(want, func(a, b engine.KV) int {
						if desc {
							a, b = b, a
						}
						switch {
						case by == "key":
							return strings.Compare(a.Key, b.Key)
						case a.Val < b.Val:
							return -1
						case b.Val < a.Val:
							return 1
						}
						return 0
					})
					if limit > 0 && limit < len(want) {
						want = want[:limit]
					}
					got := plan.PostProcess(rows)
					if len(got) != len(want) {
						t.Fatalf("%s over %v: %d rows, want %d", text, rows, len(got), len(want))
					}
					for i := range got {
						if got[i].Key != want[i].Key || math.Float64bits(got[i].Val) != math.Float64bits(want[i].Val) {
							t.Fatalf("%s over %v: row %d = %v, want %v", text, rows, i, got[i], want[i])
						}
						got[i] = engine.KV{Key: "written"}
					}
					for i := range rows {
						if rows[i].Key != in[i].Key || math.Float64bits(rows[i].Val) != math.Float64bits(in[i].Val) {
							t.Fatalf("%s: writing the result wrote input row %d", text, i)
						}
					}
					cases++
				}
			}
		}
	}
	if cases < 500 {
		t.Fatalf("%d cases", cases)
	}
}
