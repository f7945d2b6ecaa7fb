// Package workload generates the three evaluation workloads of the paper
// (§8.1): the AMPLab big data benchmark (scan / UDF / aggregation over a
// rankings-style schema), a TPC-DS-flavoured retail star schema, and a
// Facebook-trace-flavoured job log with a heavy-tailed job mix. The
// generators synthesize geo-distributed datasets with controllable
// cross-site key overlap, so the similarity structure Bohr exploits is a
// tunable input rather than an accident of the generator.
package workload

import (
	"fmt"
	"strings"

	"bohr/internal/engine"
	"bohr/internal/olap"
	"bohr/internal/stats"
)

// Kind selects one of the paper's workloads.
type Kind int

// The five workload columns of Figures 6, 7 and 10.
const (
	BigDataScan Kind = iota
	BigDataUDF
	BigDataAggr
	TPCDS
	Facebook
)

func (k Kind) String() string {
	switch k {
	case BigDataScan:
		return "Big data (scan)"
	case BigDataUDF:
		return "Big data (UDF)"
	case BigDataAggr:
		return "Big data (aggr)"
	case TPCDS:
		return "TPC-DS"
	case Facebook:
		return "Facebook"
	}
	return "unknown"
}

// Kinds lists all workloads in the paper's figure order.
func Kinds() []Kind {
	return []Kind{BigDataScan, BigDataUDF, BigDataAggr, TPCDS, Facebook}
}

// Config parameterizes generation. The paper uses 400 GB per workload
// split 40 GB per site over ten sites and 300 datasets; the reproduction
// scales record counts down while keeping every ratio (per-site split,
// query-per-dataset distribution, overlap structure).
type Config struct {
	// Sites is the number of DCs.
	Sites int
	// Datasets is the number of distinct datasets (paper: 300).
	Datasets int
	// RowsPerSite is the number of raw rows initially placed at each site
	// per dataset.
	RowsPerSite int
	// Overlap in [0,1] is the fraction of rows drawn from the globally
	// shared key pool (cross-site similarity); the rest come from
	// site-local pools.
	Overlap float64
	// KeySkew is the Zipf exponent of key popularity (>1).
	KeySkew float64
	// KeysPerPool is the number of distinct keys in each pool.
	KeysPerPool int
	// LocalityAware places rows at their keys' home sites (the paper's
	// "locality aware" initial placement); false scatters uniformly.
	LocalityAware bool
	// AffinityGroups partitions sites into this many groups that share a
	// group key pool in addition to the global one: sites in the same
	// group hold mutually similar data, so picking the RIGHT receiver
	// requires accurate similarity information — the discrimination
	// problem probes solve (§4.2). 0 disables grouping.
	AffinityGroups int
	// QueriesMin/QueriesMax bound the per-dataset query count, drawn
	// uniformly (paper: 2–10).
	QueriesMin, QueriesMax int
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns a laptop-scale configuration preserving the
// paper's ratios.
func DefaultConfig(kind Kind) Config {
	return Config{
		Sites:          10,
		Datasets:       20,
		RowsPerSite:    2000,
		Overlap:        0.5,
		KeySkew:        1.3,
		KeysPerPool:    400,
		QueriesMin:     2,
		QueriesMax:     10,
		AffinityGroups: 3,
		Seed:           int64(kind)*1000 + 1,
	}
}

func (c Config) validate() error {
	if c.Sites <= 0 || c.Datasets <= 0 || c.RowsPerSite <= 0 {
		return fmt.Errorf("workload: sites/datasets/rows must be positive, got %d/%d/%d",
			c.Sites, c.Datasets, c.RowsPerSite)
	}
	if c.Overlap < 0 || c.Overlap > 1 {
		return fmt.Errorf("workload: overlap %v out of [0,1]", c.Overlap)
	}
	if c.KeysPerPool <= 0 {
		return fmt.Errorf("workload: keys per pool must be positive, got %d", c.KeysPerPool)
	}
	if c.QueriesMin <= 0 || c.QueriesMax < c.QueriesMin {
		return fmt.Errorf("workload: bad query count range [%d,%d]", c.QueriesMin, c.QueriesMax)
	}
	if c.AffinityGroups < 0 {
		return fmt.Errorf("workload: negative affinity groups %d", c.AffinityGroups)
	}
	return nil
}

// QuerySpec is one recurring query of a dataset, carrying both the engine
// query and the attribute set (query type) it accesses.
type QuerySpec struct {
	Query engine.Query
	// Dims are the schema attributes the query combines on and all it
	// reads (§4.1): records that agree on Dims emit the same keys, which
	// the planner's volume counts rely on (TestQueriesReadOnlyTheirDims).
	Dims []string
	// View projects a stored key onto Dims.
	View engine.View
	// Count is how many recurring queries of this type the dataset sees;
	// probe budget weights derive from it (§4.2).
	Count int
}

// Dataset is one generated geo-distributed dataset: per-site raw rows over
// a schema, plus its recurring queries.
type Dataset struct {
	Name   string
	Schema *olap.Schema
	// Rows[i] holds the raw rows initially placed at site i.
	Rows [][]olap.Row
	// Queries are the recurring query types over this dataset.
	Queries []QuerySpec
}

// TotalQueries sums query counts across types.
func (d *Dataset) TotalQueries() int {
	n := 0
	for _, q := range d.Queries {
		n += q.Count
	}
	return n
}

// Weights returns per-query-type probe weights: the fraction of the
// dataset's queries belonging to each type (§4.2).
func (d *Dataset) Weights() []float64 {
	total := d.TotalQueries()
	out := make([]float64, len(d.Queries))
	if total == 0 {
		return out
	}
	for i, q := range d.Queries {
		out[i] = float64(q.Count) / float64(total)
	}
	return out
}

// Workload is a full generated workload: many datasets plus the kind that
// produced it.
type Workload struct {
	Kind     Kind
	Config   Config
	Datasets []*Dataset
}

// JoinKey builds the engine record key from row coordinates.
func JoinKey(coords []string) string { return strings.Join(coords, engine.KeySep) }

// SplitKey recovers coordinates from an engine key. The query path projects
// keys in place (engine.View); SplitKey is the allocating reference the
// tests and benchmark oracles compare against.
func SplitKey(key string) []string { return strings.Split(key, engine.KeySep) }

// ViewOf resolves dims against the schema: the View projecting the schema's
// keys onto them, in that order.
func ViewOf(schema *olap.Schema, dims []string) (engine.View, error) {
	keep := make([]int, len(dims))
	for i, d := range dims {
		if keep[i] = schema.Index(d); keep[i] < 0 {
			return engine.View{}, fmt.Errorf("workload: unknown dimension %q", d)
		}
	}
	return engine.NewView(schema.NumDims(), keep...), nil
}

// Generate builds a workload of the given kind.
func Generate(kind Kind, cfg Config) (*Workload, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w := &Workload{Kind: kind, Config: cfg}
	for a := 0; a < cfg.Datasets; a++ {
		seed := stats.Split(cfg.Seed, int64(a))
		var (
			ds  *Dataset
			err error
		)
		switch kind {
		case BigDataScan, BigDataUDF, BigDataAggr:
			ds, err = generateAMPLab(kind, cfg, a, seed)
		case TPCDS:
			ds, err = generateTPCDS(cfg, a, seed)
		case Facebook:
			ds, err = generateFacebook(cfg, a, seed)
		default:
			err = fmt.Errorf("workload: unknown kind %d", kind)
		}
		if err != nil {
			return nil, err
		}
		w.Datasets = append(w.Datasets, ds)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// Validate checks the names a workload is addressed by: dataset names are
// unique, and so are query names within a dataset — a site keeps one store
// per dataset name, and reports name a query by its name (a map function
// cannot be compared).
func (w *Workload) Validate() error {
	datasets := make(map[string]bool, len(w.Datasets))
	for _, ds := range w.Datasets {
		if datasets[ds.Name] {
			return fmt.Errorf("workload: duplicate dataset name %q", ds.Name)
		}
		datasets[ds.Name] = true
		queries := make(map[string]bool, len(ds.Queries))
		for _, q := range ds.Queries {
			if queries[q.Query.Name] {
				return fmt.Errorf("workload: dataset %q has two queries named %q", ds.Name, q.Query.Name)
			}
			queries[q.Query.Name] = true
		}
	}
	return nil
}

// Populate loads every dataset's rows into the cluster as engine records
// (full-coordinate keys, measure as value), the records Records makes. The
// cluster must have at least cfg.Sites sites. A generated dataset's rows
// share their pool tuple's Coords slice (rowSource), so each tuple's key is
// joined once, interned by the slice's identity: rows whose Coords share
// no array only cost a join each.
func (w *Workload) Populate(c *engine.Cluster) error {
	if c.N() < w.Config.Sites {
		return fmt.Errorf("workload: cluster has %d sites, workload needs %d", c.N(), w.Config.Sites)
	}
	type tuple struct {
		first *string
		n     int
	}
	keys := make(map[tuple]string)
	var recs []engine.KV // Add copies it, so every site reuses it
	for _, ds := range w.Datasets {
		clear(keys) // a pool's tuples belong to one dataset
		for i, rows := range ds.Rows {
			recs = recs[:0]
			for _, row := range rows {
				key := ""
				if len(row.Coords) > 0 {
					id := tuple{&row.Coords[0], len(row.Coords)}
					var ok bool
					if key, ok = keys[id]; !ok {
						key = JoinKey(row.Coords)
						keys[id] = key
					}
				}
				recs = append(recs, engine.KV{Key: key, Val: row.Measure})
			}
			c.Data[i].Add(ds.Name, recs...)
		}
	}
	return nil
}

// Records converts rows to engine records: full-coordinate keys, measure
// as value.
func Records(rows []olap.Row) []engine.KV {
	recs := make([]engine.KV, len(rows))
	for r, row := range rows {
		recs[r] = engine.KV{Key: JoinKey(row.Coords), Val: row.Measure}
	}
	return recs
}

// DominantQuery returns the query type with the largest Count — the view
// data movement optimizes for when a single projection must be chosen.
func (d *Dataset) DominantQuery() QuerySpec {
	best := d.Queries[0]
	for _, q := range d.Queries[1:] {
		if q.Count > best.Count {
			best = q
		}
	}
	return best
}
