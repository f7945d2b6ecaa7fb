package experiments

import (
	"context"
	"fmt"
	"time"

	"bohr/internal/core"
	"bohr/internal/engine"
	"bohr/internal/olap"
	"bohr/internal/placement"
	"bohr/internal/rdd"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// Table2Row is one sample dataset of Table 2: its dimensionality, size,
// probe allocation and similarity checking time.
type Table2Row struct {
	DatasetID     int
	NumDims       int
	SizeGB        float64
	ProbeRecords  int
	CheckTimeSecs float64
}

// table2Profiles mirrors the paper's four sample datasets: ids 1/3/7/10
// with 15/42/13/8 dimensions and 0.87/4.32/3.21/0.57 GB. Sizes scale to
// row counts; the probe budget splits across the datasets "mainly based
// on the dataset size" with a total of ProbeK records.
var table2Profiles = []struct {
	id   int
	dims int
	gb   float64
}{
	{1, 15, 0.87},
	{3, 42, 4.32},
	{7, 13, 3.21},
	{10, 8, 0.57},
}

// Table2 reproduces the dataset-attributes table: it generates four
// synthetic datasets with the paper's dimensionalities and size ratios,
// allocates the probe budget by size, and reports modeled checking times.
func Table2(s Setup) ([]Table2Row, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	var totalGB float64
	for _, p := range table2Profiles {
		totalGB += p.gb
	}
	rng := stats.NewRand(stats.Split(s.Seed, 2))
	var rows []Table2Row
	for _, p := range table2Profiles {
		// Rows proportional to size.
		n := int(float64(s.RowsPerSite*s.Sites) * p.gb / totalGB)
		if n < 10 {
			n = 10
		}
		// Wide schema with the paper's dimensionality.
		dims := make([]string, p.dims)
		for d := range dims {
			dims[d] = fmt.Sprintf("d%02d", d)
		}
		cubeRows := make([]olap.Row, n)
		for r := range cubeRows {
			coords := make([]string, p.dims)
			for d := range coords {
				coords[d] = fmt.Sprintf("v%d", rng.Intn(50))
			}
			cubeRows[r] = olap.Row{Coords: coords, Measure: 1}
		}
		cube, err := olap.BuildCube(olap.MustSchema(dims...), cubeRows, 0)
		if err != nil {
			return nil, err
		}
		// Probe allocation by size (total = ProbeK across the datasets).
		probeRecords := int(float64(s.ProbeK)*p.gb/totalGB + 0.5)
		if probeRecords < 1 {
			probeRecords = 1
		}
		// Modeled checking time: the same cell-sort + probe-score model
		// the planner uses, scaled by the full dimensionality.
		check := float64(cube.NumCells())*float64(p.dims)*1.0e-6 +
			float64(probeRecords*(s.Sites-1))*float64(p.dims)*1.1e-3
		rows = append(rows, Table2Row{
			DatasetID:     p.id,
			NumDims:       p.dims,
			SizeGB:        p.gb,
			ProbeRecords:  probeRecords,
			CheckTimeSecs: check,
		})
	}
	return rows, nil
}

// Table3Row is one probe-size point of Table 3.
type Table3Row struct {
	K             int
	CheckTimeSecs float64
}

// Table3 reproduces similarity checking time in pre-processing as the
// probe size k varies, on the big data workload.
func Table3(s Setup) ([]Table3Row, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	c, w, err := s.Populated(workload.BigDataScan, false, 0)
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, k := range ProbeKValues {
		sts, err := placement.ComputeAllStats(c, w, k)
		if err != nil {
			return nil, err
		}
		var total float64
		for _, st := range sts {
			total += st.CheckTime
		}
		rows = append(rows, Table3Row{K: k, CheckTimeSecs: total})
	}
	return rows, nil
}

// Table4Row is one executor count of Table 4.
type Table4Row struct {
	Executors    int
	RDDCheckSecs float64
	QCTSecs      float64
}

// Table4Executors is the x-axis of Table 4.
var Table4Executors = []int{2, 4, 6, 8}

// Table4 reproduces the RDD-similarity overhead analysis: checking time
// and QCT versus executors per node, on the TPC-DS workload with the
// default probe budget.
func Table4(s Setup) ([]Table4Row, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	var rows []Table4Row
	for _, execs := range Table4Executors {
		se := s
		se.ExecutorsPerMachine = execs
		snap, err := se.snapshot(workload.TPCDS, false, 0)
		if err != nil {
			return nil, err
		}
		c := snap.cluster.Clone()
		sys, err := core.New(c, snap.workload, placement.Bohr, se.PlacementOptions(0))
		if err != nil {
			return nil, err
		}
		if _, err := sys.Prepare(context.Background()); err != nil {
			return nil, err
		}
		rep, err := sys.RunAll(context.Background())
		if err != nil {
			return nil, err
		}
		// RDD checking overhead: re-run the assigner on the realized
		// partitions of the busiest site to report the per-query cost.
		overhead := rddOverhead(c, snap.workload, execs, se.Seed)
		rows = append(rows, Table4Row{
			Executors:    execs,
			RDDCheckSecs: overhead,
			QCTSecs:      rep.MeanQCT,
		})
	}
	return rows, nil
}

// rddOverhead measures the modeled DIMSUM checking time on the largest
// site's partitions for the first dataset.
func rddOverhead(c *engine.Cluster, w *workload.Workload, execs int, seed int64) float64 {
	name := w.Datasets[0].Name
	largest := 0
	for i := 1; i < c.N(); i++ {
		if c.Data[i].Store(name).Len() > c.Data[largest].Store(name).Len() {
			largest = i
		}
	}
	parts, err := engine.PartitionRecords(c.Data[largest].Records(name), execs*4)
	if err != nil || len(parts) == 0 {
		return 0
	}
	cfg := rdd.DefaultDimsum()
	cfg.Seed = seed
	mat, err := rdd.PairwiseSimilarity(parts, cfg)
	if err != nil {
		return 0
	}
	return mat.Overhead
}

// Table5Row is one workload of Table 5.
type Table5Row struct {
	Workload string
	// LPSecs is the modeled solve time (pivot-count based, included in
	// QCT); WallSecs is the actual wall-clock solve time on this machine.
	LPSecs   float64
	WallSecs float64
}

// Table5 reproduces LP solving time for the joint data/task placement on
// each workload.
func Table5(s Setup) ([]Table5Row, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	var rows []Table5Row
	for _, kind := range workload.Kinds() {
		c, w, err := s.Populated(kind, false, 0)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		plan, err := placement.PlanScheme(placement.BohrJoint, c, w, s.PlacementOptions(0))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			Workload: kind.String(),
			LPSecs:   plan.LPTime,
			WallSecs: time.Since(start).Seconds(),
		})
	}
	return rows, nil
}

// Table6Row is one scheme of Table 6 (per-node storage, GB-scaled to the
// paper's 40 GB-per-node corpus).
type Table6Row struct {
	Scheme          string
	StoragePerNode  float64
	NeededByQueries float64
	OLAPCubes       float64
	SimilarityMeta  float64
}

// Table6 reproduces the per-node storage overhead comparison. Byte counts
// are measured on the scaled corpus and re-expressed in the paper's
// 40 GB-per-node units so the overhead *ratios* are directly comparable.
func Table6(s Setup) ([]Table6Row, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	_, w, err := s.Populated(workload.BigDataScan, false, 0)
	if err != nil {
		return nil, err
	}
	// Raw input bytes per node (scaled corpus), and the conversion that
	// re-expresses measured bytes in the paper's 40 GB-per-node units.
	rawPerNode := float64(s.Datasets*s.RowsPerSite) * s.BytesPerRecord
	toGB := func(bytes float64) float64 { return bytes * 40.0 / rawPerNode }

	// Cube + similarity metadata bytes per node, measured on real cubes:
	// each site's base cube plus one dimension cube per query type.
	var cubeBytes, metaBytes float64
	for _, ds := range w.Datasets {
		var per float64
		for i, rows := range ds.Rows {
			base, err := olap.BuildCube(ds.Schema, rows, 0)
			if err != nil {
				return nil, fmt.Errorf("table 6: dataset %q site %d: %w", ds.Name, i, err)
			}
			per += float64(base.StorageBytes())
			seen := map[olap.QueryTypeID]bool{}
			for _, q := range ds.Queries {
				if id := olap.QueryTypeFor(q.Dims); !seen[id] {
					seen[id] = true
					dc, err := base.DimensionCube(q.Dims...)
					if err != nil {
						return nil, fmt.Errorf("table 6: dataset %q site %d: %w", ds.Name, i, err)
					}
					per += float64(dc.StorageBytes())
				}
			}
		}
		cubeBytes += per / float64(s.Sites)
		// Similarity metadata: probes + per-site minhash signatures.
		metaBytes += float64(s.ProbeK*64) + float64(s.Sites*64*8)
	}
	// HDFS-style bookkeeping overhead on raw data (the paper's Iridium
	// stores 42.32 GB for 40 GB of input).
	const rawOverhead = 1.058
	// Working set during query execution: shuffle buffers for raw
	// schemes; OLAP-operation scratch for cube schemes.
	const queryScratch = 1.038
	const cubeScratch = 1.065

	iridiumRaw := toGB(rawPerNode * rawOverhead)
	cubesGB := toGB(cubeBytes)
	metaGB := toGB(metaBytes)
	return []Table6Row{
		{
			Scheme:          "Iridium",
			StoragePerNode:  iridiumRaw,
			NeededByQueries: toGB(rawPerNode * rawOverhead * queryScratch),
		},
		{
			Scheme:          "Iridium-C",
			StoragePerNode:  iridiumRaw + cubesGB,
			NeededByQueries: cubesGB * cubeScratch,
			OLAPCubes:       cubesGB,
		},
		{
			Scheme:          "Bohr",
			StoragePerNode:  iridiumRaw + cubesGB + metaGB,
			NeededByQueries: cubesGB*cubeScratch + metaGB,
			OLAPCubes:       cubesGB,
			SimilarityMeta:  metaGB,
		},
	}, nil
}

// Table7Row is one workload of Table 7: static vs dynamic QCT.
type Table7Row struct {
	Workload   string
	NormalQCT  float64
	DynamicQCT float64
}

// table7Kinds are the workloads Table 7 reports.
func table7Kinds() []workload.Kind {
	return []workload.Kind{workload.TPCDS, workload.Facebook, workload.BigDataScan}
}

// Table7 reproduces the highly-dynamic-dataset evaluation (§8.6): the mean
// QCT when all data is present up front versus when data arrives in 5%
// batches between queries with periodic re-planning.
func Table7(s Setup) ([]Table7Row, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	var rows []Table7Row
	for _, kind := range table7Kinds() {
		snap, err := s.snapshot(kind, false, 0)
		if err != nil {
			return nil, err
		}
		// Normal: everything up front.
		res, err := s.runScheme(placement.Bohr, snap, 0)
		if err != nil {
			return nil, err
		}

		// Dynamic: 25% initial + 5% batches, replan every 5 batches. The
		// final queries see the full corpus; their mean is the comparable
		// number (earlier arrivals run on less data by design).
		emptyC, err := s.BuildCluster()
		if err != nil {
			return nil, err
		}
		dyn := DefaultDynamicConfig()
		dyn.Queries = 16 // 0.25 + 15×0.05 = full corpus by the last query
		drep, err := RunDynamic(context.Background(), emptyC, snap.workload, placement.Bohr, dyn,
			s.PlacementOptions(0))
		if err != nil {
			return nil, err
		}
		// Compare on the full-data tail (last ReplanEvery arrivals).
		tail := drep.QCTs[len(drep.QCTs)-dyn.ReplanEvery:]
		rows = append(rows, Table7Row{
			Workload:   kind.String(),
			NormalQCT:  res.MeanQCT,
			DynamicQCT: stats.Mean(tail),
		})
	}
	return rows, nil
}
