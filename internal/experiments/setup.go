// Package experiments reproduces every table and figure of the paper's
// evaluation (§8): one function per exhibit, each returning the same rows
// or series the paper reports. The cmd/bohrbench binary and the root-level
// benchmarks are thin wrappers over these functions.
//
// Scale: the paper runs 400 GB per workload over ten EC2 regions with 300
// datasets. The reproduction scales record counts down (and the WAN
// bandwidth with them) so a full figure regenerates in seconds while every
// ratio the paper reports — who wins, by what factor, where curves
// saturate — is preserved. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"

	"bohr/internal/engine"
	"bohr/internal/faults"
	"bohr/internal/placement"
	"bohr/internal/stats"
	"bohr/internal/wan"
	"bohr/internal/workload"
)

// Setup fixes the scaled-down deployment every experiment runs on.
type Setup struct {
	// Sites is the number of DCs (the paper's ten EC2 regions).
	Sites int
	// Datasets per workload (paper: 300; scaled down).
	Datasets int
	// RowsPerSite per dataset (the paper's 40 GB/site, scaled).
	RowsPerSite int
	// KeysPerPool controls key-space size per similarity pool.
	KeysPerPool int
	// Overlap is the cross-site shared-key fraction.
	Overlap float64
	// BytesPerRecord converts records to wire bytes (wide log rows).
	BytesPerRecord float64
	// BaseMBps is the slowest bandwidth tier (others are 2.5x / 5x, §8.1).
	BaseMBps float64
	// Machines and ExecutorsPerMachine model each site's compute
	// (m4.4xlarge-class nodes).
	Machines, ExecutorsPerMachine int
	// ProbeK is the probe record budget (paper default: 30).
	ProbeK int
	// Lag is T, the recurring query interval in seconds.
	Lag float64
	// Runs averages each experiment over this many seeded repetitions
	// (paper: 5).
	Runs int
	// Seed drives everything.
	Seed int64
	// Faults optionally injects a deterministic fault schedule into every
	// run: degraded planning plus faulty modeled execution (nil = clean).
	Faults *faults.Schedule

	// sink collects machine-readable reports when EnableReports was
	// called; nil keeps experiments collector-free.
	sink *reportSink
}

// DefaultSetup is calibrated so QCTs land in the paper's 1–16 s range and
// a full figure regenerates in seconds.
func DefaultSetup() Setup {
	return Setup{
		Sites:               10,
		Datasets:            8,
		RowsPerSite:         2500,
		KeysPerPool:         400,
		Overlap:             0.5,
		BytesPerRecord:      10_000, // 10 KB wide rows
		BaseMBps:            3,
		Machines:            1,
		ExecutorsPerMachine: 4,
		ProbeK:              30,
		Lag:                 30,
		Runs:                3,
		Seed:                42,
	}
}

// QuickSetup is a smaller variant for unit tests.
func QuickSetup() Setup {
	s := DefaultSetup()
	s.Sites = 4
	s.Datasets = 3
	s.RowsPerSite = 500
	s.KeysPerPool = 100
	s.Runs = 1
	return s
}

func (s Setup) validate() error {
	if s.Sites <= 0 || s.Datasets <= 0 || s.RowsPerSite <= 0 {
		return fmt.Errorf("experiments: sites/datasets/rows must be positive")
	}
	if s.Runs <= 0 {
		return fmt.Errorf("experiments: runs must be positive")
	}
	return nil
}

// Topology builds the experiment WAN: the ten-region EC2 structure when
// Sites == 10, otherwise a tiered 1x/2.5x/5x topology.
func (s Setup) Topology() *wan.Topology {
	if s.Sites == 10 {
		return wan.EC2TenRegions(s.BaseMBps)
	}
	names := make([]string, s.Sites)
	up := make([]float64, s.Sites)
	down := make([]float64, s.Sites)
	for i := range names {
		names[i] = fmt.Sprintf("site-%d", i)
		tier := []float64{1, 2.5, 5}[i%3]
		up[i] = s.BaseMBps * tier
		down[i] = s.BaseMBps * tier
	}
	t, err := wan.NewTopology(names, up, down)
	if err != nil {
		panic("experiments: topology: " + err.Error())
	}
	return t
}

// workloadConfig converts the setup into a generator config for one kind.
func (s Setup) workloadConfig(kind workload.Kind, locality bool, run int) workload.Config {
	cfg := workload.DefaultConfig(kind)
	cfg.Sites = s.Sites
	cfg.Datasets = s.Datasets
	cfg.RowsPerSite = s.RowsPerSite
	cfg.KeysPerPool = s.KeysPerPool
	cfg.Overlap = s.Overlap
	cfg.LocalityAware = locality
	cfg.Seed = stats.Split(s.Seed, int64(kind)*100+int64(run))
	return cfg
}

// BuildCluster creates an empty cluster over the experiment topology.
func (s Setup) BuildCluster() (*engine.Cluster, error) {
	return engine.NewCluster(s.Topology(), s.Machines, s.ExecutorsPerMachine, s.BytesPerRecord)
}

// PlacementOptions builds the placement options for one run.
func (s Setup) PlacementOptions(run int) placement.Options {
	return placement.Options{
		Lag:    s.Lag,
		ProbeK: s.ProbeK,
		Seed:   stats.Split(s.Seed, int64(9000+run)),
		Faults: s.Faults,
	}
}

// Populated generates a workload and a populated cluster for one run.
func (s Setup) Populated(kind workload.Kind, locality bool, run int) (*engine.Cluster, *workload.Workload, error) {
	w, err := workload.Generate(kind, s.workloadConfig(kind, locality, run))
	if err != nil {
		return nil, nil, err
	}
	c, err := s.BuildCluster()
	if err != nil {
		return nil, nil, err
	}
	if err := w.Populate(c); err != nil {
		return nil, nil, err
	}
	return c, w, nil
}
