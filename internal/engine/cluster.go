package engine

import (
	"fmt"
	"sort"

	"bohr/internal/wan"
)

// Executors describes the compute at one site: machines × executors per
// machine, the granularity §6's RDD similarity operates at.
type Executors struct {
	Machines   int
	PerMachine int
}

// Total returns the number of executors at the site.
func (e Executors) Total() int { return e.Machines * e.PerMachine }

// SiteData holds one site's stores, one per dataset stored there.
type SiteData struct {
	stores map[string]*Store
}

// newSiteData creates an empty site.
func newSiteData() *SiteData {
	return &SiteData{stores: make(map[string]*Store)}
}

// Store returns the dataset's store at this site, nil if the site has
// none (a nil *Store reads as empty, at version 0).
func (s *SiteData) Store(dataset string) *Store { return s.stores[dataset] }

// ensure returns the dataset's store, creating it when absent.
func (s *SiteData) ensure(dataset string) *Store {
	st := s.stores[dataset]
	if st == nil {
		st = &Store{}
		s.stores[dataset] = st
	}
	return st
}

// Add appends records to a dataset at this site.
func (s *SiteData) Add(dataset string, records ...KV) {
	s.ensure(dataset).Add(records...)
}

// Restore replaces a dataset's records at this site wholesale; see
// Store.Restore.
func (s *SiteData) Restore(dataset string, records []KV) {
	s.ensure(dataset).Restore(records)
}

// Records returns the records of one dataset (nil if absent).
func (s *SiteData) Records(dataset string) []KV { return s.stores[dataset].Records() }

// Cluster is the geo-distributed deployment: the WAN topology, per-site
// executors, per-site data, and the record-size constant that converts
// record counts to MB.
type Cluster struct {
	Top *wan.Topology
	// Exec[i] is the compute at site i.
	Exec []Executors
	// Data[i] is the data stored at site i.
	Data []*SiteData
	// BytesPerRecord converts record counts to wire bytes.
	BytesPerRecord float64
}

// NewCluster builds a cluster over a topology with uniform executors.
func NewCluster(top *wan.Topology, machines, executorsPerMachine int, bytesPerRecord float64) (*Cluster, error) {
	if top == nil || top.N() == 0 {
		return nil, fmt.Errorf("engine: cluster needs a non-empty topology")
	}
	if machines <= 0 || executorsPerMachine <= 0 {
		return nil, fmt.Errorf("engine: cluster needs positive executors, got %d×%d", machines, executorsPerMachine)
	}
	if bytesPerRecord <= 0 {
		return nil, fmt.Errorf("engine: bytes per record must be positive, got %v", bytesPerRecord)
	}
	c := &Cluster{
		Top:            top,
		Exec:           make([]Executors, top.N()),
		Data:           make([]*SiteData, top.N()),
		BytesPerRecord: bytesPerRecord,
	}
	for i := range c.Exec {
		c.Exec[i] = Executors{Machines: machines, PerMachine: executorsPerMachine}
		c.Data[i] = newSiteData()
	}
	return c, nil
}

// N returns the number of sites.
func (c *Cluster) N() int { return c.Top.N() }

// MB converts a record count to megabytes under the cluster's record size.
func (c *Cluster) MB(records int) float64 {
	return float64(records) * c.BytesPerRecord / 1e6
}

// RecordsFor converts a megabyte amount to a record count (rounded down).
func (c *Cluster) RecordsFor(mb float64) int {
	if mb <= 0 {
		return 0
	}
	return int(mb * 1e6 / c.BytesPerRecord)
}

// InputMB returns the per-site input size of a dataset in MB.
func (c *Cluster) InputMB(dataset string) []float64 {
	out := make([]float64, c.N())
	for i, sd := range c.Data {
		out[i] = c.MB(sd.Store(dataset).Len())
	}
	return out
}

// Version returns the dataset's change counter: the sum of its per-site
// store versions, which rises on every mutation of any of them, in
// O(sites) and without allocating. ok is false when no site holds records
// of the dataset.
func (c *Cluster) Version(dataset string) (v uint64, ok bool) {
	for _, sd := range c.Data {
		st := sd.Store(dataset)
		v += st.Version()
		ok = ok || st.Len() > 0
	}
	return v, ok
}

// DatasetNames returns the union of dataset names across sites, sorted.
func (c *Cluster) DatasetNames() []string {
	seen := map[string]bool{}
	for _, sd := range c.Data {
		for name := range sd.stores {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Clone copies the cluster's data so a scheme can mutate placement without
// affecting other schemes run on the same inputs, in O(stores): topology
// and executors are shared, and each store's clone shares its source's
// records, content and cell index until either side writes (Store.clone).
func (c *Cluster) Clone() *Cluster {
	out := &Cluster{
		Top:            c.Top,
		Exec:           append([]Executors(nil), c.Exec...),
		Data:           make([]*SiteData, len(c.Data)),
		BytesPerRecord: c.BytesPerRecord,
	}
	for i, sd := range c.Data {
		nd := newSiteData()
		for name, st := range sd.stores {
			nd.stores[name] = st.clone()
		}
		out.Data[i] = nd
	}
	return out
}
