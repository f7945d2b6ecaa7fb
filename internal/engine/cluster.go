package engine

import (
	"fmt"
	"slices"
	"sort"
	"sync"

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
	lineage        *lineage // shared with every clone (Planned)
}

// lineage holds, per dataset, the last value Planned built, and what from.
type lineage struct {
	mu      sync.Mutex
	planned map[string]*plannedEntry
}

type plannedEntry struct {
	key      any
	contents []*content // by site
	exec     []Executors
	bpr      float64
	derived
}

// Planned returns build() memoized on the cluster's lineage — shared with
// every clone, not with another NewCluster — for the dataset under key: one
// value per dataset, kept while every site's store of the dataset holds the
// content it was built from and the executors and record size are the same,
// and replaced by the build of a lookup that finds any of these changed.
// build must be a pure function of those and of what key names, and its
// value (or error) is never modified afterwards. Concurrent first lookups
// build once; hit is false for the caller that built.
func Planned[T any](c *Cluster, dataset string, key any, build func() (T, error)) (val T, hit bool, err error) {
	contents := make([]*content, len(c.Data))
	for i, sd := range c.Data {
		if st := sd.Store(dataset); st != nil {
			contents[i] = st.content
		}
	}
	l := c.lineage
	l.mu.Lock()
	e := l.planned[dataset]
	if e == nil || e.key != key || !slices.Equal(e.contents, contents) || !slices.Equal(e.exec, c.Exec) || e.bpr != c.BytesPerRecord {
		e = &plannedEntry{key: key, contents: contents, exec: slices.Clone(c.Exec), bpr: c.BytesPerRecord}
		if l.planned == nil {
			l.planned = map[string]*plannedEntry{}
		}
		l.planned[dataset] = e
	}
	l.mu.Unlock()
	hit = true
	e.once.Do(func() {
		hit = false
		e.val, e.err = build()
	})
	val, _ = e.val.(T)
	return val, hit, e.err
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
		lineage:        &lineage{},
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
// and executors are shared, each store's clone shares its source's
// records, content and cell index until either side writes (Store.clone),
// and the clone plans on its source's lineage (Planned).
func (c *Cluster) Clone() *Cluster {
	out := &Cluster{
		Top:            c.Top,
		Exec:           append([]Executors(nil), c.Exec...),
		Data:           make([]*SiteData, len(c.Data)),
		BytesPerRecord: c.BytesPerRecord,
		lineage:        c.lineage,
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
