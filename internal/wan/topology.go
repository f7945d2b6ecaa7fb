// Package wan models the wide-area network substrate of the Bohr
// reproduction: a set of geo-distributed sites whose links to the Internet
// backbone are the only bottleneck (the paper's §5 assumption, validated by
// empirical measurements it cites).
//
// Two models time a transfer set, each under an optional fault schedule
// (LinkFaults). Estimate computes per-site aggregate transfer times
// exactly as the placement LP models them; the engine times the shuffle
// with it. Simulate runs a max-min fair fluid simulation of concurrent
// transfers; placement times a plan's data movement with it.
package wan

import "fmt"

// SiteID identifies a site (data center) within a Topology.
type SiteID int

// Site describes one data center and its access-link capacities in
// megabytes per second.
type Site struct {
	ID       SiteID
	Name     string
	UpMBps   float64 // uplink capacity to the backbone
	DownMBps float64 // downlink capacity from the backbone
}

// Topology is an ordered collection of sites. Site IDs are dense indices
// into the slice.
type Topology struct {
	Sites []Site
}

// NewTopology builds a topology from names and symmetric per-site
// capacities. len(names) must equal len(upMBps) and len(downMBps).
func NewTopology(names []string, upMBps, downMBps []float64) (*Topology, error) {
	if len(names) != len(upMBps) || len(names) != len(downMBps) {
		return nil, fmt.Errorf("wan: mismatched lengths: %d names, %d uplinks, %d downlinks",
			len(names), len(upMBps), len(downMBps))
	}
	t := &Topology{Sites: make([]Site, len(names))}
	for i, n := range names {
		if upMBps[i] <= 0 || downMBps[i] <= 0 {
			return nil, fmt.Errorf("wan: site %q has non-positive capacity", n)
		}
		t.Sites[i] = Site{ID: SiteID(i), Name: n, UpMBps: upMBps[i], DownMBps: downMBps[i]}
	}
	return t, nil
}

// N returns the number of sites.
func (t *Topology) N() int { return len(t.Sites) }

// Site returns the site with the given ID.
func (t *Topology) Site(id SiteID) Site { return t.Sites[id] }

// Uplinks returns the uplink capacities indexed by site ID.
func (t *Topology) Uplinks() []float64 {
	out := make([]float64, len(t.Sites))
	for i, s := range t.Sites {
		out[i] = s.UpMBps
	}
	return out
}

// Downlinks returns the downlink capacities indexed by site ID.
func (t *Topology) Downlinks() []float64 {
	out := make([]float64, len(t.Sites))
	for i, s := range t.Sites {
		out[i] = s.DownMBps
	}
	return out
}

// ByName returns the site with the given name.
func (t *Topology) ByName(name string) (Site, bool) {
	for _, s := range t.Sites {
		if s.Name == name {
			return s, true
		}
	}
	return Site{}, false
}

// EC2 region names used throughout the paper's evaluation (§8.1).
var EC2RegionNames = []string{
	"Singapore", "Tokyo", "Oregon", "Virginia", "Ohio",
	"Frankfurt", "Seoul", "Sydney", "London", "Ireland",
}

// EC2TenRegions reproduces the paper's measured bandwidth structure: the
// WAN bandwidth at Singapore, Tokyo and Oregon is about 2.5x larger than
// Virginia, Ohio and Frankfurt, and 5x larger than the remaining regions
// (§8.1). base is the capacity of the slowest tier in MB/s; uplink and
// downlink are symmetric as in the paper's description.
func EC2TenRegions(base float64) *Topology {
	if base <= 0 {
		base = 20
	}
	tier := map[string]float64{
		"Singapore": 5, "Tokyo": 5, "Oregon": 5,
		"Virginia": 2, "Ohio": 2, "Frankfurt": 2,
		"Seoul": 1, "Sydney": 1, "London": 1, "Ireland": 1,
	}
	up := make([]float64, len(EC2RegionNames))
	down := make([]float64, len(EC2RegionNames))
	for i, n := range EC2RegionNames {
		up[i] = base * tier[n]
		down[i] = base * tier[n]
	}
	t, err := NewTopology(EC2RegionNames, up, down)
	if err != nil {
		panic("wan: EC2TenRegions construction: " + err.Error())
	}
	return t
}
