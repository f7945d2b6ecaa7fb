package similarity

import (
	"fmt"

	"bohr/internal/engine"
	"bohr/internal/parallel"
)

// ProbeRecord is one representative record inside a probe: a cell of the
// sender's dimension cube — its projected key — plus how many raw records
// that cell clusters.
type ProbeRecord = engine.Cell

// Probe carries representative records of one query type's dimension cube
// from the bottleneck site to other sites (§4.2). Probes are deliberately
// tiny compared to the dataset.
type Probe struct {
	Dataset    string
	View       engine.View // the view the records' keys are projected in
	Records    []ProbeRecord
	TotalCount int // total raw records in the sender's dimension cube
}

// ProbeShare is one query type's share of a dataset's probe budget of k
// records (§4.2: "we choose k records in total for all query types, by
// considering the relative weight of each query type"): k weighted by the
// type's queries over the dataset's total, rounded, and at least one. A
// dataset without queries gives the whole budget.
func ProbeShare(k, queries, total int) int {
	share := k
	if total > 0 {
		share = int(float64(k)*float64(queries)/float64(total) + 0.5)
	}
	return max(share, 1)
}

// BuildProbe selects the top-k cells of a site's dimension cube by cluster
// size — the paper's "top-k records according to the record cluster size".
func BuildProbe(dataset string, cube engine.CellCounts, k int) (Probe, error) {
	if k <= 0 {
		return Probe{}, fmt.Errorf("similarity: probe needs k > 0, got %d", k)
	}
	return Probe{
		Dataset:    dataset,
		View:       cube.View(),
		Records:    cube.Top(k),
		TotalCount: cube.Total(),
	}, nil
}

// Score is the receiving site's similarity check (§4.2): the fraction of
// the SENDER's records that provably combine at this site — the mass of
// probe records with a matching local cell, over the sender's total record
// count. A probe can only vouch for the mass it carries, so unprobed mass
// counts as dissimilar; larger probes (bigger k) therefore surface more of
// the true similarity, which is exactly the accuracy-versus-k trade-off
// Figures 12/13 of the paper measure. The result is in [0, 1].
func Score(p Probe, local engine.CellCounts) (float64, error) {
	if len(p.Records) == 0 {
		return 0, nil // nothing to match: no evidence of similarity
	}
	if p.View != local.View() {
		return 0, fmt.Errorf("similarity: probe %q in %v scored against cells in %v",
			p.Dataset, p.View, local.View())
	}
	if p.TotalCount <= 0 {
		return 0, nil
	}
	var matched float64
	for _, r := range p.Records {
		if local.Count(r.Key) > 0 {
			matched += float64(r.Count)
		}
	}
	return matched / float64(p.TotalCount), nil
}

// SelfSimilarity is S_i of the paper's Table 1: the combiner-reduction
// fraction of a site's own data for one query type. With n raw records
// collapsing into c distinct cells the combiner removes (n-c)/n of the
// intermediate records.
func SelfSimilarity(cube engine.CellCounts) float64 {
	n := cube.Total()
	if n == 0 {
		return 0
	}
	return 1 - float64(cube.Distinct())/float64(n)
}

// CrossSiteMatrix computes the pairwise similarity S_{i,j} for one dataset
// and query type given each site's dimension cube: entry (i, j) is the
// score of site i's probe against site j's cube. The diagonal holds each
// site's self-similarity S_i.
//
// Probe construction and per-row scoring fan out over the worker pool —
// both only read the cubes, which nothing writes meanwhile, and each
// matrix entry is computed independently, so the result is identical at
// every pool width.
func CrossSiteMatrix(dataset string, cubes []engine.CellCounts, k int) ([][]float64, error) {
	n := len(cubes)
	probes, err := parallel.MapOrdered(0, n, func(i int) (Probe, error) {
		return BuildProbe(dataset, cubes[i], k)
	})
	if err != nil {
		return nil, err
	}
	return parallel.MapOrdered(0, n, func(i int) ([]float64, error) {
		row := make([]float64, n)
		for j := range cubes {
			if i == j {
				row[j] = SelfSimilarity(cubes[i])
				continue
			}
			s, err := Score(probes[i], cubes[j])
			if err != nil {
				return nil, err
			}
			row[j] = s
		}
		return row, nil
	})
}
