package workload

import (
	"fmt"

	"bohr/internal/olap"
	"bohr/internal/similarity"
	"bohr/internal/stats"
)

// ImageDataset models the paper's second data type (§4.1): image-like
// records that cannot be aggregated directly and are first turned into
// feature vectors with a vector space model, then hashed with LSH so
// similarity checking stays cheap. The reproduction synthesizes feature
// vectors directly (there is no real image corpus offline); each "image"
// belongs to a latent class, and images of a class share a class centroid
// plus noise — the structure VSM extraction produces on real photos.
type ImageDataset struct {
	Name string
	// Vectors[i] holds the feature vectors stored at site i.
	Vectors [][][]float64
	// Classes[i][v] is the latent class of Vectors[i][v].
	Classes [][]int
	Dim     int
}

// ImageConfig parameterizes image synthesis.
type ImageConfig struct {
	Sites         int
	VectorsPerSit int
	Dim           int
	Classes       int
	// Overlap is the fraction of vectors drawn from globally shared
	// classes rather than site-local ones.
	Overlap float64
	Noise   float64
	Seed    int64
}

// DefaultImageConfig mirrors the scale of the log workloads.
func DefaultImageConfig() ImageConfig {
	return ImageConfig{Sites: 10, VectorsPerSit: 500, Dim: 64, Classes: 40, Overlap: 0.5, Noise: 0.3, Seed: 7}
}

// GenerateImages synthesizes one image dataset.
func GenerateImages(name string, cfg ImageConfig) (*ImageDataset, error) {
	if cfg.Sites <= 0 || cfg.VectorsPerSit <= 0 || cfg.Dim <= 0 || cfg.Classes <= 0 {
		return nil, fmt.Errorf("workload: image config needs positive sizes: %+v", cfg)
	}
	if cfg.Overlap < 0 || cfg.Overlap > 1 {
		return nil, fmt.Errorf("workload: image overlap %v out of [0,1]", cfg.Overlap)
	}
	rng := stats.NewRand(cfg.Seed)
	// Class centroids: shared classes then per-site classes.
	nCentroids := cfg.Classes * (1 + cfg.Sites)
	centroids := make([][]float64, nCentroids)
	for c := range centroids {
		v := make([]float64, cfg.Dim)
		for d := range v {
			v[d] = rng.NormFloat64() * 2
		}
		centroids[c] = v
	}
	ds := &ImageDataset{Name: name, Dim: cfg.Dim}
	for site := 0; site < cfg.Sites; site++ {
		var vecs [][]float64
		var classes []int
		for i := 0; i < cfg.VectorsPerSit; i++ {
			var class int
			if rng.Float64() < cfg.Overlap {
				class = rng.Intn(cfg.Classes) // shared class block
			} else {
				class = cfg.Classes*(1+site) + rng.Intn(cfg.Classes)
			}
			v := make([]float64, cfg.Dim)
			for d := range v {
				v[d] = centroids[class][d] + rng.NormFloat64()*cfg.Noise
			}
			vecs = append(vecs, v)
			classes = append(classes, class)
		}
		ds.Vectors = append(ds.Vectors, vecs)
		ds.Classes = append(ds.Classes, classes)
	}
	return ds, nil
}

// FeatureCube formats one site's image vectors into an OLAP cube via LSH
// (§4.2: locality-sensitive hashing reduces the dimensionality so the
// high-dimensional feature vectors can be probed efficiently): the cube's
// single dimension is the LSH bucket of each vector, so images hashing to
// the same bucket cluster in the same cell.
func (d *ImageDataset) FeatureCube(site int, lsh *similarity.LSH) (*olap.Cube, error) {
	if site < 0 || site >= len(d.Vectors) {
		return nil, fmt.Errorf("workload: site %d out of range", site)
	}
	rows := make([]olap.Row, len(d.Vectors[site]))
	for i, v := range d.Vectors[site] {
		sig, err := lsh.Sign(v)
		if err != nil {
			return nil, err
		}
		rows[i] = olap.Row{Coords: []string{fmt.Sprintf("%x", sig)}, Measure: 1}
	}
	return olap.BuildCube(olap.MustSchema("lshBucket"), rows, 0)
}
