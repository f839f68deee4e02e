// Package netmodel generates the pairwise latency matrices used by the
// experiments. It provides the two network families from the paper's
// evaluation (§VI-A) — a homogeneous network with equal latencies and a
// heterogeneous, PlanetLab-like network — plus a few extra topologies
// used by ablation benches.
//
// The paper measured latencies between PlanetLab nodes via the iPlane
// dataset and completed missing pairs "by calculating minimal distances".
// That dataset is not redistributable, so PlanetLab here is a synthetic
// substitute: nodes are placed in geographic clusters (continents), base
// latency grows with distance, per-link lognormal jitter is applied, a
// fraction of direct measurements is dropped, and the matrix is completed
// by an all-pairs shortest-path (Floyd–Warshall) closure — the same
// post-processing step the authors applied. The resulting distribution
// has the same qualitative properties the experiments rely on: a wide
// heterogeneous spread (a few ms intra-cluster to hundreds of ms
// inter-continental) and rough metricity after closure.
package netmodel

import (
	"math"
	"math/rand"
)

// Homogeneous returns an m×m latency matrix with every off-diagonal entry
// equal to c — the paper's homogeneous setting (c_ij = 20).
func Homogeneous(m int, c float64) [][]float64 {
	lat := newMatrix(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				lat[i][j] = c
			}
		}
	}
	return lat
}

// Euclidean places m nodes uniformly at random in a square of side `side`
// (in "ms of latency") and sets c_ij to the Euclidean distance. The result
// is a symmetric metric matrix.
func Euclidean(m int, side float64, rng *rand.Rand) [][]float64 {
	xs := make([]float64, m)
	ys := make([]float64, m)
	for i := 0; i < m; i++ {
		xs[i] = side * rng.Float64()
		ys[i] = side * rng.Float64()
	}
	lat := newMatrix(m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
			lat[i][j] = d
			lat[j][i] = d
		}
	}
	return lat
}

// Clustered builds a metro/PoP-style block latency matrix for the
// large-m scale tier: servers are assigned to k metro clusters whose
// centers sit uniformly in a square of side `side` milliseconds; every
// pair of servers in the same metro sees the same small intra-metro
// latency, and every cross-metro pair sees one shared backbone delay
// (center distance plus the intra-metro hop) — so c_ij depends only on
// (cluster(i), cluster(j)), which is exactly the structure the sparse
// Frank–Wolfe LMO exploits. The block delays satisfy the triangle
// inequality because centers live in a metric space and each entry adds
// the same intra-metro offset. Returns the matrix and the per-server
// cluster labels.
func Clustered(m, k int, intra, side float64, rng *rand.Rand) ([][]float64, []int) {
	delay, cluster := ClusteredBlock(m, k, intra, side, rng)
	lat := newMatrix(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				lat[i][j] = delay[cluster[i]][cluster[j]]
			}
		}
	}
	return lat, cluster
}

// ClusteredBlock is Clustered without the O(m²) materialization: it
// returns the k×k block-delay table and the per-server metro labels —
// the exact representation model.BlockLatency stores. It consumes the
// RNG stream identically to Clustered (centers, then labels), so the
// two describe bit-identical networks for the same seed.
func ClusteredBlock(m, k int, intra, side float64, rng *rand.Rand) ([][]float64, []int) {
	if k < 1 {
		k = 1
	}
	cx := make([]float64, k)
	cy := make([]float64, k)
	for c := 0; c < k; c++ {
		cx[c] = side * rng.Float64()
		cy[c] = side * rng.Float64()
	}
	delay := make([][]float64, k)
	for g := range delay {
		delay[g] = make([]float64, k)
		for h := range delay[g] {
			if g == h {
				delay[g][h] = intra
			} else {
				delay[g][h] = intra + math.Hypot(cx[g]-cx[h], cy[g]-cy[h])
			}
		}
	}
	cluster := make([]int, m)
	for i := range cluster {
		cluster[i] = rng.Intn(k)
	}
	return delay, cluster
}

// Parameters of the synthetic PlanetLab generator, calibrated so that
// the latency distribution resembles published PlanetLab RTT statistics:
// median around 70–120 ms, intra-cluster links of 5–40 ms, heavy right
// tail up to a few hundred ms.
const (
	// plClusters is the number of geographic clusters ("continents").
	plClusters = 5
	// plIntraMean is the mean intra-cluster base latency in ms.
	plIntraMean = 15
	// plInterMean is the mean inter-cluster base latency per unit of
	// cluster-center distance, in ms.
	plInterMean = 80
	// plJitterSigma is the σ of the lognormal multiplicative jitter
	// applied to each link.
	plJitterSigma = 0.35
	// plDropFraction of direct measurements is removed before the metric
	// closure, mimicking the incomplete iPlane dataset.
	plDropFraction = 0.2
)

// PlanetLab generates a heterogeneous latency matrix as described in the
// package comment, using the provided RNG.
func PlanetLab(m int, rng *rand.Rand) [][]float64 {
	k := plClusters
	// Cluster centers on a circle so that inter-center distances vary.
	cx := make([]float64, k)
	cy := make([]float64, k)
	for c := 0; c < k; c++ {
		ang := 2 * math.Pi * float64(c) / float64(k)
		cx[c] = math.Cos(ang)
		cy[c] = math.Sin(ang)
	}
	cluster := make([]int, m)
	for i := 0; i < m; i++ {
		cluster[i] = rng.Intn(k)
	}
	lat := newMatrix(m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			var base float64
			if cluster[i] == cluster[j] {
				base = plIntraMean * (0.3 + 1.4*rng.Float64())
			} else {
				d := math.Hypot(cx[cluster[i]]-cx[cluster[j]], cy[cluster[i]]-cy[cluster[j]])
				base = plIntraMean + plInterMean*d*(0.7+0.6*rng.Float64())
			}
			// Lognormal multiplicative jitter, shared by both directions
			// (RTT-derived latencies are symmetric).
			jit := math.Exp(plJitterSigma * rng.NormFloat64())
			v := base * jit
			lat[i][j] = v
			lat[j][i] = v
		}
	}
	dropAndClose(lat, plDropFraction, rng)
	return lat
}

// dropAndClose removes a fraction of direct links (setting them to +Inf)
// and then restores a complete matrix via Floyd–Warshall closure, exactly
// as the paper complemented its dataset. Links are dropped symmetrically
// and the closure guarantees finiteness as long as the surviving graph is
// connected; to keep it connected we never drop links of node 0.
func dropAndClose(lat [][]float64, frac float64, rng *rand.Rand) {
	m := len(lat)
	for i := 1; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if rng.Float64() < frac {
				lat[i][j] = math.Inf(1)
				lat[j][i] = math.Inf(1)
			}
		}
	}
	FloydWarshall(lat)
}

// FloydWarshall replaces lat in place with its all-pairs shortest-path
// closure. Entries may be +Inf (missing links). The diagonal is forced
// to zero.
func FloydWarshall(lat [][]float64) {
	m := len(lat)
	for i := 0; i < m; i++ {
		lat[i][i] = 0
	}
	for k := 0; k < m; k++ {
		lk := lat[k]
		for i := 0; i < m; i++ {
			lik := lat[i][k]
			if math.IsInf(lik, 1) {
				continue
			}
			li := lat[i]
			for j := 0; j < m; j++ {
				if via := lik + lk[j]; via < li[j] {
					li[j] = via
				}
			}
		}
	}
}

// newMatrix allocates an m×m zero matrix backed by one contiguous slice.
func newMatrix(m int) [][]float64 {
	rows := make([][]float64, m)
	buf := make([]float64, m*m)
	for i := range rows {
		rows[i], buf = buf[:m:m], buf[m:]
	}
	return rows
}
