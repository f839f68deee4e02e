package delaylb

import (
	"math/rand"

	"delaylb/internal/netmodel"
	"delaylb/internal/workload"
)

// This file exposes the instance generators used by the paper's
// evaluation, so downstream users can reproduce the experimental setups
// without reaching into internal packages. All generators are
// deterministic for a fixed seed.

// HomogeneousLatencies returns an m×m matrix with every off-diagonal
// latency equal to c — the paper's homogeneous network (c = 20 ms).
func HomogeneousLatencies(m int, c float64) [][]float64 {
	return netmodel.Homogeneous(m, c)
}

// PlanetLabLatencies returns a synthetic heterogeneous latency matrix
// with PlanetLab-like statistics: clustered geography, lognormal jitter
// and shortest-path completion (see internal/netmodel for the full
// construction and its calibration).
func PlanetLabLatencies(m int, seed int64) [][]float64 {
	return netmodel.PlanetLab(m, rand.New(rand.NewSource(seed)))
}

// EuclideanLatencies places m nodes uniformly in a square of side `side`
// milliseconds and uses Euclidean distances — a simple metric topology.
func EuclideanLatencies(m int, side float64, seed int64) [][]float64 {
	return netmodel.Euclidean(m, side, rand.New(rand.NewSource(seed)))
}

// UniformLoads draws m integer loads uniformly from [0, 2·avg].
func UniformLoads(m int, avg float64, seed int64) []float64 {
	return workload.UniformLoads(m, avg, rand.New(rand.NewSource(seed)))
}

// ExponentialLoads draws m integer loads from an exponential distribution
// with mean avg.
func ExponentialLoads(m int, avg float64, seed int64) []float64 {
	return workload.ExponentialLoads(m, avg, rand.New(rand.NewSource(seed)))
}

// PeakLoads puts `total` requests on one random server and zero
// elsewhere — the paper's peak distribution.
func PeakLoads(m int, total float64, seed int64) []float64 {
	return workload.PeakLoads(m, total, rand.New(rand.NewSource(seed)))
}

// ZipfLoads draws m loads following a Zipf popularity curve with the
// given average — a CDN-style extension beyond the paper's distributions.
func ZipfLoads(m int, avg float64, seed int64) []float64 {
	return workload.ZipfLoads(m, avg, 1.2, rand.New(rand.NewSource(seed)))
}

// UniformSpeeds draws m speeds uniformly from [lo, hi] (paper: [1, 5]).
func UniformSpeeds(m int, lo, hi float64, seed int64) []float64 {
	return workload.UniformSpeeds(m, lo, hi, rand.New(rand.NewSource(seed)))
}

// ConstSpeeds returns m copies of s.
func ConstSpeeds(m int, s float64) []float64 {
	return workload.ConstSpeeds(m, s)
}
