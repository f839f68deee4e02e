// Package model defines the shared vocabulary of the delay-aware load
// balancing system: problem instances (servers, speeds, initial loads,
// pairwise latencies), request allocations, and the cost functions of
// Skowron & Rzadca's model.
//
// Units follow the paper's conventions: time is measured in milliseconds,
// a server of speed s processes s unit requests per millisecond, and the
// latency matrix holds one-way communication delays in milliseconds.
package model

import (
	"errors"
	"fmt"
	"math"
)

// Instance is a complete description of a load-balancing problem:
// m organizations, each owning one server with a processing speed,
// an initial load of unit-size requests, and a pairwise latency view.
//
// Invariants (checked by Validate):
//   - len(Speed) == len(Load) == m, Latency covers m servers,
//   - Speed[i] > 0, Load[i] >= 0,
//   - Latency.At(i, j) >= 0 and Latency.At(i, i) == 0.
//
// Off-diagonal delays may be math.Inf(1) to forbid relaying from i to j
// (the trust-restricted variant from paper §II).
//
// Instances follow the replace-don't-mutate discipline: solvers and
// sessions treat an instance (and its latency view) as immutable and
// swap in a fresh instance on every update, which is what lets Clone and
// the churn operations share unchanged state structurally.
type Instance struct {
	// Speed[i] is the processing speed s_i of server i, in requests/ms.
	Speed []float64
	// Load[i] is the initial number of requests n_i owned by organization i.
	Load []float64
	// Latency is the view of the one-way communication delays c_ij —
	// either a DenseLatency matrix or a BlockLatency metro table.
	Latency Latency
	// Cluster, if non-nil, labels each server with a cluster (metro) id
	// in [0, k). For a BlockLatency-backed instance it is the view's
	// label vector (the representation guarantees the block structure).
	// For a dense instance it is a structural hint set by generators
	// whose matrix is exactly block-structured — c_ij depends only on
	// (Cluster[i], Cluster[j]) for i ≠ j — and ClusterDelays verifies it
	// against the matrix before any solver exploits it, so a stale or
	// wrong labeling degrades to the generic path instead of corrupting
	// results.
	Cluster []int
}

// MaxSmallClusterLabel bounds the cluster labels that are accepted
// regardless of m. The ClusterDelays table is quadratic in the largest
// label, so the cap keeps a worst-case hint to a few MiB while letting
// labels survive arbitrary server churn.
const MaxSmallClusterLabel = 1024

// M returns the number of organizations (= servers) in the instance.
func (in *Instance) M() int { return len(in.Speed) }

// LatAt returns the one-way delay c_ij — shorthand for Latency.At.
func (in *Instance) LatAt(i, j int) float64 { return in.Latency.At(i, j) }

// NewInstance builds an instance from the given speeds, loads and dense
// latency matrix, validating shape and value constraints.
func NewInstance(speed, load []float64, latency [][]float64) (*Instance, error) {
	in := &Instance{Speed: speed, Load: load, Latency: NewDense(latency)}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// NewBlockInstance builds an instance on the block (metro) latency view:
// delay is the k×k block table, labels[i] the metro of server i. The
// label vector doubles as the instance's Cluster hint — on this
// representation the hint is true by construction. Neither slice is
// copied.
func NewBlockInstance(speed, load []float64, delay [][]float64, labels []int) (*Instance, error) {
	in := &Instance{
		Speed:   speed,
		Load:    load,
		Latency: NewBlock(delay, labels),
		Cluster: labels,
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// Uniform builds a homogeneous instance: m servers of speed s, each owning
// load n, every off-diagonal latency equal to c.
func Uniform(m int, s, n, c float64) *Instance {
	speed := make([]float64, m)
	load := make([]float64, m)
	lat := make([][]float64, m)
	for i := 0; i < m; i++ {
		speed[i] = s
		load[i] = n
		lat[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			if i != j {
				lat[i][j] = c
			}
		}
	}
	return &Instance{Speed: speed, Load: load, Latency: NewDense(lat)}
}

// Validate checks the structural invariants of the instance. For a dense
// view the full matrix is scanned (O(m²)); for a block view only the
// label vector and the k×k table are checked (O(m + k²)) — which is what
// keeps per-churn-event validation off the dense cost curve.
func (in *Instance) Validate() error {
	m := len(in.Speed)
	if m == 0 {
		return errors.New("model: instance has no servers")
	}
	if len(in.Load) != m {
		return fmt.Errorf("model: len(Load)=%d, want %d", len(in.Load), m)
	}
	for i := 0; i < m; i++ {
		if in.Speed[i] <= 0 || math.IsNaN(in.Speed[i]) || math.IsInf(in.Speed[i], 0) {
			return fmt.Errorf("model: speed[%d]=%v, must be positive and finite", i, in.Speed[i])
		}
		if in.Load[i] < 0 || math.IsNaN(in.Load[i]) || math.IsInf(in.Load[i], 0) {
			return fmt.Errorf("model: load[%d]=%v, must be non-negative and finite", i, in.Load[i])
		}
	}
	if in.Latency == nil {
		return errors.New("model: instance has no latency view")
	}
	switch lat := in.Latency.(type) {
	case DenseLatency:
		if len(lat) != m {
			return fmt.Errorf("model: latency matrix has %d rows, want %d", len(lat), m)
		}
		for i := 0; i < m; i++ {
			if len(lat[i]) != m {
				return fmt.Errorf("model: latency row %d has %d entries, want %d", i, len(lat[i]), m)
			}
			for j, c := range lat[i] {
				if err := CheckDelay(i, j, c); err != nil {
					return err
				}
				if i == j && c != 0 {
					return fmt.Errorf("model: latency[%d][%d]=%v, diagonal must be 0", i, j, c)
				}
			}
		}
	case *BlockLatency:
		k := len(lat.Delay)
		if k == 0 {
			return errors.New("model: block latency has no metros")
		}
		for g, row := range lat.Delay {
			if len(row) != k {
				return fmt.Errorf("model: block delay row %d has %d entries, want %d", g, len(row), k)
			}
			for h, c := range row {
				if math.IsNaN(c) || c < 0 {
					return fmt.Errorf("model: block delay[%d][%d]=%v, must be >= 0", g, h, c)
				}
			}
		}
		if len(lat.Label) != m {
			return fmt.Errorf("model: block latency labels %d servers, want %d", len(lat.Label), m)
		}
		for i, g := range lat.Label {
			if g < 0 || g >= k {
				return fmt.Errorf("model: block label[%d]=%d, must be in [0, %d)", i, g, k)
			}
		}
		// On the block representation the Cluster hint IS the label
		// vector; a divergent hint would let solvers trust wrong labels.
		if len(in.Cluster) != m {
			return fmt.Errorf("model: block instance has %d cluster labels, want %d", len(in.Cluster), m)
		}
		for i, g := range in.Cluster {
			if g != lat.Label[i] {
				return fmt.Errorf("model: cluster[%d]=%d disagrees with block label %d", i, g, lat.Label[i])
			}
		}
		return nil // label checks above subsume the generic hint checks
	default:
		return fmt.Errorf("model: unknown latency view %T", in.Latency)
	}
	if in.Cluster != nil {
		if len(in.Cluster) != m {
			return fmt.Errorf("model: len(Cluster)=%d, want %d", len(in.Cluster), m)
		}
		for i, g := range in.Cluster {
			if err := CheckLabel(i, g, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckDelay returns the error Validate reports for c_ij = c in a dense
// view, or nil: a delay must be non-negative and not NaN (+Inf forbids
// the link).
func CheckDelay(i, j int, c float64) error {
	if math.IsNaN(c) || c < 0 {
		return fmt.Errorf("model: latency[%d][%d]=%v, must be >= 0", i, j, c)
	}
	return nil
}

// CheckLabel returns the error Validate reports for cluster label g of
// server i in an m-server instance with a cluster hint on a dense view,
// or nil. Labels are dense small ids because ClusterDelays allocates a
// table quadratic in the largest label. Labels below
// MaxSmallClusterLabel are always accepted even when they exceed m:
// server churn shrinks m without relabeling, so a metro's label may
// outlive most of its members. Larger labels are only accepted up to m,
// the pre-churn invariant.
func CheckLabel(i, g, m int) error {
	if g < 0 || (g >= m && g >= MaxSmallClusterLabel) {
		return fmt.Errorf("model: cluster[%d]=%d, must be in [0, max(m=%d, %d))", i, g, m, MaxSmallClusterLabel)
	}
	return nil
}

// Clone returns an instance that can be evolved independently: the speed,
// load and cluster slices are copied; the latency view is shared, since
// views are immutable by contract (updates replace the view, never mutate
// it). Cloning a block-backed instance is therefore O(m), not O(m²).
func (in *Instance) Clone() *Instance {
	out := &Instance{
		Speed:   append([]float64(nil), in.Speed...),
		Load:    append([]float64(nil), in.Load...),
		Latency: in.Latency,
	}
	if in.Cluster != nil {
		out.Cluster = append([]int(nil), in.Cluster...)
		if b, ok := in.Latency.(*BlockLatency); ok {
			// Keep the "Cluster is the view's label vector" invariant on
			// the copy, sharing one slice instead of diverging.
			out.Latency = &BlockLatency{Delay: b.Delay, Label: out.Cluster}
		}
	}
	return out
}

// TotalLoad returns Σ_i n_i, the total number of requests in the system.
func (in *Instance) TotalLoad() float64 {
	var t float64
	for _, n := range in.Load {
		t += n
	}
	return t
}

// TotalSpeed returns Σ_i s_i, used by Proposition 1's error bound.
func (in *Instance) TotalSpeed() float64 {
	var t float64
	for _, s := range in.Speed {
		t += s
	}
	return t
}

// AverageLoad returns l_av = (Σ_i n_i)/m, the paper's lav parameter.
func (in *Instance) AverageLoad() float64 {
	return in.TotalLoad() / float64(in.M())
}

// AverageLatency returns the mean off-diagonal latency, ignoring
// infinite (forbidden) links.
func (in *Instance) AverageLatency() float64 {
	var sum float64
	var cnt int
	m := in.M()
	buf := make([]float64, m)
	for i := 0; i < m; i++ {
		row := RowView(in.Latency, i, buf)
		for j := 0; j < m; j++ {
			if i == j || math.IsInf(row[j], 1) {
				continue
			}
			sum += row[j]
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
