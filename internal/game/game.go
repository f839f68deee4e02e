// Package game implements the selfish side of the paper (§V): each
// organization i unilaterally chooses where its own requests execute so
// as to minimize its private cost
//
//	C_i = Σ_j r_ij ((l_j^{−i} + r_ij)/(2 s_j) + c_ij),
//
// where l_j^{−i} is the load placed on server j by everyone else. The
// package provides the exact best response (a water-filling solution of
// the KKT conditions), sequential best-response dynamics with the paper's
// 1%-change termination rule (§VI-C), ε-Nash verification, price-of-
// anarchy measurement, and the analytic Theorem 1 bounds for homogeneous
// networks.
package game

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"delaylb/internal/core"
	"delaylb/internal/model"
)

// BestResponse computes organization i's exact optimal row given the
// rest of the allocation, writing it into dst (length m) and returning
// it. The private cost restricted to row i is separable and convex, so
// the KKT conditions give
//
//	r_ij(λ) = max(0, s_j (λ − c_ij) − l_j^{−i}/2)
//
// for a water level λ chosen so the row sums to n_i. The exact λ is found
// by sorting the activation thresholds t_j = c_ij + l_j^{−i}/(2 s_j) and
// scanning the resulting piecewise-linear function — O(m log m).
func BestResponse(in *model.Instance, loads []float64, a *model.Allocation, i int, dst []float64) []float64 {
	m := in.M()
	if dst == nil {
		dst = make([]float64, m)
	}
	ni := in.Load[i]
	for j := range dst {
		dst[j] = 0
	}
	if ni == 0 {
		return dst
	}
	// Thresholds over the external loads.
	type coord struct {
		j int
		t float64
	}
	coords := make([]coord, 0, m)
	ext := make([]float64, m)
	for j := 0; j < m; j++ {
		cij := in.LatAt(i, j)
		if math.IsInf(cij, 1) {
			continue
		}
		ext[j] = loads[j] - a.R[i][j]
		coords = append(coords, coord{j: j, t: cij + ext[j]/(2*in.Speed[j])})
	}
	sort.Slice(coords, func(x, y int) bool { return coords[x].t < coords[y].t })

	// Activate coordinates in threshold order. With active set A:
	// λ(A) = (n_i + Σ_{j∈A}(s_j c_ij + ext_j/2)) / Σ_{j∈A} s_j.
	var sumS, sumB float64
	var lambda float64
	active := 0
	for k := 0; k < len(coords); k++ {
		j := coords[k].j
		sumS += in.Speed[j]
		sumB += in.Speed[j]*in.LatAt(i, j) + ext[j]/2
		active = k + 1
		lambda = (ni + sumB) / sumS
		// If the water level stays below the next threshold, adding more
		// coordinates would make them negative: stop.
		if k+1 >= len(coords) || lambda <= coords[k+1].t {
			break
		}
	}
	for k := 0; k < active; k++ {
		j := coords[k].j
		v := in.Speed[j]*(lambda-in.LatAt(i, j)) - ext[j]/2
		if v > 0 {
			dst[j] = v
		}
	}
	// Normalize away float drift so the row sums exactly to n_i.
	var sum float64
	for _, v := range dst {
		sum += v
	}
	if sum > 0 && math.Abs(sum-ni) > 1e-12*ni {
		scale := ni / sum
		for j := range dst {
			dst[j] *= scale
		}
	}
	return dst
}

// stableSweeps is how many consecutive low-change sweeps terminate
// best-response dynamics (paper §VI-C: two).
const stableSweeps = 2

// Config tunes best-response dynamics. Sweeps visit organizations in
// index order.
type Config struct {
	// MaxSweeps bounds the number of full best-response sweeps
	// (default 500).
	MaxSweeps int
	// ChangeTol is the per-organization relative L1 change below which a
	// sweep counts as "no change" (paper §VI-C uses 1%; default 0.01).
	ChangeTol float64
	// OnSweep, if non-nil, is called after each sweep with the 1-based
	// sweep number and current ΣC_i; returning false stops the dynamics
	// early with Converged == true (a deliberate stop).
	OnSweep func(sweep int, cost float64) bool
	// Ctx, if non-nil, is polled between sweeps; once canceled the
	// dynamics stop with Converged == false at the best-so-far state.
	Ctx context.Context
}

func (c Config) withDefaults() Config {
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = 500
	}
	if c.ChangeTol <= 0 {
		c.ChangeTol = 0.01
	}
	return c
}

// Trace records a best-response dynamics run.
type Trace struct {
	Sweeps    int
	Costs     []float64 // ΣC_i after each sweep
	Converged bool
}

// BestResponseDynamics runs sequential (Gauss–Seidel) best-response play
// from the identity allocation until the paper's termination rule fires:
// every organization changed its distribution by less than ChangeTol in
// each of two consecutive sweeps. Returns the (approximate) Nash
// allocation and the trace.
func BestResponseDynamics(in *model.Instance, cfg Config) (*model.Allocation, *Trace) {
	cfg = cfg.withDefaults()
	m := in.M()
	a := model.Identity(in)
	loads := a.Loads()
	row := make([]float64, m)
	tr := &Trace{}

	stable := 0
	for sweep := 1; sweep <= cfg.MaxSweeps; sweep++ {
		if model.Canceled(cfg.Ctx) {
			return a, tr
		}
		maxChange := 0.0
		for i := 0; i < m; i++ {
			if in.Load[i] == 0 {
				continue
			}
			BestResponse(in, loads, a, i, row)
			var change float64
			for j := 0; j < m; j++ {
				d := row[j] - a.R[i][j]
				change += math.Abs(d)
				loads[j] += d
				a.R[i][j] = row[j]
			}
			if rel := change / in.Load[i]; rel > maxChange {
				maxChange = rel
			}
		}
		tr.Sweeps = sweep
		tr.Costs = append(tr.Costs, model.TotalCostWithLoads(in, a, loads))
		if cfg.OnSweep != nil && !cfg.OnSweep(sweep, tr.Costs[len(tr.Costs)-1]) {
			tr.Converged = true
			break
		}
		if maxChange < cfg.ChangeTol {
			stable++
			if stable >= stableSweeps {
				tr.Converged = true
				break
			}
		} else {
			stable = 0
		}
	}
	return a, tr
}

// EpsilonNash returns the largest relative gain any organization could
// obtain by unilaterally deviating to its best response: 0 means an exact
// Nash equilibrium, 0.03 means someone can improve their private cost by
// 3%.
func EpsilonNash(in *model.Instance, a *model.Allocation) float64 {
	m := in.M()
	loads := a.Loads()
	row := make([]float64, m)
	worst := 0.0
	for i := 0; i < m; i++ {
		if in.Load[i] == 0 {
			continue
		}
		cur := privateCost(in, loads, a, i, a.R[i])
		BestResponse(in, loads, a, i, row)
		best := privateCost(in, loads, a, i, row)
		if cur > 0 {
			if gain := (cur - best) / cur; gain > worst {
				worst = gain
			}
		}
	}
	return worst
}

// privateCost evaluates C_i for a hypothetical row, holding everyone else
// (loads minus i's current placement) fixed.
func privateCost(in *model.Instance, loads []float64, a *model.Allocation, i int, row []float64) float64 {
	var cost float64
	for j, r := range row {
		if r == 0 {
			continue
		}
		ext := loads[j] - a.R[i][j]
		cost += r * ((ext+r)/(2*in.Speed[j]) + in.LatAt(i, j))
	}
	return cost
}

// PoAResult is the outcome of one price-of-anarchy measurement.
type PoAResult struct {
	NashCost float64
	OptCost  float64
	Ratio    float64 // NashCost / OptCost — the paper's "cost of selfishness"
	Epsilon  float64 // residual ε of the approximate equilibrium
	Sweeps   int
}

// MeasurePoA runs best-response dynamics to an approximate equilibrium,
// computes the cooperative optimum with the exact MinE algorithm, and
// returns the ratio — the experimental "cost of selfishness" of
// Table III.
func MeasurePoA(in *model.Instance, cfg Config, rng *rand.Rand) PoAResult {
	nash, tr := BestResponseDynamics(in, cfg)
	nashCost := model.TotalCost(in, nash)
	opt := core.ReferenceOptimum(in, rng)
	ratio := math.Inf(1)
	if opt > 0 {
		ratio = nashCost / opt
	} else if nashCost == 0 {
		ratio = 1
	}
	return PoAResult{
		NashCost: nashCost,
		OptCost:  opt,
		Ratio:    ratio,
		Epsilon:  EpsilonNash(in, nash),
		Sweeps:   tr.Sweeps,
	}
}

// TheoremOneBounds returns the analytic price-of-anarchy band of
// Theorem 1 for a homogeneous network with latency c, speed s and average
// load lav:
//
//	1 + 2cs/lav − 4(cs/lav)² ≤ PoA ≤ 1 + 2cs/lav + (cs/lav)².
func TheoremOneBounds(c, s, lav float64) (lower, upper float64) {
	x := c * s / lav
	return 1 + 2*x - 4*x*x, 1 + 2*x + x*x
}
