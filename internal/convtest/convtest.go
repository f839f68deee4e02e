// Package convtest is the convergence-regression harness behind the
// Frank–Wolfe variant tests: it runs a solver on an instance while
// recording the full per-iteration trajectory — cost curve, duality-gap
// curve, iterate support size — and provides the analyses the regression
// assertions are phrased in (iterations to an optimality band, geometric
// decay rate of the gap).
//
// The package depends only on model/qp/sparse, so the sweep tables and
// tests can use it without import cycles. Everything here is
// deterministic: the only randomness a caller can introduce is in the
// instance it supplies.
package convtest

import (
	"math"

	"delaylb/internal/model"
	"delaylb/internal/qp"
	"delaylb/internal/sparse"
)

// Curve is one solver run's full convergence trajectory.
type Curve struct {
	// Variant is the Frank–Wolfe step rule the run used.
	Variant qp.Variant
	// Costs[k] is ΣC_i after iteration k+1 (from the OnIteration hook);
	// the final, possibly-converged iteration is included.
	Costs []float64
	// Gaps[k] is the duality gap measured at iteration k+1 (TraceGaps).
	// Gaps and Costs may differ in length by one: the gap is measured
	// before the convergence check, the cost callback fires after it.
	Gaps []float64
	// Cost, Gap, Iters, Converged mirror the solver result.
	Cost      float64
	Gap       float64
	Iters     int
	Converged bool
	// NNZ is the final iterate's stored-nonzero count.
	NNZ int
	// Rho is the final iterate, for warm-starting a follow-up run.
	Rho *sparse.Matrix
}

// Run solves the instance with the sparse Frank–Wolfe engine under the
// given variant, tracing the full trajectory. Fields of opt other than
// Variant, TraceGaps and OnIteration are honored as given (so callers
// control budget, tolerance and warm start); the three trace knobs are
// owned by the harness.
func Run(in *model.Instance, variant qp.Variant, opt qp.Options) Curve {
	c := Curve{Variant: variant}
	opt.Variant = variant
	opt.TraceGaps = true
	opt.OnIteration = func(_ int, cost float64) bool {
		c.Costs = append(c.Costs, cost)
		return true
	}
	res := qp.SolveFrankWolfeSparse(in, opt)
	if len(c.Costs) == 0 || c.Costs[len(c.Costs)-1] != res.Cost {
		c.Costs = append(c.Costs, res.Cost)
	}
	c.Gaps = res.Gaps
	c.Cost = res.Cost
	c.Gap = res.Gap
	c.Iters = res.Iters
	c.Converged = res.Converged
	c.NNZ = res.Rho.NNZ()
	c.Rho = res.Rho
	return c
}

// ItersToBand returns the first 1-based index k with costs[k-1] ≤
// (1+band)·opt — the paper's "iterations to the 2% band" metric — or -1
// if the curve never enters the band.
func ItersToBand(costs []float64, opt, band float64) int {
	target := (1 + band) * opt
	for k, c := range costs {
		if c <= target {
			return k + 1
		}
	}
	return -1
}

// GeometricRate estimates the per-iteration decay factor of a gap curve
// as the geometric mean of successive ratios over the curve's positive
// prefix: rate r means gap_k ≈ gap_0·r^k. Returns 1 (no decay) for
// curves with fewer than two positive points. A linearly convergent run
// has r bounded away from 1; a sublinear one has r → 1 as the run
// progresses.
func GeometricRate(gaps []float64) float64 {
	n := 0
	for n < len(gaps) && gaps[n] > 0 {
		n++
	}
	if n < 2 {
		return 1
	}
	// Geometric mean of ratios telescopes to (g_{n-1}/g_0)^(1/(n-1)).
	return math.Pow(gaps[n-1]/gaps[0], 1/float64(n-1))
}
