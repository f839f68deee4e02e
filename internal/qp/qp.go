// Package qp implements the centralized optimization view of the load
// balancing problem (paper §III): the explicit quadratic program
//
//	minimize  ΣC_i(ρ) = ρᵀQρ + bᵀρ
//	s.t.      ρ_ij ≥ 0,  Σ_j ρ_ij = 1 for every organization i,
//
// where Q is the m²×m² upper-triangular positive-definite matrix of
// paper Figure 1 and b_(i,j) = c_ij·n_i.
//
// The package provides the dense Q/b construction (for verification and
// the Figure 1 artifact) and two matrix-free convex solvers that serve as
// the paper's "standard solver" baseline:
//
//   - Frank–Wolfe (conditional gradient), whose duality gap upper-bounds
//     the distance to the optimum — used to certify reference optima;
//   - projected gradient with exact line search and Duchi-style
//     Euclidean projection onto the per-row simplices.
//
// Both exploit that the objective's gradient is computable in O(m²):
// ∂ΣC/∂ρ_ij = n_i (l_j/s_j + c_ij) with l_j = Σ_k n_k ρ_kj.
package qp

import (
	"context"

	"delaylb/internal/model"
	"delaylb/internal/sparse"
	"delaylb/obs"
)

// Objective evaluates ΣC_i at the relay-fraction matrix rho in O(m²).
func Objective(in *model.Instance, rho [][]float64) float64 {
	return objectiveBuf(in, rho, latRowBuf(in))
}

// objectiveBuf is Objective with a caller-owned latency-row scratch
// buffer, so per-iteration calls from the solver loops do not allocate
// on block-backed instances.
func objectiveBuf(in *model.Instance, rho [][]float64, rowBuf []float64) float64 {
	m := in.M()
	var cost float64
	loads := make([]float64, m)
	for k := 0; k < m; k++ {
		nk := in.Load[k]
		if nk == 0 {
			continue
		}
		for j, f := range rho[k] {
			loads[j] += nk * f
		}
	}
	for j, l := range loads {
		cost += l * l / (2 * in.Speed[j])
	}
	for i := 0; i < m; i++ {
		ni := in.Load[i]
		if ni == 0 {
			continue
		}
		lat := model.RowView(in.Latency, i, rowBuf)
		for j, f := range rho[i] {
			if f > 0 && i != j {
				cost += ni * f * lat[j]
			}
		}
	}
	return cost
}

// Loads computes l_j = Σ_k n_k ρ_kj into dst (length m).
func Loads(in *model.Instance, rho [][]float64, dst []float64) {
	for j := range dst {
		dst[j] = 0
	}
	for k := range rho {
		nk := in.Load[k]
		if nk == 0 {
			continue
		}
		for j, f := range rho[k] {
			dst[j] += nk * f
		}
	}
}

// Gradient writes ∂ΣC/∂ρ_ij = n_i (l_j/s_j + c_ij) into grad, given the
// current load vector. Forbidden links (c_ij = +Inf) get +Inf gradients.
func Gradient(in *model.Instance, loads []float64, grad [][]float64) {
	gradientBuf(in, loads, grad, latRowBuf(in))
}

// gradientBuf is Gradient with a caller-owned latency-row buffer.
func gradientBuf(in *model.Instance, loads []float64, grad [][]float64, rowBuf []float64) {
	m := in.M()
	for i := 0; i < m; i++ {
		ni := in.Load[i]
		lat := model.RowView(in.Latency, i, rowBuf)
		g := grad[i]
		for j := 0; j < m; j++ {
			g[j] = ni * (loads[j]/in.Speed[j] + lat[j])
		}
	}
}

// latRowBuf returns a scratch row for model.RowView: nil when the view
// is dense (rows are borrowed directly), m floats otherwise.
func latRowBuf(in *model.Instance) []float64 {
	if _, ok := in.Latency.(model.DenseLatency); ok {
		return nil
	}
	return make([]float64, in.M())
}

// identityRho returns the ρ matrix with ρ_ii = 1, the canonical feasible
// starting point (each organization keeps its own requests).
func identityRho(m int) [][]float64 {
	rho := newMatrix(m)
	for i := 0; i < m; i++ {
		rho[i][i] = 1
	}
	return rho
}

// newMatrix allocates an m×m zero matrix backed by a contiguous slice.
func newMatrix(m int) [][]float64 {
	rows := make([][]float64, m)
	buf := make([]float64, m*m)
	for i := range rows {
		rows[i], buf = buf[:m:m], buf[m:]
	}
	return rows
}

// cloneMatrix deep-copies a square matrix.
func cloneMatrix(src [][]float64) [][]float64 {
	out := newMatrix(len(src))
	for i, row := range src {
		copy(out[i], row)
	}
	return out
}

// Variant selects the Frank–Wolfe step rule.
type Variant int

const (
	// VariantClassic is the plain conditional gradient of the paper's
	// §III baseline: every step blends toward an LMO vertex. Sublinear
	// (O(1/t)) on this QP — the gap stalls near the optimum because late
	// steps keep re-shrinking mass that earlier steps spread out.
	VariantClassic Variant = iota
	// VariantAway augments classic FW with away steps over the active
	// vertex set: when shifting mass *off* the worst active vertex
	// descends faster than shifting onto the best vertex, the step moves
	// away from it instead, and a maximal away step drops the vertex
	// from the support entirely. Restores linear convergence on this
	// strongly-convex-over-the-simplex objective and keeps warm iterates
	// lean.
	VariantAway
	// VariantPairwise moves mass directly from each row's worst active
	// vertex to its LMO vertex in one step — the pairwise FW rule. Same
	// linear-convergence and support-hygiene story as VariantAway with a
	// single fused direction.
	VariantPairwise
)

// String returns the registry spelling of the variant.
func (v Variant) String() string {
	switch v {
	case VariantAway:
		return "away"
	case VariantPairwise:
		return "pairwise"
	default:
		return "classic"
	}
}

// Options configures the iterative solvers.
type Options struct {
	// MaxIters bounds the number of iterations (default 10 000).
	MaxIters int
	// Tol is the convergence tolerance. For Frank–Wolfe it bounds the
	// duality gap relative to the current objective; for projected
	// gradient it bounds the relative objective improvement per
	// iteration (default 1e-9).
	Tol float64
	// Initial, if non-nil, is the starting ρ (copied, not mutated).
	Initial [][]float64
	// InitialSparse, if non-nil, is the starting ρ in sparse form
	// (copied, not mutated); it takes precedence over Initial in
	// SolveFrankWolfeSparse, for every variant, and is ignored by
	// SolveProjectedGradient.
	InitialSparse *sparse.Matrix
	// Variant selects the Frank–Wolfe step rule (classic, away-step or
	// pairwise). Ignored by SolveProjectedGradient.
	Variant Variant
	// TraceGaps records the per-iteration duality gap into Result.Gaps /
	// SparseResult.Gaps — the convergence-regression harness's raw
	// signal. Off by default: gap curves are test/diagnostic data.
	TraceGaps bool
	// OnIteration, if non-nil, is called after each iteration with the
	// 1-based iteration number and current objective; returning false
	// stops the run early with Converged == true (a deliberate stop).
	OnIteration func(iter int, cost float64) bool
	// Ctx, if non-nil, is polled between iterations; once canceled the
	// run stops with Converged == false, returning the best-so-far ρ.
	Ctx context.Context
	// Obs, if non-nil, receives side-channel telemetry (per-sweep
	// duality gap, LMO calls, drop steps, active-set nnz, solve spans).
	// It never influences the iterates: instrumented runs are
	// bit-identical to uninstrumented ones, and the nil default adds
	// zero allocations to the sweep loops (see obs_alloc_test.go).
	Obs *obs.Scope
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 10000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o
}

// Result reports the outcome of a solver run.
type Result struct {
	// Rho is the final relay-fraction matrix.
	Rho [][]float64
	// Cost is ΣC_i(Rho).
	Cost float64
	// Iters is the number of iterations performed.
	Iters int
	// Converged reports whether the tolerance was met before MaxIters.
	Converged bool
	// Gap is the final Frank–Wolfe duality gap (0 for projected
	// gradient). Cost − Gap is a lower bound on the optimal cost.
	Gap float64
	// Gaps is the per-iteration duality-gap trace, recorded only when
	// Options.TraceGaps is set; Gaps[k] is the gap measured at iteration
	// k+1, including the final (converged) one.
	Gaps []float64
}

// Allocation converts the result into a model.Allocation.
func (r *Result) Allocation(in *model.Instance) *model.Allocation {
	return model.FromFractions(in, r.Rho)
}
