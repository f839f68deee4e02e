package qp

import "delaylb/internal/model"

// SolveFrankWolfe minimizes ΣC_i over the product of per-organization
// simplices with the Frank–Wolfe (conditional gradient) method and exact
// line search. Each iteration produces a duality gap
//
//	gap = ⟨∇F(ρ), ρ − v⟩ ≥ F(ρ) − F*,
//
// so the returned Result.Gap certifies how far the final cost can be from
// the optimum. The run stops when gap ≤ Tol·max(1, cost).
// Options.Variant selects the step rule; VariantAway and VariantPairwise
// use the active-vertex-set engine (see frankwolfe_active.go).
//
// It is the dense façade of SolveFrankWolfeSparse: every variant runs on
// the sparse representation and the result is densified. The iterate of
// any FW variant has O(iters) nonzeros per row, so the façade loses
// nothing but the O(m²) of the final densification.
func SolveFrankWolfe(in *model.Instance, opt Options) *Result {
	return SolveFrankWolfeSparse(in, opt).Dense()
}
