package qp

import (
	"delaylb/internal/sparse"
	"delaylb/obs"
)

// solveObs is the Frank–Wolfe layer's resolved instrument bundle. It is
// built once per solve from Options.Obs — a nil/disabled scope resolves
// every field to nil, so the per-sweep calls below are single
// predictable branches with zero allocations (pinned by
// obs_alloc_test.go). Everything recorded here is side-channel
// telemetry: nothing flows back into the iterates, so instrumented and
// uninstrumented runs are bit-identical.
type solveObs struct {
	sweeps    *obs.Counter   // qp_sweeps_total: certificate passes (iterations)
	lmoCalls  *obs.Counter   // qp_lmo_calls_total: per-row oracle evaluations
	lmoSkips  *obs.Counter   // qp_lmo_skipped_total: sweep row steps the score bracket settled
	dropSteps *obs.Counter   // qp_drop_steps_total: away/pairwise vertices dropped
	gapHist   *obs.Histogram // qp_sweep_gap: per-sweep duality gap distribution
	gap       *obs.Gauge     // qp_gap: last measured duality gap
	cost      *obs.Gauge     // qp_cost: last measured objective
	nnz       *obs.Gauge     // qp_active_nnz: active-set size after the sweep
}

// sweepGapBuckets spans the gap's dynamic range: runs start with gaps in
// the thousands (absolute, load-scaled) and certify out around
// tol·cost ≈ 1e-6 of it.
var sweepGapBuckets = []float64{1e-9, 1e-6, 1e-3, 1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7}

func newSolveObs(sc *obs.Scope, variant Variant) solveObs {
	if !sc.Enabled() {
		return solveObs{}
	}
	v := variant.String()
	return solveObs{
		sweeps:    sc.Counter("qp_sweeps_total", "variant", v),
		lmoCalls:  sc.Counter("qp_lmo_calls_total", "variant", v),
		lmoSkips:  sc.Counter("qp_lmo_skipped_total", "variant", v),
		dropSteps: sc.Counter("qp_drop_steps_total", "variant", v),
		gapHist:   sc.Histogram("qp_sweep_gap", sweepGapBuckets, "variant", v),
		gap:       sc.Gauge("qp_gap", "variant", v),
		cost:      sc.Gauge("qp_cost", "variant", v),
		nnz:       sc.Gauge("qp_active_nnz", "variant", v),
	}
}

// sweep records one certificate pass: the measured gap and cost and
// the iterate's active-set size. The nnz scan is gated so the disabled
// path stays O(1) per sweep.
func (o solveObs) sweep(gap, cost float64, rho *sparse.Matrix) {
	o.sweeps.Inc()
	o.gapHist.Observe(gap)
	o.gap.Set(gap)
	o.cost.Set(cost)
	if o.nnz != nil {
		o.nnz.Set(float64(rho.NNZ()))
	}
}
