package delaylb

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"delaylb/internal/core"
	"delaylb/internal/game"
	"delaylb/internal/model"
	"delaylb/internal/qp"
	"delaylb/internal/sparse"
	"delaylb/obs"
)

// This file implements the built-in solvers behind the registry:
//
//	mine        the paper's distributed MinE algorithm (honours Strategy)
//	hybrid      MinE with the short-listed hybrid partner selection
//	proxy       MinE with the O(1) proxy partner selection
//	frankwolfe  Frank–Wolfe conditional gradient (§III baseline)
//	projgrad    projected gradient with exact line search (§III baseline)
//	nash        best-response dynamics to the selfish equilibrium (§V)

func init() {
	mustRegisterSolver(mineSolver{name: "mine"})
	mustRegisterSolver(mineSolver{name: "hybrid", strategy: core.StrategyHybrid, forced: true})
	mustRegisterSolver(mineSolver{name: "proxy", strategy: core.StrategyProxy, forced: true})
	mustRegisterSolver(qpSolver{name: "frankwolfe"})
	mustRegisterSolver(qpSolver{name: "projgrad"})
	mustRegisterSolver(nashSolver{})
}

// warmStartDense resolves the effective dense warm start of a solve:
// the explicit WarmStart, or the session's warm start densified
// ("projgrad" holds an m×m iterate anyway).
func warmStartDense(opts SolveOptions) [][]float64 {
	if opts.WarmStart != nil || opts.warmSparse == nil {
		return opts.WarmStart
	}
	return opts.warmSparse.Dense()
}

// warmAllocation turns a WarmStart requests matrix into an allocation
// consistent with the instance's current loads: each row is scaled so it
// sums to n_i (rows that carried no mass restart from identity). A warm
// start of the wrong shape is an error — silently solving cold would
// hide the mistake.
func warmAllocation(in *model.Instance, warm [][]float64) (*model.Allocation, error) {
	m := in.M()
	if len(warm) != m {
		return nil, fmt.Errorf("delaylb: warm start has %d rows, want %d", len(warm), m)
	}
	a := model.NewAllocation(m)
	for i := 0; i < m; i++ {
		if len(warm[i]) != m {
			return nil, fmt.Errorf("delaylb: warm start row %d has %d entries, want %d", i, len(warm[i]), m)
		}
		var sum float64
		for _, v := range warm[i] {
			sum += v
		}
		if sum > 0 {
			scale := in.Load[i] / sum
			for j := 0; j < m; j++ {
				a.R[i][j] = warm[i][j] * scale
			}
		} else {
			a.R[i][i] = in.Load[i]
		}
	}
	return a, nil
}

// callbackTracker wraps a Progress callback so adapters whose underlying
// engines fold a deliberate callback stop into their generic "converged"
// flag can still report Reason == "callback" accurately.
func callbackTracker(progress func(int, float64) bool) (wrapped func(int, float64) bool, stopped *bool) {
	stopped = new(bool)
	if progress == nil {
		return nil, stopped
	}
	wrapped = func(iter int, cost float64) bool {
		if !progress(iter, cost) {
			*stopped = true
			return false
		}
		return true
	}
	return wrapped, stopped
}

// finishSolve applies the shared cancellation contract: a canceled
// context turns the result into a partial one and surfaces ctx.Err().
func finishSolve(ctx context.Context, res *Result) (*Result, error) {
	if err := ctx.Err(); err != nil {
		res.Converged = false
		res.Reason = "canceled"
		return res, err
	}
	return res, nil
}

// mineSolver runs the paper's distributed MinE algorithm (Algorithms 1–2).
type mineSolver struct {
	name     string
	strategy core.Strategy
	forced   bool // true for "hybrid"/"proxy": ignore opts.Strategy
}

func (ms mineSolver) Name() string { return ms.name }

func (ms mineSolver) Solve(ctx context.Context, sys *System, opts SolveOptions) (*Result, error) {
	strat := ms.strategy
	if !ms.forced {
		switch opts.Strategy {
		case "proxy":
			strat = core.StrategyProxy
		case "hybrid":
			strat = core.StrategyHybrid
		default:
			strat = core.StrategyExact
		}
	}
	// The request matrix stays sparse end to end: rows on the way in,
	// the state's columns during the solve, rows again for the result.
	// Only a dense WithWarmStart passes through the m×m form, once, on
	// its way in; every other start is built sparse.
	var rows *sparse.Matrix
	if opts.WarmStart != nil {
		start, err := warmAllocation(sys.in, opts.WarmStart)
		if err != nil {
			return nil, err
		}
		rows = sparse.FromDense(start.R, 0)
	} else {
		var err error
		if rows, err = warmSparseRequests(sys.in, opts.warmSparse); err != nil {
			return nil, err
		}
	}
	span := opts.Obs.Start("core.solve")
	st := core.NewState(sys.in, rows)
	tr := core.RunState(st, core.Config{
		Strategy:          strat,
		MaxIters:          opts.MaxIterations,
		RemoveCyclesEvery: opts.CycleRemovalEvery,
		Rng:               rand.New(rand.NewSource(seedOrDefault(opts.Seed))),
		OnIteration:       opts.Progress,
		Ctx:               ctx,
	})
	res := resultFromSparseRequests(sys.in, st.Rows())
	res.Iterations = tr.Iters
	res.Converged = tr.Converged
	res.CostTrace = tr.Costs
	res.Reason = string(tr.Reason)
	if tr.Reason == core.StopCallback {
		// Public contract: a deliberate callback stop is not convergence.
		res.Converged = false
	}
	res, err := finishSolve(ctx, res)
	span.With(obs.Int("iters", int64(res.Iterations))).
		With(obs.Int("reason", int64(slices.Index(stopReasons, core.StopReason(res.Reason))))).
		With(obs.Float("cost", res.Cost)).
		With(obs.Int("nnz", int64(res.NNZ))).
		With(obs.Int("searches", tr.Searches)).
		With(obs.Int("search_nodes", tr.SearchNodes)).
		End()
	return res, err
}

// stopReasons numbers MinE's stop reasons for the core.solve span, whose
// attributes are numbers: its "reason" is the index of the result's
// Reason here.
var stopReasons = []core.StopReason{core.StopStable, core.StopTarget, core.StopMaxIters, core.StopCallback, core.StopCanceled}

// qpSolver wraps the centralized convex baselines of §III.
type qpSolver struct {
	name string // "frankwolfe" or "projgrad"
}

func (qs qpSolver) Name() string { return qs.name }

// fwVariant maps the public FWVariant spelling onto the qp engine's
// enum, normalizing aliases through ParseFWVariant so WithFWVariant and
// command-line flags share one vocabulary.
func fwVariant(v FWVariant) (qp.Variant, error) {
	canon, err := ParseFWVariant(string(v))
	if err != nil {
		return qp.VariantClassic, err
	}
	switch canon {
	case FWAway:
		return qp.VariantAway, nil
	case FWPairwise:
		return qp.VariantPairwise, nil
	default:
		return qp.VariantClassic, nil
	}
}

func (qs qpSolver) Solve(ctx context.Context, sys *System, opts SolveOptions) (*Result, error) {
	variant, err := fwVariant(opts.FWVariant)
	if err != nil {
		return nil, err
	}
	if qs.name == "projgrad" && variant != qp.VariantClassic {
		return nil, fmt.Errorf("delaylb: solver %q does not support Frank–Wolfe variant %q", qs.name, opts.FWVariant)
	}
	progress, stopped := callbackTracker(opts.Progress)
	qopt := qp.Options{
		MaxIters:    opts.MaxIterations,
		Tol:         opts.Tolerance,
		Variant:     variant,
		OnIteration: progress,
		Ctx:         ctx,
		Obs:         opts.Obs,
	}
	if qs.name == "frankwolfe" && opts.warmSparse != nil {
		qopt.InitialSparse = warmFractionsSparse(sys.in, opts.warmSparse)
	} else if warm := warmStartDense(opts); warm != nil {
		start, err := warmAllocation(sys.in, warm)
		if err != nil {
			return nil, err
		}
		qopt.Initial = start.Fractions(sys.in)
	}
	var res *Result
	if qs.name == "frankwolfe" {
		// The iterate, the result and everything in between stay sparse;
		// dense Requests/Fractions materialize only if a caller asks the
		// Result for them.
		sres := qp.SolveFrankWolfeSparse(sys.in, qopt)
		res = resultFromSparseRequests(sys.in, requestsFromRho(sys.in, sres.Rho))
		res.Iterations, res.Converged, res.Gap = sres.Iters, sres.Converged, sres.Gap
	} else {
		qres := qp.SolveProjectedGradient(sys.in, qopt)
		res = resultFromAllocation(sys.in, qres.Allocation(sys.in))
		res.Iterations, res.Converged, res.Gap = qres.Iters, qres.Converged, qres.Gap
	}
	switch {
	case *stopped:
		res.Reason = "callback"
		res.Converged = false
	case res.Converged:
		res.Reason = "tolerance"
	default:
		res.Reason = "max-iters"
	}
	return finishSolve(ctx, res)
}

// nashSolver runs sequential best-response dynamics to the (approximate)
// selfish equilibrium — not a cooperative optimum, but reachable through
// the same registry so sessions and commands can switch regimes by name.
type nashSolver struct{}

func (nashSolver) Name() string { return "nash" }

func (nashSolver) Solve(ctx context.Context, sys *System, opts SolveOptions) (*Result, error) {
	progress, stopped := callbackTracker(opts.Progress)
	nash, tr := game.BestResponseDynamics(sys.in, game.Config{
		MaxSweeps: opts.MaxIterations,
		ChangeTol: opts.Tolerance,
		OnSweep:   progress,
		Ctx:       ctx,
	})
	res := resultFromAllocation(sys.in, nash)
	res.Iterations = tr.Sweeps
	res.Converged = tr.Converged
	res.CostTrace = tr.Costs
	switch {
	case *stopped:
		res.Reason = "callback"
		res.Converged = false
	case tr.Converged:
		res.Reason = "stable"
	default:
		res.Reason = "max-iters"
	}
	return finishSolve(ctx, res)
}

// warmSparseRequests turns a sparse warm start (request units) into the
// request matrix a sparse MinE state starts from, mirroring
// warmAllocation float-for-float: each row is scaled so it sums to n_i
// (the dense fold adds exactly +0.0 for empty slots, so RowSum and the
// dense row sum agree bit-for-bit); rows that carried no mass restart
// from the identity vertex. A nil warm start yields the sparse identity.
func warmSparseRequests(in *model.Instance, warm *sparse.Matrix) (*sparse.Matrix, error) {
	if warm == nil {
		return sparse.Diagonal(in.Load), nil
	}
	m := in.M()
	if warm.Rows() != m || warm.Cols != m {
		return nil, fmt.Errorf("delaylb: sparse warm start is %d×%d, want %d×%d", warm.Rows(), warm.Cols, m, m)
	}
	return sparse.ScaleRows(warm, func(i int) (float64, float64, bool) {
		if sum := warm.RowSum(i); sum > 0 {
			return in.Load[i] / sum, 0, true
		}
		return 0, in.Load[i], false
	}), nil
}

// warmFractionsSparse converts a sparse warm start in request units into
// the relay-fraction matrix a sparse Frank–Wolfe solve starts from: each
// row normalized by its sum (rows with no mass, or organizations with no
// load, restart from the identity vertex).
func warmFractionsSparse(in *model.Instance, req *sparse.Matrix) *sparse.Matrix {
	return sparse.ScaleRows(req, func(i int) (float64, float64, bool) {
		if sum := req.RowSum(i); sum > 0 && in.Load[i] > 0 {
			return 1 / sum, 0, true
		}
		return 0, 1, false
	})
}

// requestsFromRho scales a relay-fraction iterate into request units:
// r_ij = n_i ρ_ij, in O(nnz).
func requestsFromRho(in *model.Instance, rho *sparse.Matrix) *sparse.Matrix {
	return sparse.ScaleRows(rho, func(i int) (float64, float64, bool) {
		return in.Load[i], 0, true
	})
}

func seedOrDefault(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}
