// Package delaylb is a network delay-aware load balancer for
// organizationally distributed systems, implementing Skowron & Rzadca,
// "Network delay-aware load balancing in selfish and cooperative
// distributed systems" (IPDPS/IPPS 2013, arXiv:1212.0421).
//
// The model: m organizations each own a server (speed s_i) and a stream
// of unit requests (n_i). Relaying a request from organization i to
// server j costs a fixed network latency c_ij on top of the congestion-
// dependent handling time l_j/(2 s_j). The package computes request
// routing fractions ρ_ij that minimize the total expected processing
// time ΣC_i — either cooperatively (the global optimum, via the paper's
// MinE distributed algorithm or convex-QP baselines) or selfishly (the
// Nash equilibrium of organizations optimizing their own requests, via
// exact best-response dynamics) — and quantifies the price of anarchy
// between the two.
//
// The package is organized around three coordinated surfaces:
//
//   - Solvers: every algorithm (the paper's distributed MinE, the §III
//     convex baselines, best-response dynamics) implements the Solver
//     interface and is reachable by name through a registry. All solves
//     accept a context.Context for cancellation and an optional
//     per-iteration progress callback.
//   - Scenarios: a composable, deterministic Scenario builder assembles
//     the evaluation's instance families (network kind × load
//     distribution × speed model × size × seed).
//   - Sessions: a stateful Session holds a current allocation and
//     re-optimizes incrementally (warm starts) as loads and latencies
//     change, or runs the paper's message-passing protocol round by
//     round.
//
// Quick start:
//
//	sys, err := delaylb.New(speeds, loads, latencies)
//	res, err := sys.Optimize()              // cooperative optimum
//	nash, err := sys.NashEquilibrium()      // selfish equilibrium
//	poa := nash.Cost / res.Cost             // cost of selfishness
//
// See the examples directory for full programs and DESIGN.md for the
// architecture and the mapping between the paper's evaluation and this
// repository.
package delaylb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"delaylb/internal/core"
	"delaylb/internal/discrete"
	"delaylb/internal/game"
	"delaylb/internal/model"
	"delaylb/internal/runtime"
	"delaylb/internal/sparse"
	"delaylb/obs"
)

// System is an immutable problem description: servers, their speeds,
// initial loads and the pairwise latency matrix.
type System struct {
	in *model.Instance
}

// New validates and wraps a problem instance. speeds[i] > 0 is the
// processing speed of server i (requests/ms); loads[i] ≥ 0 the number of
// requests organization i owns; latency[i][j] ≥ 0 the one-way delay (ms)
// from i to j, 0 on the diagonal, +Inf to forbid i from using j.
func New(speeds, loads []float64, latency [][]float64) (*System, error) {
	in, err := model.NewInstance(speeds, loads, latency)
	if err != nil {
		return nil, err
	}
	return &System{in: in}, nil
}

// Homogeneous builds the m-server uniform system of the paper's §V-A:
// speed s, load n and latency c everywhere.
func Homogeneous(m int, s, n, c float64) *System {
	return &System{in: model.Uniform(m, s, n, c)}
}

// M returns the number of organizations.
func (s *System) M() int { return s.in.M() }

// AverageLoad returns l_av, the mean initial load per server.
func (s *System) AverageLoad() float64 { return s.in.AverageLoad() }

// AverageLatency returns the mean off-diagonal latency.
func (s *System) AverageLatency() float64 { return s.in.AverageLatency() }

// Identity returns the no-relaying baseline: every organization serves
// its own requests locally. Its Cost is the natural reference point for
// how much balancing helps. It costs O(m): the allocation is the sparse
// diagonal r_ii = n_i.
func (s *System) Identity() *Result {
	return resultFromSparseRequests(s.in, sparse.Diagonal(s.in.Load))
}

// Result is the outcome of an optimization or equilibrium computation.
//
// The allocation is stored as sparse rows in request units, whatever
// form the producing solver worked in; the dense Requests/Fractions
// matrices are materialized lazily on first call, so results from an
// m=5000 solve stay O(nnz) until a caller explicitly asks for the O(m²)
// form. Use Each / AllocationDistance to consume large results sparsely.
type Result struct {
	// Loads[j] is the resulting total load of server j.
	Loads []float64
	// Cost is the total expected processing time ΣC_i.
	Cost float64
	// OrgCosts[i] is organization i's private cost C_i.
	OrgCosts []float64
	// Iterations is the number of algorithm iterations (or best-response
	// sweeps) performed.
	Iterations int
	// Converged reports whether the stopping criterion was met before
	// the iteration cap.
	Converged bool
	// CostTrace holds ΣC_i per iteration (index 0 = initial state) when
	// the producing algorithm records it.
	CostTrace []float64
	// Gap is the final Frank–Wolfe duality gap (0 for other solvers);
	// Cost − Gap lower-bounds the optimal cost.
	Gap float64
	// NNZ is the number of allocation entries the result stores — the
	// entries Each visits (0 when the result carries no allocation).
	// nnz ≪ m² is what makes m in the thousands practical.
	NNZ int
	// Reason says why the solve stopped: "stable", "tolerance",
	// "max-iters", "callback", "target" or "canceled" for solver runs;
	// "rounds" for a Session.RunCluster that completed its tick budget,
	// which has no stopping criterion and so never reports Converged.
	Reason string

	// req is the allocation r_ij, set at construction and never
	// mutated; nil on a metadata-only result.
	req *sparse.Matrix
	// orgLoads is n_i at solve time, the Fractions denominator.
	orgLoads []float64

	mu sync.Mutex
	// requests and fractions are the dense views, materialized lazily
	// under mu.
	requests  [][]float64
	fractions [][]float64
}

// M returns the number of organizations covered by the result.
func (r *Result) M() int { return len(r.orgLoads) }

// Requests returns the dense r matrix: Requests()[i][j] is r_ij, the
// number of organization i's requests executed at server j. The matrix
// is materialized (O(m²)) on first call and cached; prefer Each at
// scale. Treat the returned matrix as read-only.
func (r *Result) Requests() [][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.requests == nil && r.req != nil {
		r.requests = r.req.Dense()
	}
	return r.requests
}

// Fractions returns the dense relay-fraction matrix ρ with ρ_ij =
// r_ij / n_i (rows with n_i == 0 report ρ_ii = 1). Materialized lazily
// (O(m²)) and cached; treat as read-only. A nil result has none.
func (r *Result) Fractions() [][]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fractions != nil {
		return r.fractions
	}
	m := r.M()
	rho := make([][]float64, m)
	buf := make([]float64, m*m)
	for i, n := range r.orgLoads {
		rho[i], buf = buf[:m:m], buf[m:]
		if n == 0 {
			rho[i][i] = 1
			continue
		}
		for t, j := range r.req.Idx[i] {
			rho[i][j] = r.req.Val[i][t] / n
		}
	}
	r.fractions = rho
	return rho
}

// Each calls f for every stored allocation entry (i, j, r_ij) in row-
// major order — NNZ calls in all. A stored entry may be an explicit
// zero (an organization with no load keeps its identity entry), so
// check req != 0 when only mass matters. This is the O(nnz) way to
// consume a scale-tier result without materializing Requests.
func (r *Result) Each(f func(i, j int, req float64)) {
	for i := 0; i < r.M(); i++ {
		val := r.req.Val[i]
		for t, j := range r.req.Idx[i] {
			f(i, int(j), val[t])
		}
	}
}

// AllocationDistance returns Σ_ij |a_ij − b_ij|, the Manhattan distance
// between two results' allocations (the metric of paper Proposition 1;
// half of it is the volume of requests that changed server), merged over
// the stored entries in O(nnz_a + nnz_b). Results of different sizes (a
// churn event between them) are infinitely far apart: the distance is
// +Inf.
func AllocationDistance(a, b *Result) float64 {
	if a.M() != b.M() {
		return math.Inf(1)
	}
	var d float64
	for i := 0; i < a.M(); i++ {
		ia, va := a.req.Idx[i], a.req.Val[i]
		ib, vb := b.req.Idx[i], b.req.Val[i]
		x, y := 0, 0
		for x < len(ia) || y < len(ib) {
			switch {
			case y == len(ib) || (x < len(ia) && ia[x] < ib[y]):
				d += math.Abs(va[x])
				x++
			case x == len(ia) || ib[y] < ia[x]:
				d += math.Abs(vb[y])
				y++
			default:
				d += math.Abs(va[x] - vb[y])
				x++
				y++
			}
		}
	}
	return d
}

// NewResult builds a Result from an explicit requests matrix —
// NewResult(sys, req)[i][j] holding r_ij, organization i's requests
// executed at server j. This is the constructor for third-party solvers
// registered via RegisterSolver: loads, total cost and per-organization
// costs are derived from the system, exactly as the built-in solvers
// do, so Session.Reoptimize adopts the allocation and EpsilonNash /
// DistanceBound / RoundTasks accept the result. The result stores the
// matrix's nonzeros and keeps the matrix itself, uncopied, as its
// Requests view. Iteration/convergence metadata is the caller's to fill
// in.
//
// The matrix must be a feasible plan: every entry finite and at least
// −tol_i, and every row summing to its organization's load n_i within
// tol_i = 1e-6·max(1, n_i), the tolerance the built-in solvers are held
// to. Otherwise, and for a nil system, NewResult returns an error
// naming the first offending row.
func NewResult(sys *System, requests [][]float64) (*Result, error) {
	if sys == nil || sys.in == nil {
		return nil, errors.New("delaylb: NewResult needs a System, got nil")
	}
	m := sys.in.M()
	if len(requests) != m {
		return nil, fmt.Errorf("delaylb: NewResult got %d rows, want %d", len(requests), m)
	}
	for i, row := range requests {
		if len(row) != m {
			return nil, fmt.Errorf("delaylb: NewResult row %d has %d entries, want %d", i, len(row), m)
		}
		n := sys.in.Load[i]
		tol := 1e-6 * math.Max(1, n)
		var sum float64
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < -tol {
				return nil, fmt.Errorf("delaylb: NewResult row %d entry %d is %v, want finite and at least %v", i, j, v, -tol)
			}
			sum += v
		}
		if !(math.Abs(sum-n) <= tol) {
			return nil, fmt.Errorf("delaylb: NewResult row %d sums to %v, want its load %v within %v", i, sum, n, tol)
		}
	}
	return resultFromAllocation(sys.in, &model.Allocation{R: requests}), nil
}

// hasAllocation reports whether the result carries an allocation at all
// (solver errors can produce metadata-only results).
func (r *Result) hasAllocation() bool { return r.req != nil }

// resultFromAllocation builds a Result around a dense allocation: its
// nonzeros become the sparse backing and a.R the pre-filled Requests
// view. Loads, Cost and OrgCosts match model's dense folds bit for bit,
// since a dense zero only ever adds +0 to them.
func resultFromAllocation(in *model.Instance, a *model.Allocation) *Result {
	res := resultFromSparseRequests(in, sparse.FromDense(a.R, 0))
	res.requests = a.R
	return res
}

// resultFromSparseRequests builds a Result around a sparse requests
// matrix without densifying: loads, total cost and per-organization
// costs are computed in O(nnz + m) with the accumulation order of the
// dense model.TotalCost and model.OrgCosts.
func resultFromSparseRequests(in *model.Instance, req *sparse.Matrix) *Result {
	m := in.M()
	loads := make([]float64, m)
	for i := range req.Idx {
		val := req.Val[i]
		for t, j := range req.Idx[i] {
			loads[j] += val[t]
		}
	}
	lat := in.Latency
	var congestion float64
	for j, l := range loads {
		congestion += l * l / (2 * in.Speed[j])
	}
	var comm float64
	orgCosts := make([]float64, m)
	for i := range req.Idx {
		val := req.Val[i]
		var c float64
		for t, jj := range req.Idx[i] {
			v := val[t]
			if v == 0 {
				continue
			}
			j := int(jj)
			cij := lat.At(i, j)
			if j != i {
				comm += v * cij
			}
			c += v * (loads[j]/(2*in.Speed[j]) + cij)
		}
		orgCosts[i] = c
	}
	return &Result{
		req:      req,
		orgLoads: append([]float64(nil), in.Load...),
		Loads:    loads,
		Cost:     congestion + comm,
		OrgCosts: orgCosts,
		NNZ:      req.NNZ(),
	}
}

// options collects the solver selection plus the SolveOptions handed to
// the chosen registry entry.
type options struct {
	SolveOptions
	solver string
}

// Option customizes Optimize / NashEquilibrium / Reoptimize /
// SimulateDistributed.
type Option func(*options)

// WithSeed fixes the random seed (default 1); runs are deterministic for
// a fixed seed.
func WithSeed(seed int64) Option { return func(o *options) { o.Seed = seed } }

// WithMaxIterations caps the iteration count.
func WithMaxIterations(n int) Option { return func(o *options) { o.MaxIterations = n } }

// WithStrategy picks the MinE partner-selection strategy: "exact" (the
// paper's Algorithm 2, default), "hybrid" (short-listed exact) or
// "proxy" (O(1) scoring, for networks of thousands of servers).
func WithStrategy(name string) Option { return func(o *options) { o.Strategy = name } }

// WithCycleRemoval runs the Appendix A negative-cycle removal every n
// iterations (0 = never; the paper shows it is rarely needed).
func WithCycleRemoval(n int) Option { return func(o *options) { o.CycleRemovalEvery = n } }

// WithSolver selects the solver by registry name. Built-ins: "mine" (the
// distributed algorithm, default), "hybrid", "proxy" (MinE with the
// non-exact partner selections), "frankwolfe", "projgrad" (the §III
// baselines) and "nash" (best-response dynamics). Solvers added via
// RegisterSolver are selectable the same way.
func WithSolver(name string) Option { return func(o *options) { o.solver = name } }

// WithFWVariant selects the Frank–Wolfe step rule for the "frankwolfe"
// solver: FWClassic (plain conditional gradient, the default), FWAway
// (away steps over the active vertex set — linear convergence, lean warm
// iterates) or FWPairwise (pairwise steps, same properties). Solvers
// other than "frankwolfe" reject non-classic variants. Use
// ParseFWVariant to map command-line spellings.
func WithFWVariant(v FWVariant) Option { return func(o *options) { o.FWVariant = v } }

// WithTolerance sets the convergence tolerance of the QP baselines and
// of best-response dynamics (default solver-specific).
func WithTolerance(tol float64) Option { return func(o *options) { o.Tolerance = tol } }

// WithProgress registers a per-iteration callback (1-based iteration,
// current ΣC_i); returning false stops the solve early without error,
// leaving Reason == "callback" and Converged == false on the result.
func WithProgress(fn func(iteration int, cost float64) bool) Option {
	return func(o *options) { o.Progress = fn }
}

// WithSparse once selected the large-m scale tier. Every solve and
// every Session now keeps its allocation as sparse rows, and every
// Result reports NNZ, so the option does nothing.
//
// Deprecated: drop the call; results are identical without it.
func WithSparse() Option { return func(*options) {} }

// WithObs attaches an observability scope to the solve. The QP solvers
// report per-sweep duality gap, oracle-call and drop-step counts, and a
// "qp.solve" span into it. The MinE solvers (mine, hybrid, proxy)
// record one "core.solve" span carrying iters, reason (the index of the
// stop reason in stable, target, max-iters, callback, canceled), cost,
// nnz, searches (metro-index partner searches run) and search_nodes
// (tree nodes those searches visited). Telemetry is one-way — results
// and iteration trajectories are bit-identical with or without a scope,
// and the nil default (no WithObs) costs zero allocations on the solve
// hot paths.
func WithObs(sc *obs.Scope) Option { return func(o *options) { o.Obs = sc } }

// WithWarmStart starts the solve from the given requests matrix instead
// of the identity allocation. Rows are rescaled to the system's loads
// (see SolveOptions.WarmStart). Session.Reoptimize applies this
// automatically.
func WithWarmStart(requests [][]float64) Option {
	return func(o *options) { o.WarmStart = requests }
}

func buildOptions(opts []Option) options {
	o := options{solver: "mine"}
	o.Seed = 1
	for _, f := range opts {
		f(&o)
	}
	return o
}

// checkTolerance is the one check on WithTolerance, made by every entry
// point that reads it: NaN and ±Inf are errors, because +Inf would stop
// a solver at once as converged and NaN would never let one stop early.
func (o options) checkTolerance() error {
	if math.IsNaN(o.Tolerance) || math.IsInf(o.Tolerance, 0) {
		return fmt.Errorf("delaylb: Tolerance must be finite, got %v", o.Tolerance)
	}
	return nil
}

// Optimize computes the cooperative optimum of ΣC_i with a background
// context. The default solver is the paper's distributed MinE algorithm
// run to pairwise stability; WithSolver selects any other registered
// solver by name.
func (s *System) Optimize(opts ...Option) (*Result, error) {
	return s.OptimizeContext(context.Background(), opts...)
}

// OptimizeContext is Optimize with a caller-supplied context. The context
// is polled between iterations: on cancellation the partial best-so-far
// Result is returned alongside ctx.Err().
func (s *System) OptimizeContext(ctx context.Context, opts ...Option) (*Result, error) {
	o := buildOptions(opts)
	if err := o.checkTolerance(); err != nil {
		return nil, err
	}
	solver, err := resolveSolver(o.solver)
	if err != nil {
		return nil, err
	}
	return solver.Solve(ctx, s, o.SolveOptions)
}

// NashEquilibrium runs best-response dynamics until the paper's §VI-C
// termination rule (every organization changes < 1% for two consecutive
// sweeps) and returns the approximate equilibrium.
func (s *System) NashEquilibrium(opts ...Option) (*Result, error) {
	return s.NashEquilibriumContext(context.Background(), opts...)
}

// NashEquilibriumContext is NashEquilibrium with a caller-supplied
// context; on cancellation the partial result is returned with ctx.Err().
func (s *System) NashEquilibriumContext(ctx context.Context, opts ...Option) (*Result, error) {
	o := buildOptions(opts)
	if err := o.checkTolerance(); err != nil {
		return nil, err
	}
	solver, err := resolveSolver("nash")
	if err != nil {
		return nil, err
	}
	res, err := solver.Solve(ctx, s, o.SolveOptions)
	if err != nil {
		return res, err
	}
	// A deliberate Progress stop returns the partial state without error;
	// its Converged == false and Reason == "callback" say what it is.
	if !res.Converged && res.Reason != "callback" {
		return nil, errors.New("delaylb: best-response dynamics did not converge")
	}
	return res, nil
}

// EpsilonNash returns the largest relative gain any organization could
// still obtain by unilaterally deviating from the given allocation to its
// best response: 0 means an exact Nash equilibrium. A nil result, one
// without an allocation, or one sized for another system is an error.
func (s *System) EpsilonNash(res *Result) (float64, error) {
	if err := s.checkResult("EpsilonNash", res); err != nil {
		return 0, err
	}
	return game.EpsilonNash(s.in, &model.Allocation{R: res.Requests()}), nil
}

// PriceOfAnarchy measures the cost of selfishness: ΣC_i at the Nash
// equilibrium divided by the cooperative optimum (≥ 1). WithMaxIterations
// bounds the best-response sweeps and WithTolerance sets the per-sweep
// change tolerance of the §VI-C termination rule.
func (s *System) PriceOfAnarchy(opts ...Option) (float64, error) {
	o := buildOptions(opts)
	if err := o.checkTolerance(); err != nil {
		return 0, err
	}
	cfg := game.Config{MaxSweeps: o.MaxIterations, ChangeTol: o.Tolerance}
	res := game.MeasurePoA(s.in, cfg, rand.New(rand.NewSource(o.Seed)))
	return res.Ratio, nil
}

// TheoreticalPoABounds returns the Theorem 1 analytic band
// [1+2cs/lav−4(cs/lav)², 1+2cs/lav+(cs/lav)²] evaluated on this system's
// average latency, first server speed and average load. Meaningful for
// (near-)homogeneous systems.
func (s *System) TheoreticalPoABounds() (lower, upper float64) {
	return game.TheoremOneBounds(s.in.AverageLatency(), s.in.Speed[0], s.in.AverageLoad())
}

// DistanceBound returns the Proposition 1 bound on the Manhattan
// distance between the given result and the optimal allocation —
// computable without knowing the optimum. Negative cycles are removed
// from a copy first, as the proposition requires. The bound is
// deliberately conservative (factor (4m+1)·Σs_i); it is an operator's
// stop-or-continue signal, not a tight estimate. Expensive: O(m³ log m).
// The copy is built from the result's sparse entries, so the result's
// dense views stay unmaterialized. A nil result, one without an
// allocation, or one sized for another system is an error.
func (s *System) DistanceBound(res *Result) (float64, error) {
	if err := s.checkResult("DistanceBound", res); err != nil {
		return 0, err
	}
	st := core.NewState(s.in, res.req)
	core.RemoveCycles(st)
	return core.DistanceBound(st), nil
}

// checkResult is the input check of the calls that read a result's
// allocation: a nil result, one without an allocation (solver errors can
// produce metadata-only results), or one sized for another system is an
// error naming the call.
func (s *System) checkResult(call string, res *Result) error {
	if res == nil || !res.hasAllocation() {
		return fmt.Errorf("delaylb: %s needs a result with an allocation", call)
	}
	if m := s.M(); res.req.Rows() != m || res.req.Cols != m {
		return fmt.Errorf("delaylb: %s got a %d×%d allocation for a %d-server system", call, res.req.Rows(), res.req.Cols, m)
	}
	return nil
}

// OptimizeReplicated solves the §VII replication variant: every
// organization's requests must be spread so that no server holds more
// than 1/r of them (ρ_ij ≤ 1/r), enabling r-fold replica placement via
// PlaceReplicas.
func (s *System) OptimizeReplicated(r int, opts ...Option) (*Result, error) {
	if r < 1 || r > s.M() {
		return nil, fmt.Errorf("delaylb: replication factor %d out of range [1, %d]", r, s.M())
	}
	o := buildOptions(opts)
	if err := o.checkTolerance(); err != nil {
		return nil, err
	}
	rho := discrete.SolveReplicated(s.in, r, o.MaxIterations, o.Tolerance)
	return resultFromAllocation(s.in, model.FromFractions(s.in, rho)), nil
}

// PlaceReplicas samples, for one task of organization org, the r
// distinct servers that should hold its copies, with inclusion
// probabilities r·ρ_ij taken from a replicated optimization result. A
// nil result, one without an allocation or sized for another system, an
// org outside [0, m), an r outside [1, m], or a row with some ρ_ij above
// 1/r (beyond 1e-6, the OptimizeReplicated tolerance), which would place
// two copies on one server, is an error.
func (s *System) PlaceReplicas(res *Result, org, r int, seed int64) ([]int, error) {
	if err := s.checkResult("PlaceReplicas", res); err != nil {
		return nil, err
	}
	m := s.M()
	if org < 0 || org >= m {
		return nil, fmt.Errorf("delaylb: PlaceReplicas organization %d out of range [0, %d)", org, m)
	}
	if r < 1 || r > m {
		return nil, fmt.Errorf("delaylb: replication factor %d out of range [1, %d]", r, m)
	}
	row := res.Fractions()[org]
	for j, f := range row {
		if f > 1/float64(r)+1e-6 {
			return nil, fmt.Errorf("delaylb: PlaceReplicas organization %d sends %v of its requests to server %d, above 1/r = %v; solve with OptimizeReplicated(%d)", org, f, j, 1/float64(r), r)
		}
	}
	return discrete.PlaceReplicas(row, r, rand.New(rand.NewSource(seed))), nil
}

// Task is an indivisible request with a size, for the §VII discrete
// rounding.
type Task = discrete.Task

// maxTasks bounds the split GenerateTasks makes.
const maxTasks = 1 << 22

// GenerateTasks splits each organization's load into whole tasks of mean
// size meanSize (sizes vary lognormally): an organization with load n_i
// gets max(1, round(n_i/meanSize)) tasks summing to n_i, one without
// load none. A meanSize that is not positive and finite is an error, and
// so is a split into more than 4,194,304 (2²²) tasks in all, rejected
// before anything is allocated.
func (s *System) GenerateTasks(meanSize float64, seed int64) ([]Task, error) {
	if !(meanSize > 0) || math.IsInf(meanSize, 1) {
		return nil, fmt.Errorf("delaylb: GenerateTasks meanSize=%v, must be positive and finite", meanSize)
	}
	var total float64
	for _, n := range s.in.Load {
		if n > 0 {
			total += math.Max(1, math.Round(n/meanSize))
		}
	}
	if total > maxTasks {
		return nil, fmt.Errorf("delaylb: GenerateTasks meanSize=%v splits the loads into %.4g tasks, more than %d", meanSize, total, maxTasks)
	}
	return discrete.GenerateTasks(s.in, meanSize, rand.New(rand.NewSource(seed))), nil
}

// RoundTasks assigns whole tasks to servers approximating the fractional
// result (multiple-subset-sum greedy; over-assignment per server bounded
// by the organization's largest task). It returns the task → server
// assignment and the achieved discrete allocation as a Result. A nil
// result, one without an allocation or sized for another system, is an
// error, as is a task whose Org is outside [0, m) or whose Size is
// negative, NaN or infinite (the error names the first such task).
func (s *System) RoundTasks(res *Result, tasks []Task) ([]int, *Result, error) {
	if err := s.checkResult("RoundTasks", res); err != nil {
		return nil, nil, err
	}
	m := s.M()
	for k, t := range tasks {
		if t.Org < 0 || t.Org >= m {
			return nil, nil, fmt.Errorf("delaylb: RoundTasks task %d organization %d out of range [0, %d)", k, t.Org, m)
		}
		if math.IsNaN(t.Size) || math.IsInf(t.Size, 0) || t.Size < 0 {
			return nil, nil, fmt.Errorf("delaylb: RoundTasks task %d size %v, must be non-negative and finite", k, t.Size)
		}
	}
	asg := discrete.Round(s.in, res.Fractions(), tasks)
	vol := discrete.Volumes(s.in, tasks, asg)
	return asg, resultFromAllocation(s.in, vol), nil
}

// SimulateDistributed runs the message-passing runtime (gossip +
// pairwise balance proposals) from the identity allocation on a
// deterministic in-memory bus, for at most the given number of rounds,
// and returns the reached allocation along with the number of delivered
// messages. It is a fresh Session's RunCluster whose round callback is
// an improvement rule: the run stops early once a round improves ΣC_i
// by at most 1e-9 relative. Iterations is the number of rounds run,
// Converged is true only when that rule stopped the run (Reason
// "tolerance"), and Reason is "max-iters" otherwise. With rounds < 1
// nothing runs and the result is the identity allocation.
func (s *System) SimulateDistributed(rounds int, opts ...Option) (*Result, int) {
	o := buildOptions(opts)
	start := model.Identity(s.in)
	prev := model.TotalCost(s.in, start)
	improving := func(_ int, cost float64) bool {
		if prev-cost <= 1e-9*prev {
			return false
		}
		prev = cost
		return true
	}
	alloc, done, converged, delivered := runRuntime(context.Background(), s.in, start, o.Seed, rounds, improving)
	res := resultFromAllocation(s.in, alloc)
	res.Iterations = done
	res.Converged = converged
	res.Reason = "max-iters"
	if converged {
		res.Reason = "tolerance"
	}
	return res, delivered
}

// runRuntime is the tick loop of SimulateDistributed and RunCluster. It
// runs the runtime from start on a fresh bus for at most rounds tick
// rounds, stopping early once ctx is canceled or onRound, if non-nil,
// returns false after a round (it gets the round number and the current
// ΣC_i). It returns the reached allocation, the rounds run, whether
// onRound stopped the run and the number of delivered messages.
func runRuntime(ctx context.Context, in *model.Instance, start *model.Allocation, seed int64, rounds int,
	onRound func(round int, cost float64) bool) (alloc *model.Allocation, done int, stopped bool, delivered int) {
	bus := runtime.NewSimBusFromAllocation(in, start, runtimeMinGain(in), seed)
	for r := 1; r <= rounds; r++ {
		if ctx.Err() != nil {
			break
		}
		bus.Tick()
		done = r
		if onRound != nil && !onRound(r, bus.Cost(in)) {
			stopped = true
			break
		}
	}
	return bus.Allocation(), done, stopped, bus.Delivered
}

// runtimeMinGain is the proposal threshold of SimulateDistributed and
// RunCluster.
func runtimeMinGain(in *model.Instance) float64 {
	return 1e-6 * (1 + (&System{in: in}).Identity().Cost)
}
