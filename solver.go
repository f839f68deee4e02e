package delaylb

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"delaylb/internal/sparse"
	"delaylb/obs"
)

// SolveOptions carries the tuning knobs a Solver receives. The zero value
// asks for solver-specific defaults everywhere; the functional Options
// (WithSeed, WithMaxIterations, …) are the usual way to populate it.
type SolveOptions struct {
	// Seed drives any randomized tie-breaking (default 1); runs are
	// deterministic for a fixed seed.
	Seed int64
	// MaxIterations caps the iteration (or best-response sweep) count;
	// 0 means the solver's default.
	MaxIterations int
	// Tolerance is the convergence tolerance; 0 means the solver's
	// default.
	Tolerance float64
	// Strategy selects the MinE partner-selection rule for the "mine"
	// solver: "exact" (default), "hybrid" or "proxy". The "hybrid" and
	// "proxy" registry entries ignore it and force their own rule.
	Strategy string
	// CycleRemovalEvery runs the Appendix A negative-cycle removal every
	// n iterations (0 = never).
	CycleRemovalEvery int
	// Progress, if non-nil, is invoked between iterations with the
	// 1-based iteration number and the current ΣC_i; returning false
	// stops the solve early (the partial result is returned without
	// error, marked Reason "callback" and Converged false).
	Progress func(iteration int, cost float64) bool
	// WarmStart, if non-nil, is a requests matrix r_ij the solver should
	// start from instead of the identity allocation. Rows are rescaled to
	// the instance's loads, so an allocation computed for slightly
	// different loads (a Session after UpdateLoads) remains usable.
	// Session.Reoptimize fills it in for third-party solvers. The "nash"
	// solver ignores it: best-response dynamics are defined from the
	// identity start.
	WarmStart [][]float64
	// FWVariant selects the Frank–Wolfe step rule for the "frankwolfe"
	// solver: FWClassic (default), FWAway or FWPairwise (see
	// WithFWVariant). "projgrad" rejects non-classic values rather than
	// silently running a different algorithm; the non-QP solvers ignore
	// the field.
	FWVariant FWVariant
	// Obs, if non-nil, receives solver telemetry (per-sweep duality gap,
	// oracle calls, the MinE partner-search tallies, span timing).
	// Strictly a side channel: the solve path never reads it back,
	// results stay bit-identical, and the nil default adds zero
	// allocations. See WithObs.
	Obs *obs.Scope

	// warmSparse is the session's allocation (request units), the warm
	// start Session.Reoptimize hands the built-in solvers in place of
	// WarmStart.
	warmSparse *sparse.Matrix
}

// FWVariant names a Frank–Wolfe step rule. The spellings double as the
// command-line vocabulary (see ParseFWVariant).
type FWVariant string

const (
	// FWClassic is the plain conditional gradient of the paper's §III
	// baseline. Sublinear: the duality gap decays like O(1/t) and stalls
	// near the optimum, and warm iterates accumulate support because
	// every step spreads a little mass onto a new vertex.
	FWClassic FWVariant = "classic"
	// FWAway adds away steps over the active vertex set: when shifting
	// mass off the worst active vertex descends faster than shifting
	// onto the best one, the step moves away instead, and a maximal away
	// step drops the vertex from the support. Linear convergence on this
	// strongly-convex-over-the-simplex QP, lean warm iterates.
	FWAway FWVariant = "away"
	// FWPairwise moves mass directly from each row's worst active vertex
	// to its oracle vertex in one fused step — same linear-convergence
	// and support-hygiene story as FWAway.
	FWPairwise FWVariant = "pairwise"
)

// ParseFWVariant maps a user-facing spelling to an FWVariant. It accepts
// the canonical names plus common aliases: "" and "plain" mean classic,
// "away-step" means away, "pair" means pairwise. Unknown spellings are an
// error naming the accepted ones.
func ParseFWVariant(s string) (FWVariant, error) {
	switch s {
	case "", "classic", "plain":
		return FWClassic, nil
	case "away", "away-step":
		return FWAway, nil
	case "pairwise", "pair":
		return FWPairwise, nil
	}
	return "", fmt.Errorf("delaylb: unknown Frank–Wolfe variant %q (accepted: classic, away, pairwise)", s)
}

// Solver is a cooperative-optimum or equilibrium algorithm reachable
// through the registry. Solve must honour ctx between iterations: on
// cancellation it returns the partial best-so-far Result alongside
// ctx.Err(), so callers can keep serving a stale-but-feasible plan.
// Implementations must be safe for concurrent use by multiple goroutines
// (the built-ins are stateless values).
type Solver interface {
	// Name is the registry key ("mine", "frankwolfe", …).
	Name() string
	// Solve computes an allocation for the system under the options.
	Solve(ctx context.Context, sys *System, opts SolveOptions) (*Result, error)
}

var (
	solversMu sync.RWMutex
	solvers   = map[string]Solver{}
)

// RegisterSolver adds a solver to the registry under s.Name(), making it
// reachable via WithSolver(name) and Session.Reoptimize. It returns an
// error on an empty name or a duplicate registration.
func RegisterSolver(s Solver) error {
	if s == nil || s.Name() == "" {
		return fmt.Errorf("delaylb: RegisterSolver requires a named solver")
	}
	solversMu.Lock()
	defer solversMu.Unlock()
	if _, dup := solvers[s.Name()]; dup {
		return fmt.Errorf("delaylb: solver %q already registered", s.Name())
	}
	solvers[s.Name()] = s
	return nil
}

// LookupSolver returns the registered solver with the given name.
func LookupSolver(name string) (Solver, bool) {
	solversMu.RLock()
	defer solversMu.RUnlock()
	s, ok := solvers[name]
	return s, ok
}

// SolverNames lists the registered solver names, sorted.
func SolverNames() []string {
	solversMu.RLock()
	defer solversMu.RUnlock()
	names := make([]string, 0, len(solvers))
	for n := range solvers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// mustRegisterSolver registers the built-ins at init time.
func mustRegisterSolver(s Solver) {
	if err := RegisterSolver(s); err != nil {
		panic(err)
	}
}

// resolveSolver maps a WithSolver name to a registry entry, with an error
// naming the known solvers on a miss.
func resolveSolver(name string) (Solver, error) {
	s, ok := LookupSolver(name)
	if !ok {
		return nil, fmt.Errorf("delaylb: unknown solver %q (registered: %v)", name, SolverNames())
	}
	return s, nil
}
