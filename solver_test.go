package delaylb

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func TestSolverRegistryHasAllBuiltins(t *testing.T) {
	names := SolverNames()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"mine", "hybrid", "proxy", "frankwolfe", "projgrad", "nash"} {
		if !have[want] {
			t.Errorf("built-in solver %q not registered (have %v)", want, names)
		}
	}
	for _, n := range names {
		s, ok := LookupSolver(n)
		if !ok || s.Name() != n {
			t.Errorf("LookupSolver(%q) inconsistent", n)
		}
	}
}

func TestRegisterSolverRejectsDuplicatesAndNil(t *testing.T) {
	if err := RegisterSolver(nil); err == nil {
		t.Error("nil solver accepted")
	}
	if err := RegisterSolver(mineSolver{name: "mine"}); err == nil {
		t.Error("duplicate registration accepted")
	}
}

// stubSolver returns the identity allocation — the simplest possible
// custom solver, used to prove third-party registration works end to end.
type stubSolver struct{}

func (stubSolver) Name() string { return "identity-stub" }

func (stubSolver) Solve(ctx context.Context, sys *System, opts SolveOptions) (*Result, error) {
	res := sys.Identity()
	res.Converged = true
	res.Reason = "stub"
	return res, ctx.Err()
}

func TestCustomSolverReachableByName(t *testing.T) {
	if _, ok := LookupSolver("identity-stub"); !ok {
		if err := RegisterSolver(stubSolver{}); err != nil {
			t.Fatal(err)
		}
	}
	sys := testSystem(t, 8, 21)
	res, err := sys.Optimize(WithSolver("identity-stub"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != "stub" || res.Cost != sys.Identity().Cost {
		t.Errorf("custom solver not dispatched: %+v", res)
	}
}

func TestOptimizeUnknownSolverListsRegistry(t *testing.T) {
	sys := testSystem(t, 5, 22)
	_, err := sys.Optimize(WithSolver("no-such-solver"))
	if err == nil {
		t.Fatal("unknown solver accepted")
	}
}

// Every solver must return promptly from an already-canceled context with
// a partial (feasible) result and the context's error.
func TestAllSolversHonourPreCanceledContext(t *testing.T) {
	sys := testSystem(t, 10, 23)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"mine", "hybrid", "proxy", "frankwolfe", "projgrad", "nash"} {
		res, err := sys.OptimizeContext(ctx, WithSolver(name))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if res == nil || len(res.Requests()) != 10 {
			t.Fatalf("%s: no partial result on cancellation", name)
		}
		if res.Converged || res.Reason != "canceled" {
			t.Errorf("%s: canceled result marked %q converged=%v", name, res.Reason, res.Converged)
		}
		// The partial result must still be a feasible allocation.
		for i, row := range res.Requests() {
			var sum float64
			for _, v := range row {
				sum += v
			}
			if load := sys.Identity().Loads[i]; math.Abs(sum-load) > 1e-6*math.Max(1, load) {
				t.Fatalf("%s: partial allocation infeasible for org %d", name, i)
			}
		}
	}
}

// A cancellation arriving mid-solve must interrupt the run between
// iterations: the solve returns well before it would finish, with the
// best-so-far allocation.
func TestOptimizeContextMidSolveCancellation(t *testing.T) {
	// Large instance + exact strategy: a full solve takes many seconds.
	sys, err := NewScenario(150).WithLoads(LoadExponential, 200).WithSeed(9).Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	res, err := sys.OptimizeContext(ctx, WithSolver("mine"), WithMaxIterations(10000))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (elapsed %v)", err, elapsed)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation not prompt: took %v", elapsed)
	}
	if res == nil || res.Converged || res.Reason != "canceled" {
		t.Fatalf("bad partial result: %+v", res)
	}
	// The partial work must already have improved over the identity start.
	if id := sys.Identity().Cost; res.Cost >= id {
		t.Logf("note: canceled before any improvement (cost %v vs identity %v)", res.Cost, id)
	}
}

func TestWithProgressObservesAndStopsEarly(t *testing.T) {
	sys := testSystem(t, 15, 24)
	var seen []float64
	res, err := sys.Optimize(WithProgress(func(iter int, cost float64) bool {
		seen = append(seen, cost)
		return len(seen) < 2 // stop after 2 iterations
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || res.Iterations != 2 {
		t.Errorf("progress callback saw %d iterations, result says %d; want 2", len(seen), res.Iterations)
	}
	if res.Reason != string("callback") {
		t.Errorf("stop reason %q, want callback", res.Reason)
	}
	// Costs must be non-increasing.
	if len(seen) == 2 && seen[1] > seen[0] {
		t.Errorf("cost rose between iterations: %v", seen)
	}
}

func TestProgressReachesQPAndNashSolvers(t *testing.T) {
	sys := testSystem(t, 10, 25)
	for _, name := range []string{"frankwolfe", "projgrad"} {
		calls := 0
		if _, err := sys.Optimize(WithSolver(name), WithProgress(func(int, float64) bool {
			calls++
			return true
		})); err != nil {
			t.Fatal(err)
		}
		if calls == 0 {
			t.Errorf("%s: progress callback never invoked", name)
		}
	}
	calls := 0
	if _, err := sys.NashEquilibrium(WithProgress(func(int, float64) bool {
		calls++
		return true
	})); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("nash: progress callback never invoked")
	}
}

func TestWarmStartRejectsWrongShape(t *testing.T) {
	sys := testSystem(t, 8, 28)
	for _, solver := range []string{"mine", "frankwolfe"} {
		if _, err := sys.Optimize(WithSolver(solver), WithWarmStart(make([][]float64, 3))); err == nil {
			t.Errorf("%s: warm start with wrong row count accepted", solver)
		}
		ragged := make([][]float64, 8)
		for i := range ragged {
			ragged[i] = make([]float64, 5)
		}
		if _, err := sys.Optimize(WithSolver(solver), WithWarmStart(ragged)); err == nil {
			t.Errorf("%s: ragged warm start accepted", solver)
		}
	}
}

func TestCallbackStopReasonAcrossSolvers(t *testing.T) {
	sys := testSystem(t, 12, 29)
	stopAfterOne := func(int, float64) bool { return false }
	for _, solver := range []string{"mine", "frankwolfe", "projgrad", "nash"} {
		res, err := sys.Optimize(WithSolver(solver), WithProgress(stopAfterOne))
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		if res.Reason != "callback" {
			t.Errorf("%s: callback stop reported reason %q", solver, res.Reason)
		}
		if res.Converged {
			t.Errorf("%s: deliberate callback stop must not claim convergence", solver)
		}
	}
	// A progress-stopped NashEquilibrium returns the partial state
	// without the did-not-converge error.
	res, err := sys.NashEquilibrium(WithProgress(stopAfterOne))
	if err != nil {
		t.Fatalf("nash entry point errored on callback stop: %v", err)
	}
	if res == nil || res.Converged || res.Reason != "callback" {
		t.Errorf("nash callback stop mislabeled: %+v", res)
	}
}

func TestWarmStartOptionSkipsWork(t *testing.T) {
	sys := testSystem(t, 15, 26)
	opt, err := sys.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sys.Optimize(WithWarmStart(opt.Requests()))
	if err != nil {
		t.Fatal(err)
	}
	// Restarting at the optimum must terminate (pairwise stable) almost
	// immediately and not degrade the cost.
	if warm.Iterations > 2 {
		t.Errorf("warm restart at the optimum took %d iterations", warm.Iterations)
	}
	if warm.Cost > opt.Cost*(1+1e-9) {
		t.Errorf("warm restart degraded cost: %v vs %v", warm.Cost, opt.Cost)
	}
}

// Satellite regression: PriceOfAnarchy used to discard WithMaxIterations
// and WithTolerance, passing a zero Config to the measurement.
func TestPriceOfAnarchyHonoursOptions(t *testing.T) {
	sys := testSystem(t, 15, 27)
	def, err := sys.PriceOfAnarchy()
	if err != nil {
		t.Fatal(err)
	}
	oneSweep, err := sys.PriceOfAnarchy(WithMaxIterations(1))
	if err != nil {
		t.Fatal(err)
	}
	if def == oneSweep {
		t.Errorf("WithMaxIterations(1) ignored: PoA %v in both cases", def)
	}
	coarse, err := sys.PriceOfAnarchy(WithTolerance(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if def == coarse {
		t.Errorf("WithTolerance ignored: PoA %v in both cases", def)
	}
}

// customIdentitySolver is a minimal third-party solver: it "solves" by
// returning the identity allocation through the public NewResult
// constructor — the extension-point contract RegisterSolver documents.
type customIdentitySolver struct{}

func (customIdentitySolver) Name() string { return "custom-identity" }

func (customIdentitySolver) Solve(ctx context.Context, sys *System, opts SolveOptions) (*Result, error) {
	m := sys.M()
	req := make([][]float64, m)
	loads := sys.Identity().Loads
	for i := range req {
		req[i] = make([]float64, m)
		req[i][i] = loads[i]
	}
	res, err := NewResult(sys, req)
	if err != nil {
		return nil, err
	}
	res.Iterations = 1
	res.Converged = true
	res.Reason = "stable"
	return res, nil
}

// TestThirdPartySolverViaNewResult pins the RegisterSolver extension
// point across the lazy-Result refactor: a custom solver can construct
// an allocation-carrying Result, sessions adopt it, and the derived
// fields match what the built-in constructor computes.
func TestThirdPartySolverViaNewResult(t *testing.T) {
	if err := RegisterSolver(customIdentitySolver{}); err != nil {
		t.Fatal(err)
	}
	sys, err := NewScenario(12).WithSeed(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Optimize(WithSolver("custom-identity"))
	if err != nil {
		t.Fatal(err)
	}
	want := sys.Identity()
	if res.Cost != want.Cost {
		t.Fatalf("custom solver cost %v, want identity cost %v", res.Cost, want.Cost)
	}
	if res.M() != 12 || len(res.Requests()) != 12 || len(res.Fractions()) != 12 || len(res.OrgCosts) != 12 {
		t.Fatal("NewResult did not populate the derived views")
	}
	// Sessions must adopt the custom solver's allocation.
	sess := sys.NewSession(WithSolver("custom-identity"))
	if _, err := sess.Reoptimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sess.Cost(); got != want.Cost {
		t.Fatalf("session did not adopt the custom result: cost %v, want %v", got, want.Cost)
	}
	// And the analysis entry points accept it.
	if eps, err := sys.EpsilonNash(res); err != nil || eps < 0 {
		t.Fatalf("EpsilonNash on a custom result = %v, %v", eps, err)
	}
	// Shape mismatches are rejected instead of corrupting state.
	if _, err := NewResult(sys, make([][]float64, 3)); err == nil {
		t.Fatal("NewResult accepted a wrong-shaped matrix")
	}
}

// warmRecorder is a third-party solver that records the warm start a
// solve hands it and answers with the identity allocation.
type warmRecorder struct {
	mu   sync.Mutex
	warm [][]float64
}

func (*warmRecorder) Name() string { return "warm-recorder" }

func (w *warmRecorder) Solve(ctx context.Context, sys *System, opts SolveOptions) (*Result, error) {
	w.mu.Lock()
	w.warm = opts.WarmStart
	w.mu.Unlock()
	return sys.Identity(), ctx.Err()
}

// TestThirdPartySolverGetsSessionWarmStart pins the session side of the
// RegisterSolver contract: Reoptimize hands a third-party solver the
// session's carried-over allocation as the dense WarmStart, so after
// UpdateLoads it sees the rescaled matrix, every row summing to its new
// load.
func TestThirdPartySolverGetsSessionWarmStart(t *testing.T) {
	s, ok := LookupSolver("warm-recorder")
	if !ok {
		s = &warmRecorder{}
		if err := RegisterSolver(s); err != nil {
			t.Fatal(err)
		}
	}
	rec := s.(*warmRecorder)
	sess := testSystem(t, 8, 31).NewSession()
	ctx := context.Background()
	if _, err := sess.Reoptimize(ctx); err != nil {
		t.Fatal(err)
	}
	loads := sess.Loads()
	for i := range loads {
		loads[i] = loads[i]*1.5 + float64(i)
	}
	if err := sess.UpdateLoads(loads); err != nil {
		t.Fatal(err)
	}
	want := sess.Result().Requests()
	if _, err := sess.Reoptimize(ctx, WithSolver("warm-recorder")); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	warm := rec.warm
	rec.mu.Unlock()
	if len(warm) != len(loads) {
		t.Fatalf("third-party solver got a %d-row warm start, want %d rows", len(warm), len(loads))
	}
	for i, row := range warm {
		var sum float64
		for j, r := range row {
			if r != want[i][j] {
				t.Fatalf("warm start r[%d][%d] = %v, session holds %v", i, j, r, want[i][j])
			}
			sum += r
		}
		if math.Abs(sum-loads[i]) > 1e-9*math.Max(1, loads[i]) {
			t.Errorf("warm start row %d sums to %v, want the new load %v", i, sum, loads[i])
		}
	}
}
