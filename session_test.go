package delaylb

import (
	"context"
	"errors"
	"math"
	"testing"
)

// itersToBand returns the first trace index (= iteration count) at which
// the cost enters the band, or a large sentinel if it never does.
func itersToBand(trace []float64, band float64) int {
	for k, c := range trace {
		if c <= band {
			return k
		}
	}
	return 1 << 20
}

// The tentpole acceptance criterion: after a load update, a warm-start
// Reoptimize re-enters the 2% optimality band in fewer iterations than a
// cold solve of the same (updated) instance.
func TestSessionWarmReoptimizeBeatsColdToBand(t *testing.T) {
	sys, err := NewScenario(20).WithLoads(LoadExponential, 100).WithSeed(5).Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess := sys.NewSession()
	if _, err := sess.Reoptimize(ctx); err != nil {
		t.Fatal(err)
	}

	// ±20% deterministic churn — the dynamic-workload regime of §IX.
	loads := sess.Loads()
	for i := range loads {
		if i%2 == 0 {
			loads[i] = math.Round(loads[i] * 1.2)
		} else {
			loads[i] = math.Round(loads[i] * 0.8)
		}
	}
	if err := sess.UpdateLoads(loads); err != nil {
		t.Fatal(err)
	}

	warm, err := sess.Reoptimize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sess.System().Optimize()
	if err != nil {
		t.Fatal(err)
	}

	opt := math.Min(warm.Cost, cold.Cost)
	band := 1.02 * opt
	warmIters := itersToBand(warm.CostTrace, band)
	coldIters := itersToBand(cold.CostTrace, band)
	if warmIters >= coldIters {
		t.Errorf("warm start took %d iterations to the 2%% band, cold took %d — warm must be faster",
			warmIters, coldIters)
	}
}

func TestSessionUpdateLoadsRescalesAllocation(t *testing.T) {
	sys := testSystem(t, 10, 30)
	sess := sys.NewSession()
	if _, err := sess.Reoptimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	loads := sess.Loads()
	for i := range loads {
		loads[i] = math.Round(loads[i]*0.5) + 10
	}
	if err := sess.UpdateLoads(loads); err != nil {
		t.Fatal(err)
	}
	// The carried-over allocation must place exactly the new loads.
	res := sess.Result()
	for i, row := range res.Requests() {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-loads[i]) > 1e-6*math.Max(1, loads[i]) {
			t.Fatalf("org %d carries %v after rescale, want %v", i, sum, loads[i])
		}
	}
	if sess.Epoch() != 1 {
		t.Errorf("epoch %d after one update, want 1", sess.Epoch())
	}
}

func TestSessionUpdateLoadsValidates(t *testing.T) {
	sys := testSystem(t, 6, 31)
	sess := sys.NewSession()
	if err := sess.UpdateLoads([]float64{1, 2}); err == nil {
		t.Error("wrong-length loads accepted")
	}
	if err := sess.UpdateLoads([]float64{1, 2, -3, 4, 5, 6}); err == nil {
		t.Error("negative load accepted")
	}
	if sess.Epoch() != 0 {
		t.Error("failed updates must not advance the epoch")
	}
}

func TestSessionUpdateLatency(t *testing.T) {
	// Peak load on one server forces relaying, so link quality matters.
	sys, err := New(
		ConstSpeeds(5, 1),
		[]float64{500, 0, 0, 0, 0},
		HomogeneousLatencies(5, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession()
	if _, err := sess.Reoptimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := sess.Cost()

	if err := sess.UpdateLatency([][]float64{{0, 1}, {1, 0}}); err == nil {
		t.Error("wrong-shape latency accepted")
	}

	// Degrade every link 10×: the same allocation gets dearer.
	worse := HomogeneousLatencies(5, 100)
	if err := sess.UpdateLatency(worse); err != nil {
		t.Fatal(err)
	}
	if after := sess.Cost(); after <= before {
		t.Errorf("10x worse links did not raise the plan's cost: %v -> %v", before, after)
	}
	// Re-optimizing under the new network must help (or at least not hurt).
	res, err := sess.Reoptimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > sess.Cost()+1e-9 {
		t.Error("Reoptimize result and session state disagree")
	}
}

func TestSessionRunClusterConvergesAndAdopts(t *testing.T) {
	sys := testSystem(t, 12, 32)
	opt, err := sys.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession(WithSeed(33))
	rounds := 0
	res, err := sess.RunCluster(context.Background(), 60, func(r int, cost float64) bool {
		rounds = r
		return (cost-opt.Cost)/opt.Cost >= 0.05 // stop once within 5%
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("onRound callback never invoked")
	}
	if rel := (res.Cost - opt.Cost) / opt.Cost; rel > 0.05 {
		t.Errorf("cluster stalled %.2f%% above optimum after %d rounds", 100*rel, rounds)
	}
	// The session must have adopted the cluster's allocation.
	if math.Abs(sess.Cost()-res.Cost) > 1e-9*res.Cost {
		t.Errorf("session cost %v != cluster result %v", sess.Cost(), res.Cost)
	}
	// And the allocation must remain feasible.
	loads := sess.Loads()
	for i, row := range sess.Result().Requests() {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-loads[i]) > 1e-6*math.Max(1, loads[i]) {
			t.Fatalf("org %d mass %v after cluster run, want %v", i, sum, loads[i])
		}
	}
}

// RunCluster runs SimulateDistributed's protocol on the same bus. Below
// the round at which the simulation's improvement rule stops (9 on this
// system), k rounds from a fresh session reach its allocation bit for
// bit, and two sessions with one seed report identical per-round costs.
// RunCluster has no stopping rule of its own, so a run that uses up its
// tick budget reports Reason "rounds" and Converged false.
func TestRunClusterMatchesSimulateDistributed(t *testing.T) {
	sys := testSystem(t, 15, 12)
	ctx := context.Background()
	for _, k := range []int{3, 5, 8} {
		res, err := sys.NewSession().RunCluster(ctx, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != "rounds" || res.Converged || res.Iterations != k {
			t.Errorf("k=%d: budgeted cluster run reports reason=%q converged=%v iterations=%d, want rounds/false/%d", k, res.Reason, res.Converged, res.Iterations, k)
		}
		sim, _ := sys.SimulateDistributed(k)
		if d := AllocationDistance(res, sim); math.Float64bits(res.Cost) != math.Float64bits(sim.Cost) || d != 0 {
			t.Errorf("k=%d: RunCluster cost %v at distance %v from SimulateDistributed's %v", k, res.Cost, d, sim.Cost)
		}
	}
	trace := func() []float64 {
		var costs []float64
		if _, err := sys.NewSession().RunCluster(ctx, 12, func(_ int, cost float64) bool {
			costs = append(costs, cost)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return costs
	}
	a, b := trace(), trace()
	if len(a) != 12 || len(b) != 12 {
		t.Fatalf("onRound ran %d and %d times, want 12", len(a), len(b))
	}
	for r := range a {
		if math.Float64bits(a[r]) != math.Float64bits(b[r]) {
			t.Errorf("round %d: costs %v and %v under one seed", r+1, a[r], b[r])
		}
	}
}

// Callbacks run without the session lock held, so they may use the
// Session itself — this used to self-deadlock.
func TestSessionCallbacksMayUseSession(t *testing.T) {
	sys := testSystem(t, 8, 36)
	sess := sys.NewSession(WithSeed(37))
	calls := 0
	if _, err := sess.RunCluster(context.Background(), 3, func(r int, cost float64) bool {
		_ = sess.Cost() // re-entrant read must not deadlock
		calls++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("onRound ran %d times, want 3", calls)
	}
	if _, err := sess.Reoptimize(context.Background(), WithProgress(func(int, float64) bool {
		_ = sess.Epoch()
		return true
	})); err != nil {
		t.Fatal(err)
	}
	// An early onRound stop is labeled as such.
	res, err := sess.RunCluster(context.Background(), 10, func(int, float64) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != "callback" || res.Converged {
		t.Errorf("early cluster stop mislabeled: reason=%q converged=%v", res.Reason, res.Converged)
	}
}

// An update landing mid-solve must not be clobbered by the stale result.
func TestSessionStaleResultNotAdopted(t *testing.T) {
	sys := testSystem(t, 10, 38)
	sess := sys.NewSession()
	loads := sess.Loads()
	var once bool
	_, err := sess.Reoptimize(context.Background(), WithProgress(func(int, float64) bool {
		if !once {
			once = true
			for i := range loads {
				loads[i] += 5
			}
			if uerr := sess.UpdateLoads(loads); uerr != nil {
				t.Error(uerr)
			}
		}
		return true
	}))
	if err != nil {
		t.Fatal(err)
	}
	// The session's allocation must carry the NEW loads: adopting the
	// stale solve (feasible only for the old loads) would break mass.
	for i, row := range sess.Result().Requests() {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-loads[i]) > 1e-6*math.Max(1, loads[i]) {
			t.Fatalf("org %d carries %v, want the updated %v — stale result was adopted", i, sum, loads[i])
		}
	}
	if sess.Epoch() != 1 {
		t.Errorf("epoch %d, want 1", sess.Epoch())
	}
}

func TestSessionReoptimizeCancellationKeepsPartial(t *testing.T) {
	sys := testSystem(t, 15, 34)
	sess := sys.NewSession()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sess.Reoptimize(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result on cancellation")
	}
	// The session keeps serving its (unimproved but feasible) plan.
	if got, want := sess.Cost(), sys.Identity().Cost; math.Abs(got-want) > 1e-9*want {
		t.Errorf("session cost %v after canceled first solve, want identity %v", got, want)
	}
}

func TestSessionDefaultsAndOverrides(t *testing.T) {
	sys := testSystem(t, 10, 35)
	sess := sys.NewSession(WithSolver("frankwolfe"), WithTolerance(1e-8), WithMaxIterations(50000))
	res, err := sess.Reoptimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Gap == 0 && res.Iterations == 0 {
		t.Error("session default solver options were ignored")
	}
	// Per-call override wins over the session default.
	res2, err := sess.Reoptimize(context.Background(), WithSolver("mine"))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reason != "stable" && res2.Reason != "max-iters" {
		t.Errorf("override solver did not run MinE (reason %q)", res2.Reason)
	}
}
