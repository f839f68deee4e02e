package core

import (
	"math"
	"math/rand"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/qp"
)

func TestRunMonotoneDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := randInstance(rng, 20)
	_, tr := Run(in, Config{Rng: rand.New(rand.NewSource(3))})
	for k := 1; k < len(tr.Costs); k++ {
		if tr.Costs[k] > tr.Costs[k-1]+1e-6*math.Max(1, tr.Costs[k-1]) {
			t.Fatalf("cost increased at iteration %d: %v → %v", k, tr.Costs[k-1], tr.Costs[k])
		}
	}
	if !tr.Converged || tr.Reason != StopStable {
		t.Errorf("run should converge to stability, got %v/%v", tr.Converged, tr.Reason)
	}
}

// Cross-validation: MinE's stable point must match the certified convex
// optimum from the Frank–Wolfe baseline.
func TestRunReachesConvexOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		in := randInstance(rng, 4+rng.Intn(10))
		alloc, _ := Run(in, Config{Rng: rand.New(rand.NewSource(int64(trial)))})
		mine := model.TotalCost(in, alloc)
		fw := qp.SolveFrankWolfe(in, qp.Options{Tol: 1e-9, MaxIters: 200000})
		lower := fw.Cost - fw.Gap
		if mine > fw.Cost+1e-4*fw.Cost {
			t.Fatalf("MinE cost %v worse than FW %v", mine, fw.Cost)
		}
		if mine < lower-1e-4*math.Max(1, lower) {
			t.Fatalf("MinE cost %v below certified lower bound %v", mine, lower)
		}
	}
}

func TestRunAllStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := randInstance(rng, 25)
	ref := ReferenceOptimum(in, rand.New(rand.NewSource(7)))
	// The exact strategy must nail the optimum; hybrid gets very close;
	// the O(1) proxy is allowed a few percent (it trades optimality for
	// the O(m log m) per-step cost needed at Figure 2 scale).
	budgets := map[Strategy]float64{
		StrategyExact:  1e-4,
		StrategyHybrid: 0.01,
		StrategyProxy:  0.05,
	}
	for s, budget := range budgets {
		alloc, tr := Run(in, Config{Strategy: s, Rng: rand.New(rand.NewSource(8))})
		cost := model.TotalCost(in, alloc)
		if rel := (cost - ref) / ref; rel > budget {
			t.Errorf("strategy %d stalled %.3f%% above reference (budget %.2f%%)",
				s, 100*rel, 100*budget)
		}
		if !tr.Converged {
			t.Errorf("strategy %d did not converge", s)
		}
	}
}

func TestRunTargetStop(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := randInstance(rng, 20)
	ref := ReferenceOptimum(in, rand.New(rand.NewSource(11)))
	_, tr := Run(in, Config{
		Reference: ref,
		TargetRel: 0.02,
		Rng:       rand.New(rand.NewSource(12)),
	})
	if tr.Reason != StopTarget {
		t.Fatalf("reason = %v, want target", tr.Reason)
	}
	final := tr.Costs[len(tr.Costs)-1]
	if final > ref*1.02+1e-9 {
		t.Errorf("final cost %v above 2%% band of %v", final, ref)
	}
	// Reaching 2% must not take more than a handful of iterations on a
	// 20-server network (Table I reports ≤ 3 for m ≤ 50).
	if tr.Iters > 10 {
		t.Errorf("took %d iterations to reach 2%%, expected ≲ 10", tr.Iters)
	}
}

func TestRunMaxItersStops(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := randInstance(rng, 30)
	_, tr := Run(in, Config{MaxIters: 1, Rng: rand.New(rand.NewSource(14))})
	if tr.Iters != 1 {
		t.Fatalf("iters = %d, want 1", tr.Iters)
	}
	if tr.Converged && tr.Reason != StopStable {
		t.Error("must not report convergence after a capped run")
	}
}

func TestRunCallbackStops(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	in := randInstance(rng, 20)
	calls := 0
	_, tr := Run(in, Config{
		Rng:         rand.New(rand.NewSource(16)),
		OnIteration: func(iter int, cost float64) bool { calls++; return iter < 2 },
	})
	if calls != 2 || tr.Reason != StopCallback {
		t.Errorf("calls=%d reason=%v, want 2/callback", calls, tr.Reason)
	}
}

func TestRunDeterministicUnderSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := randInstance(rng, 15)
	a1, tr1 := Run(in, Config{Rng: rand.New(rand.NewSource(99))})
	a2, tr2 := Run(in, Config{Rng: rand.New(rand.NewSource(99))})
	if a1.L1Distance(a2) != 0 {
		t.Error("allocations differ under identical seeds")
	}
	if tr1.Iters != tr2.Iters {
		t.Error("iteration counts differ under identical seeds")
	}
}

func TestRunFinalAllocationValid(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 3+rng.Intn(15))
		alloc, _ := Run(in, Config{Rng: rand.New(rand.NewSource(int64(trial)))})
		if err := alloc.Validate(in, 1e-6); err != nil {
			t.Fatalf("invalid final allocation: %v", err)
		}
	}
}

// Homogeneous peak: one loaded server, everyone else idle. The optimum
// spreads the peak; MinE must find it and the final loads must be nearly
// equal across all servers used.
func TestRunPeakDistribution(t *testing.T) {
	m := 20
	in := model.Uniform(m, 1, 0, 10)
	in.Load[0] = 10000
	alloc, tr := Run(in, Config{Rng: rand.New(rand.NewSource(19))})
	if !tr.Converged {
		t.Fatal("did not converge")
	}
	loads := alloc.Loads()
	// With l_av = 500 ≫ c·s = 10, all servers should carry similar load.
	avg := 10000.0 / float64(m)
	for j, l := range loads {
		if math.Abs(l-avg) > 0.1*avg {
			t.Errorf("load[%d] = %v, want ≈%v", j, l, avg)
		}
	}
	// Identity cost is n²/2 = 5e7; optimum ≈ m·(l_av²/2) + comm ≈ 2.5e6.
	if final := tr.Costs[len(tr.Costs)-1]; final > 5e6 {
		t.Errorf("final cost %v too high for spread peak", final)
	}
}

// MinE on a network with forbidden links keeps the allocation feasible.
func TestRunWithForbiddenLinks(t *testing.T) {
	in := model.Uniform(6, 1, 100, 10)
	// Organization 0 may only use servers 0–2.
	for j := 3; j < 6; j++ {
		in.Latency.(model.DenseLatency)[0][j] = math.Inf(1)
	}
	alloc, _ := Run(in, Config{Rng: rand.New(rand.NewSource(20))})
	if err := alloc.Validate(in, 1e-6); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
	for j := 3; j < 6; j++ {
		if alloc.R[0][j] != 0 {
			t.Errorf("r[0][%d] = %v, want 0", j, alloc.R[0][j])
		}
	}
}

func TestReferenceOptimumStable(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	in := randInstance(rng, 12)
	a := ReferenceOptimum(in, rand.New(rand.NewSource(1)))
	b := ReferenceOptimum(in, rand.New(rand.NewSource(2)))
	if math.Abs(a-b) > 1e-6*math.Max(1, a) {
		t.Errorf("reference optimum depends on seed: %v vs %v", a, b)
	}
}

func BenchmarkMinEIterationExact100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randInstance(rng, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := NewIdentityState(in)
		b.StartTimer()
		RunState(st, Config{MaxIters: 1, Rng: rand.New(rand.NewSource(2))})
	}
}

func BenchmarkMinEIterationProxy1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randInstance(rng, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := NewIdentityState(in)
		b.StartTimer()
		RunState(st, Config{Strategy: StrategyProxy, MaxIters: 1, Rng: rand.New(rand.NewSource(2))})
	}
}

// TestRunStopsStableWhenNothingMoves pins the stable stop on the
// owner-list path. There the local cost before a pair step sums the
// owners of i and then those of j, while the cost after is summed
// interleaved, so a step that moves nothing can still report a gain of
// about 1e-12. Counting such a step as accepted kept this proxy run
// going to the iteration cap with nearly every iteration idle.
func TestRunStopsStableWhenNothingMoves(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(6)), 25)
	st := NewIdentityState(in)
	tr := RunState(st, Config{Strategy: StrategyProxy, Rng: rand.New(rand.NewSource(8))})
	if tr.Reason != StopStable || !tr.Converged {
		t.Fatalf("reason %v after %d iterations, want stable", tr.Reason, tr.Iters)
	}
	if tr.Iters > 50 {
		t.Fatalf("took %d iterations to stabilize, want a few dozen at most", tr.Iters)
	}
	// Every iteration before the last accepted an exchange, so every
	// one of them moved requests.
	for k, mv := range tr.Moved[:len(tr.Moved)-1] {
		if mv == 0 {
			t.Fatalf("iteration %d moved nothing but did not stop the run", k+1)
		}
	}
}
