package delaylb_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each benchmark
// runs a reduced-scale version of the corresponding sweep (the full
// paper-scale runs are `go run ./cmd/tables -all -full`) and reports the
// headline quantity via b.ReportMetric so `go test -bench=.` doubles as
// a results summary:
//
//	BenchmarkTable1Convergence   → avg iterations to 2% error
//	BenchmarkTable2Convergence   → avg iterations to 0.1% error
//	BenchmarkTable3Selfishness   → max PoA ratio observed
//	BenchmarkTable4RTT           → μ at 0.5 MB/s (knee past 0.2 MB/s)
//	BenchmarkFigure2LargeNetwork → cost-decrease factor after 5 iters
//	BenchmarkSolverVsDistributed → wall-clock of each solver (§III claim)
//	BenchmarkAblation*           → design-choice comparisons
//
// This file lives in the external test package delaylb_test: it imports
// both the root package and sweep, and sweep itself imports delaylb for
// the Scenario cell builder — an import cycle if this harness sat inside
// package delaylb.

import (
	"fmt"
	"math/rand"
	"testing"

	"delaylb"
	"delaylb/internal/core"
	"delaylb/internal/model"
	"delaylb/internal/qp"
	"delaylb/sweep"
)

// benchInstance builds a §VI-A instance through the public Scenario
// builder — the same path every sweep cell takes.
func benchInstance(b *testing.B, sc delaylb.Scenario) *model.Instance {
	in, err := sc.Instance()
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func BenchmarkTable1Convergence(b *testing.B) {
	cfg := sweep.ConvergenceConfig{
		Sizes:     []int{20, 50},
		Dists:     []delaylb.LoadKind{delaylb.LoadUniform, delaylb.LoadExponential, delaylb.LoadPeak},
		AvgLoads:  []float64{50},
		PeakTotal: 100000,
		Networks:  []delaylb.NetworkKind{delaylb.NetHomogeneous, delaylb.NetPlanetLab},
		Tol:       0.02,
		Repeats:   1,
		Seed:      1,
		MaxIters:  100,
	}
	var avg float64
	for i := 0; i < b.N; i++ {
		rows := sweep.ConvergenceTable(cfg)
		avg = 0
		for _, r := range rows {
			avg += r.Summary.Avg
		}
		avg /= float64(len(rows))
	}
	b.ReportMetric(avg, "iters-to-2%")
}

func BenchmarkTable2Convergence(b *testing.B) {
	cfg := sweep.ConvergenceConfig{
		Sizes:     []int{20, 50},
		Dists:     []delaylb.LoadKind{delaylb.LoadUniform, delaylb.LoadExponential, delaylb.LoadPeak},
		AvgLoads:  []float64{50},
		PeakTotal: 100000,
		Networks:  []delaylb.NetworkKind{delaylb.NetHomogeneous, delaylb.NetPlanetLab},
		Tol:       0.001,
		Repeats:   1,
		Seed:      1,
		MaxIters:  100,
	}
	var avg float64
	for i := 0; i < b.N; i++ {
		rows := sweep.ConvergenceTable(cfg)
		avg = 0
		for _, r := range rows {
			avg += r.Summary.Avg
		}
		avg /= float64(len(rows))
	}
	b.ReportMetric(avg, "iters-to-0.1%")
}

func BenchmarkTable3Selfishness(b *testing.B) {
	cfg := sweep.SelfishnessConfig{
		Sizes:      []int{20},
		SpeedKinds: []delaylb.SpeedKind{delaylb.SpeedConst, delaylb.SpeedUniform},
		LavBuckets: []sweep.LavBucket{
			{Label: "lav=50", Loads: []float64{50}},
			{Label: "lav>=200", Loads: []float64{200}},
		},
		Networks: []delaylb.NetworkKind{delaylb.NetHomogeneous, delaylb.NetPlanetLab},
		Repeats:  1,
		Seed:     1,
	}
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, r := range sweep.SelfishnessTable(cfg) {
			if r.Summary.Max > worst {
				worst = r.Summary.Max
			}
		}
	}
	b.ReportMetric(worst, "max-PoA")
}

func BenchmarkTable4RTT(b *testing.B) {
	cfg := sweep.DefaultTable4Config()
	cfg.Probes = 60
	var mu500 float64
	for i := 0; i < b.N; i++ {
		res := sweep.Table4(cfg)
		for _, row := range res.Rows {
			if row.ThroughputKBps == 500 {
				mu500 = row.Mu
			}
		}
	}
	b.ReportMetric(mu500, "mu@0.5MBps")
}

func BenchmarkFigure1QStructure(b *testing.B) {
	in := benchInstance(b, delaylb.NewScenario(8).WithLoads(delaylb.LoadUniform, 50).WithSeed(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := qp.BuildQ(in)
		bv := qp.BuildB(in)
		_ = q
		_ = bv
	}
}

func BenchmarkFigure2LargeNetwork(b *testing.B) {
	cfg := sweep.Figure2Config{
		Sizes:      []int{500},
		PeakTotal:  100000,
		Iterations: 10,
		Seed:       1,
		Strategy:   core.StrategyProxy,
	}
	var factor float64
	for i := 0; i < b.N; i++ {
		s := sweep.Figure2(cfg)[0]
		// The run may reach pairwise stability before 5 iterations; use
		// the last recorded cost in that case.
		idx := 5
		if idx >= len(s.Costs) {
			idx = len(s.Costs) - 1
		}
		factor = s.Costs[0] / s.Costs[idx]
	}
	b.ReportMetric(factor, "cost-drop-5-iters")
}

// §III/§IV claim: the distributed algorithm beats the standard convex
// solvers in wall-clock even on one CPU.
func BenchmarkSolverVsDistributed(b *testing.B) {
	in := benchInstance(b, delaylb.NewScenario(50).WithLoads(delaylb.LoadExponential, 100).WithSeed(1))
	b.Run("MinE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Run(in, core.Config{Rng: rand.New(rand.NewSource(int64(i)))})
		}
	})
	b.Run("FrankWolfe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qp.SolveFrankWolfeSparse(in, qp.Options{Tol: 1e-6, MaxIters: 100000}).Dense()
		}
	})
	b.Run("ProjGrad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qp.SolveProjectedGradient(in, qp.Options{Tol: 1e-9, MaxIters: 100000})
		}
	})
}

// The concurrent sweep engine itself: the reduced Table I grid at one
// worker vs all CPUs. The two must agree byte-for-byte (runner_test.go);
// this pair measures what the parallelism buys in wall-clock.
func BenchmarkSweepEngine(b *testing.B) {
	cfg := sweep.ConvergenceConfig{
		Sizes:     []int{20, 30, 50},
		Dists:     []delaylb.LoadKind{delaylb.LoadUniform, delaylb.LoadExponential},
		AvgLoads:  []float64{50},
		PeakTotal: 100000,
		Networks:  []delaylb.NetworkKind{delaylb.NetHomogeneous, delaylb.NetPlanetLab},
		Tol:       0.02,
		Repeats:   2,
		Seed:      1,
		MaxIters:  100,
	}
	b.Run("Workers1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Workers = 1
			sweep.ConvergenceTable(c)
		}
	})
	b.Run("WorkersAll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep.ConvergenceTable(cfg)
		}
	})
}

// Ablation: partner-selection strategies (exact vs hybrid vs proxy).
func BenchmarkAblationPartnerStrategy(b *testing.B) {
	in := benchInstance(b, delaylb.NewScenario(100).WithLoads(delaylb.LoadExponential, 100).WithSeed(1))
	for name, s := range map[string]core.Strategy{
		"Exact":  core.StrategyExact,
		"Hybrid": core.StrategyHybrid,
		"Proxy":  core.StrategyProxy,
	} {
		b.Run(name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				alloc, _ := core.Run(in, core.Config{Strategy: s, Rng: rand.New(rand.NewSource(7))})
				cost = model.TotalCost(in, alloc)
			}
			b.ReportMetric(cost, "final-cost")
		})
	}
}

// Ablation: §VI-B — negative-cycle removal does not change convergence.
func BenchmarkAblationCycleRemoval(b *testing.B) {
	in := benchInstance(b, delaylb.NewScenario(50).WithLoads(delaylb.LoadExponential, 100).WithSeed(1))
	for name, every := range map[string]int{"Never": 0, "Every2": 2} {
		b.Run(name, func(b *testing.B) {
			var iters float64
			for i := 0; i < b.N; i++ {
				_, tr := core.Run(in, core.Config{
					RemoveCyclesEvery: every,
					Rng:               rand.New(rand.NewSource(3)),
				})
				iters = float64(tr.Iters)
			}
			b.ReportMetric(iters, "iterations")
		})
	}
}

// Ablation: error-bound computation cost (Proposition 1 is O(m³ log m)).
func BenchmarkAblationErrorBound(b *testing.B) {
	in := benchInstance(b, delaylb.NewScenario(40).WithLoads(delaylb.LoadExponential, 100).WithSeed(1))
	st := core.NewIdentityState(in)
	core.RunState(st, core.Config{MaxIters: 2, Rng: rand.New(rand.NewSource(2))})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DistanceBound(st)
	}
}

// End-to-end: the public API's cooperative path at a realistic size.
func BenchmarkPublicOptimize100(b *testing.B) {
	sys, err := delaylb.New(
		delaylb.UniformSpeeds(100, 1, 5, 1),
		delaylb.ExponentialLoads(100, 100, 2),
		delaylb.PlanetLabLatencies(100, 3),
	)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sys.Optimize(delaylb.WithStrategy("hybrid"), delaylb.WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end: Nash equilibrium at a realistic size.
func BenchmarkPublicNash100(b *testing.B) {
	sys, err := delaylb.New(
		delaylb.UniformSpeeds(100, 1, 5, 1),
		delaylb.ExponentialLoads(100, 100, 2),
		delaylb.PlanetLabLatencies(100, 3),
	)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sys.NashEquilibrium(); err != nil {
			b.Fatal(err)
		}
	}
}

// scaleTierInstance builds the scale-grid scenario (zipf loads on a
// clustered metro network) at the given size.
func scaleTierInstance(b *testing.B, m int) *model.Instance {
	b.Helper()
	return benchInstance(b, delaylb.NewScenario(m).
		WithClusters(8).
		WithLatency(100).
		WithLoads(delaylb.LoadZipf, 100).
		WithSeed(1))
}

// benchmarkFrankWolfe runs a fixed 30-iteration budget so the benchmark
// measures per-iteration work, asserts run-to-run determinism (the
// property CI can check on any machine) and reports the final cost.
// Speedups are NOT asserted: CI and dev containers may have one CPU and
// noisy clocks — the wall-clock trajectory lives in BENCH_scale.json.
func benchmarkFrankWolfe(b *testing.B, m int, sparseRun bool) {
	in := scaleTierInstance(b, m)
	opt := qp.Options{MaxIters: 30, Tol: 1e-12}
	b.ReportAllocs()
	b.ResetTimer()
	var first float64
	for i := 0; i < b.N; i++ {
		var cost float64
		if sparseRun {
			cost = qp.SolveFrankWolfeSparse(in, opt).Cost
		} else {
			cost = qp.SolveFrankWolfeSparse(in, opt).Dense().Cost
		}
		if i == 0 {
			first = cost
		} else if cost != first {
			b.Fatalf("run %d cost %v differs from first run %v", i, cost, first)
		}
	}
	b.ReportMetric(first, "final-cost")
}

func BenchmarkFrankWolfeDense(b *testing.B) {
	for _, m := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchmarkFrankWolfe(b, m, false) })
	}
}

func BenchmarkFrankWolfeSparse(b *testing.B) {
	for _, m := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchmarkFrankWolfe(b, m, true) })
	}
}

// benchmarkFrankWolfeVariant is benchmarkFrankWolfe for the active-set
// engine: same fixed budget, same determinism assertion, so the CI
// bench smoke exercises the away/pairwise sweeps at every tier size.
func benchmarkFrankWolfeVariant(b *testing.B, m int, variant qp.Variant) {
	in := scaleTierInstance(b, m)
	opt := qp.Options{MaxIters: 30, Tol: 1e-12, Variant: variant}
	b.ReportAllocs()
	b.ResetTimer()
	var first float64
	for i := 0; i < b.N; i++ {
		cost := qp.SolveFrankWolfeSparse(in, opt).Cost
		if i == 0 {
			first = cost
		} else if cost != first {
			b.Fatalf("run %d cost %v differs from first run %v", i, cost, first)
		}
	}
	b.ReportMetric(first, "final-cost")
}

func BenchmarkFrankWolfeAway(b *testing.B) {
	for _, m := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchmarkFrankWolfeVariant(b, m, qp.VariantAway) })
	}
}

func BenchmarkFrankWolfePairwise(b *testing.B) {
	for _, m := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchmarkFrankWolfeVariant(b, m, qp.VariantPairwise) })
	}
}
