package delaylb

import (
	"math"
	"testing"

	"delaylb/internal/qp"
)

// TestCrossSolverAgreement pins the satellite requirement: frankwolfe,
// projgrad and mine must converge to costs within tolerance of the
// dense-QP optimum on random m ≤ 8 instances, with the materialized
// BuildQ/BuildB program as the oracle. The reference optimum is the
// Frank–Wolfe cost minus its duality gap (a certified lower bound), so
// the check does not trust any single solver: every cost must sit in
// the interval [lower bound, lower bound · (1 + tol)].
func TestCrossSolverAgreement(t *testing.T) {
	const relTol = 2e-3
	scenarios := []Scenario{
		NewScenario(4).WithSeed(21),
		NewScenario(6).WithLoads(LoadUniform, 40).WithSeed(22),
		NewScenario(8).WithNetwork(NetHomogeneous).WithLoads(LoadExponential, 120).WithSeed(23),
		NewScenario(8).WithClusters(3).WithLatency(60).WithLoads(LoadZipf, 90).WithSeed(24),
	}
	for _, sc := range scenarios {
		in, err := sc.Instance()
		if err != nil {
			t.Fatal(err)
		}
		q := qp.BuildQ(in)
		b := qp.BuildB(in)

		// Certify a reference optimum with a tight Frank–Wolfe run. The
		// gap tolerance is 1e-5 relative — FW converges sublinearly
		// (zigzagging makes tighter targets take unbounded iterations) —
		// which still leaves two orders of magnitude between the
		// certificate and the 2e-3 agreement band.
		ref := qp.SolveFrankWolfeSparse(in, qp.Options{Tol: 1e-5, MaxIters: 200000}).Dense()
		if !ref.Converged {
			t.Fatalf("%v: reference Frank–Wolfe did not converge (gap %g)", sc, ref.Gap)
		}
		lower := ref.Cost - ref.Gap

		// The model objective and the dense quadratic program must agree
		// on the reference point: this is what makes BuildQ an oracle.
		denseEval := qp.QuadraticForm(q, b, qp.Flatten(ref.Rho))
		if rel := math.Abs(denseEval-ref.Cost) / math.Max(1, ref.Cost); rel > 1e-9 {
			t.Fatalf("%v: dense QP evaluates reference to %v, objective says %v", sc, denseEval, ref.Cost)
		}

		sys, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, solver := range []string{"frankwolfe", "projgrad", "mine"} {
			res, err := sys.Optimize(WithSolver(solver), WithSeed(1), WithTolerance(1e-9))
			if err != nil {
				t.Fatalf("%v %s: %v", sc, solver, err)
			}
			if res.Cost < lower-1e-9*math.Max(1, lower) {
				t.Fatalf("%v %s: cost %v below certified lower bound %v", sc, solver, res.Cost, lower)
			}
			if res.Cost > lower*(1+relTol)+1e-9 {
				t.Fatalf("%v %s: cost %v exceeds optimum %v by more than %g rel", sc, solver, res.Cost, lower, relTol)
			}
			// Cross-check each solver's plan against the dense program too.
			flat := qp.Flatten(res.Fractions())
			if got := qp.QuadraticForm(q, b, flat); math.Abs(got-res.Cost)/math.Max(1, res.Cost) > 1e-9 {
				t.Fatalf("%v %s: dense QP evaluates plan to %v, solver reported %v", sc, solver, got, res.Cost)
			}
		}

		// The away-step and pairwise variants must land in the same
		// agreement band — same optimum, same oracle, different (faster)
		// route.
		for _, variant := range []FWVariant{FWAway, FWPairwise} {
			res, err := sys.Optimize(WithSolver("frankwolfe"), WithFWVariant(variant), WithTolerance(1e-9))
			if err != nil {
				t.Fatalf("%v fw/%s: %v", sc, variant, err)
			}
			if res.Cost < lower-1e-9*math.Max(1, lower) {
				t.Fatalf("%v fw/%s: cost %v below certified lower bound %v", sc, variant, res.Cost, lower)
			}
			if res.Cost > lower*(1+relTol)+1e-9 {
				t.Fatalf("%v fw/%s: cost %v exceeds optimum %v by more than %g rel", sc, variant, res.Cost, lower, relTol)
			}
			flat := qp.Flatten(res.Fractions())
			if got := qp.QuadraticForm(q, b, flat); math.Abs(got-res.Cost)/math.Max(1, res.Cost) > 1e-9 {
				t.Fatalf("%v fw/%s: dense QP evaluates plan to %v, solver reported %v", sc, variant, got, res.Cost)
			}
		}
	}
}

// TestFWVariantsConvergeWhereClassicStalls is the public-API face of the
// linear-convergence regression: under one shared iteration budget and a
// tolerance classic FW cannot reach (its gap zigzags sublinearly), the
// away-step and pairwise variants must report Converged via the same
// duality-gap stopping rule — and beat classic's final gap outright.
func TestFWVariantsConvergeWhereClassicStalls(t *testing.T) {
	sc := NewScenario(8).WithClusters(3).WithLatency(60).WithLoads(LoadZipf, 90).WithSeed(24)
	sys, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	budget := []Option{WithSolver("frankwolfe"), WithTolerance(1e-8), WithMaxIterations(5000)}

	classic, err := sys.Optimize(budget...)
	if err != nil {
		t.Fatal(err)
	}
	if classic.Converged {
		t.Fatalf("classic FW converged to 1e-8 in %d iters — the stall this test pins is gone", classic.Iterations)
	}

	for _, variant := range []FWVariant{FWAway, FWPairwise} {
		res, err := sys.Optimize(append(append([]Option(nil), budget...), WithFWVariant(variant))...)
		if err != nil {
			t.Fatalf("fw/%s: %v", variant, err)
		}
		if !res.Converged || res.Reason != "tolerance" {
			t.Fatalf("fw/%s: converged=%v reason=%q after %d iters (gap %v) — want tolerance convergence",
				variant, res.Converged, res.Reason, res.Iterations, res.Gap)
		}
		if res.Iterations >= classic.Iterations {
			t.Fatalf("fw/%s took %d iters, classic's full budget is %d", variant, res.Iterations, classic.Iterations)
		}
		if res.Gap >= classic.Gap {
			t.Fatalf("fw/%s final gap %v not below classic's stalled gap %v", variant, res.Gap, classic.Gap)
		}
	}
}

// TestFWVariantOptionValidation pins the registry-level contract around
// WithFWVariant: unknown spellings and non-FW solvers fail loudly, and
// ParseFWVariant normalizes the documented aliases.
func TestFWVariantOptionValidation(t *testing.T) {
	sys, err := NewScenario(4).WithSeed(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Optimize(WithSolver("frankwolfe"), WithFWVariant("sideways")); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if _, err := sys.Optimize(WithSolver("projgrad"), WithFWVariant(FWAway)); err == nil {
		t.Fatal("projgrad accepted an away-step variant it cannot run")
	}
	if _, err := sys.Optimize(WithSolver("projgrad"), WithFWVariant(FWClassic)); err != nil {
		t.Fatalf("projgrad rejected the classic default: %v", err)
	}
	for spelling, want := range map[string]FWVariant{
		"": FWClassic, "classic": FWClassic, "plain": FWClassic,
		"away": FWAway, "away-step": FWAway,
		"pairwise": FWPairwise, "pair": FWPairwise,
	} {
		got, err := ParseFWVariant(spelling)
		if err != nil || got != want {
			t.Fatalf("ParseFWVariant(%q) = (%v, %v), want %v", spelling, got, err, want)
		}
	}
	if _, err := ParseFWVariant("frankwolfe"); err == nil {
		t.Fatal("ParseFWVariant accepted a solver name as a variant")
	}
}
