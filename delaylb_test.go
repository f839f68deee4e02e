package delaylb

import (
	"math"
	"testing"
)

func testSystem(t *testing.T, m int, seed int64) *System {
	t.Helper()
	sys, err := New(
		UniformSpeeds(m, 1, 5, seed),
		ExponentialLoads(m, 60, seed+1),
		PlanetLabLatencies(m, seed+2),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewValidates(t *testing.T) {
	if _, err := New([]float64{1}, []float64{1, 2}, [][]float64{{0}}); err == nil {
		t.Fatal("mismatched shapes accepted")
	}
	if _, err := New([]float64{1, 2}, []float64{3, 4}, [][]float64{{0, 1}, {1, 0}}); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
}

func TestOptimizeDefaultSolver(t *testing.T) {
	sys := testSystem(t, 20, 1)
	res, err := sys.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("MinE did not converge")
	}
	if res.Cost <= 0 || len(res.Requests()) != 20 || len(res.CostTrace) == 0 {
		t.Errorf("suspicious result: cost=%v", res.Cost)
	}
	// Fractions must be row-stochastic.
	for i, row := range res.Fractions() {
		var sum float64
		for _, f := range row {
			if f < -1e-9 {
				t.Fatalf("negative fraction at row %d", i)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("fraction row %d sums to %v", i, sum)
		}
	}
	// OrgCosts must sum to Cost.
	var sum float64
	for _, c := range res.OrgCosts {
		sum += c
	}
	if math.Abs(sum-res.Cost) > 1e-6*res.Cost {
		t.Errorf("ΣOrgCosts %v != Cost %v", sum, res.Cost)
	}
}

func TestAllSolversAgree(t *testing.T) {
	sys := testSystem(t, 12, 3)
	mine, err := sys.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	fw, err := sys.Optimize(WithSolver("frankwolfe"), WithTolerance(1e-8), WithMaxIterations(100000))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := sys.Optimize(WithSolver("projgrad"), WithTolerance(1e-11), WithMaxIterations(100000))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"frankwolfe": fw, "projgrad": pg} {
		if rel := math.Abs(r.Cost-mine.Cost) / mine.Cost; rel > 1e-3 {
			t.Errorf("%s cost %v vs MinE %v (rel %v)", name, r.Cost, mine.Cost, rel)
		}
	}
}

func TestOptimizeUnknownSolver(t *testing.T) {
	sys := testSystem(t, 5, 4)
	if _, err := sys.Optimize(WithSolver("simplex")); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestOptimizeStrategies(t *testing.T) {
	sys := testSystem(t, 25, 5)
	exact, err := sys.Optimize(WithStrategy("exact"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hybrid", "proxy"} {
		res, err := sys.Optimize(WithStrategy(name))
		if err != nil {
			t.Fatal(err)
		}
		if rel := (res.Cost - exact.Cost) / exact.Cost; rel > 0.05 {
			t.Errorf("strategy %s stalled %.2f%% above exact", name, 100*rel)
		}
	}
}

func TestNashAndPoA(t *testing.T) {
	sys := testSystem(t, 15, 6)
	nash, err := sys.NashEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := sys.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	ratio := nash.Cost / opt.Cost
	if ratio < 1-1e-6 {
		t.Errorf("Nash %v beats optimum %v", nash.Cost, opt.Cost)
	}
	poa, err := sys.PriceOfAnarchy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(poa-ratio) > 0.02 {
		t.Errorf("PriceOfAnarchy = %v, manual ratio %v", poa, ratio)
	}
}

func TestTheoreticalPoABoundsHomogeneous(t *testing.T) {
	sys := Homogeneous(10, 1, 500, 5)
	lower, upper := sys.TheoreticalPoABounds()
	if lower > upper {
		t.Fatalf("band inverted: [%v, %v]", lower, upper)
	}
	poa, err := sys.PriceOfAnarchy()
	if err != nil {
		t.Fatal(err)
	}
	if poa < lower-0.02 || poa > upper+0.02 {
		t.Errorf("measured PoA %v outside band [%v, %v]", poa, lower, upper)
	}
}

func TestDistanceBoundShrinksAtOptimum(t *testing.T) {
	sys := testSystem(t, 10, 7)
	// Bound at the identity start (one peak-ish imbalanced state).
	start, err := sys.Optimize(WithMaxIterations(1))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := sys.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	bStart := sys.DistanceBound(start)
	bOpt := sys.DistanceBound(opt)
	totalLoad := 0.0
	for _, l := range opt.Loads {
		totalLoad += l
	}
	// At the optimum only sub-threshold numeric dust remains; the bound
	// must be a tiny fraction of the total load and far below the bound
	// of the unconverged state.
	if bOpt > 0.05*totalLoad {
		t.Errorf("distance bound %v at the optimum, want ≪ total load %v", bOpt, totalLoad)
	}
	if bStart > 0 && bOpt > bStart/5 {
		t.Errorf("bound did not shrink: start %v → optimum %v", bStart, bOpt)
	}
}

func TestReplicatedOptimization(t *testing.T) {
	sys := testSystem(t, 8, 8)
	const r = 3
	res, err := sys.OptimizeReplicated(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Fractions() {
		for j, f := range row {
			if f > 1.0/r+1e-6 {
				t.Fatalf("fraction[%d][%d] = %v exceeds 1/R", i, j, f)
			}
		}
	}
	picks := sys.PlaceReplicas(res, 0, r, 9)
	if len(picks) != r {
		t.Fatalf("got %d replicas, want %d", len(picks), r)
	}
	seen := map[int]bool{}
	for _, p := range picks {
		if seen[p] {
			t.Fatal("duplicate replica server")
		}
		seen[p] = true
	}
	if _, err := sys.OptimizeReplicated(0); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := sys.OptimizeReplicated(100); err == nil {
		t.Error("R>m accepted")
	}
}

func TestRoundTasks(t *testing.T) {
	sys := testSystem(t, 8, 10)
	res, err := sys.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	tasks := sys.GenerateTasks(3, 11)
	asg, disc := sys.RoundTasks(res, tasks)
	if len(asg) != len(tasks) {
		t.Fatalf("assignment covers %d of %d tasks", len(asg), len(tasks))
	}
	if rel := (disc.Cost - res.Cost) / res.Cost; rel > 0.1 {
		t.Errorf("discrete cost %.1f%% above fractional", 100*rel)
	}
}

// TestSimulateDistributed checks that the runtime converges, and pins its
// run and the hybrid and Nash solves on the same system bit for bit: no
// golden covers these paths.
func TestSimulateDistributed(t *testing.T) {
	sys := testSystem(t, 15, 12)
	opt, err := sys.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	res, delivered := sys.SimulateDistributed(40)
	if delivered == 0 {
		t.Fatal("no messages delivered")
	}
	if rel := (res.Cost - opt.Cost) / opt.Cost; rel > 0.05 {
		t.Errorf("distributed simulation stalled %.2f%% above optimum", 100*rel)
	}
	if got := math.Float64bits(res.Cost); got != 0x40cea45f8c0164a2 || delivered != 649 {
		t.Errorf("runtime: cost bits %#x after %d messages, want 0x40cea45f8c0164a2 after 649", got, delivered)
	}

	hybrid, err := sys.Optimize(WithSolver("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	nash, err := sys.NashEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		res   *Result
		bits  uint64
		iters int
	}{
		{"hybrid", hybrid, 0x40cea0d77add63b2, 6},
		{"nash", nash, 0x40cfc35067aea5a6, 6},
	} {
		if got := math.Float64bits(c.res.Cost); got != c.bits || c.res.Iterations != c.iters {
			t.Errorf("%s: cost bits %#x in %d iterations, want %#x in %d", c.name, got, c.res.Iterations, c.bits, c.iters)
		}
	}
}

func TestGeneratorsDeterminism(t *testing.T) {
	a := PlanetLabLatencies(10, 42)
	b := PlanetLabLatencies(10, 42)
	for i := range a {
		for j := range a {
			if a[i][j] != b[i][j] {
				t.Fatal("PlanetLabLatencies not deterministic")
			}
		}
	}
	if len(ZipfLoads(20, 50, 1)) != 20 || len(PeakLoads(20, 1000, 1)) != 20 {
		t.Fatal("bad generator lengths")
	}
	if ConstSpeeds(3, 2)[1] != 2 {
		t.Fatal("ConstSpeeds wrong")
	}
	if len(EuclideanLatencies(5, 100, 3)) != 5 {
		t.Fatal("EuclideanLatencies wrong size")
	}
	if len(UniformLoads(7, 10, 1)) != 7 {
		t.Fatal("UniformLoads wrong size")
	}
}
