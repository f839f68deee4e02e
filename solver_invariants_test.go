package delaylb

import (
	"math"
	"slices"
	"testing"

	"delaylb/internal/model"
)

// TestSolverInvariants is the registry-wide property test: every
// registered solver, on randomized small scenarios, must return a
// feasible plan — each organization's relay-fraction row non-negative
// and summing to 1 (a simplex point) — with a finite cost, a truthful
// NNZ, and loads and costs equal to the dense model folds, and so must
// NewResult on the same plan. Table-driven
// over SolverNames, so solvers registered later are covered
// automatically.
func TestSolverInvariants(t *testing.T) {
	scenarios := []Scenario{
		NewScenario(5).WithSeed(11),
		NewScenario(8).WithLoads(LoadUniform, 60).WithSeed(12),
		NewScenario(7).WithNetwork(NetHomogeneous).WithLoads(LoadPeak, 500).WithSeed(13),
		NewScenario(6).WithClusters(2).WithLatency(50).WithLoads(LoadZipf, 80).WithSeed(14),
		NewScenario(9).WithNetwork(NetEuclidean).WithLatency(80).WithSpeeds(SpeedConst, 2, 2).WithSeed(15),
		NewScenario(8).WithClusters(2).WithSeed(3),
	}
	for _, name := range SolverNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, sc := range scenarios {
				sys, err := sc.Build()
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.OptimizeContext(t.Context(), WithSolver(name), WithSeed(sc.Seed), WithMaxIterations(200))
				if err != nil {
					t.Fatalf("%v: %v", sc, err)
				}
				assertFeasibleResult(t, sys, sc, res)
				// A third-party solver rebuilding the same plan through
				// NewResult gets the same guarantees.
				rebuilt, err := NewResult(sys, res.Requests())
				if err != nil {
					t.Fatalf("%v: NewResult: %v", sc, err)
				}
				assertFeasibleResult(t, sys, sc, rebuilt)
			}
		})
	}
}

// TestMetadataOnlyResult pins the result a failed solve can return:
// no allocation, nothing to visit, and zero distance to its like.
func TestMetadataOnlyResult(t *testing.T) {
	empty := &Result{}
	if empty.NNZ != 0 || empty.M() != 0 {
		t.Fatalf("metadata-only result reports NNZ %d, M %d", empty.NNZ, empty.M())
	}
	empty.Each(func(i, j int, _ float64) { t.Errorf("metadata-only result visited (%d,%d)", i, j) })
	if d := AllocationDistance(&Result{}, &Result{}); d != 0 {
		t.Errorf("distance between metadata-only results = %v, want 0", d)
	}
}

func assertFeasibleResult(t *testing.T, sys *System, sc Scenario, res *Result) {
	t.Helper()
	if math.IsNaN(res.Cost) || math.IsInf(res.Cost, 0) || res.Cost < 0 {
		t.Fatalf("%v: cost %v not finite and non-negative", sc, res.Cost)
	}
	const tol = 1e-6
	for i, row := range res.Fractions() {
		var sum float64
		for j, f := range row {
			if f < -tol || math.IsNaN(f) {
				t.Fatalf("%v: fraction[%d][%d] = %v", sc, i, j, f)
			}
			sum += f
		}
		if math.Abs(sum-1) > tol {
			t.Fatalf("%v: fraction row %d sums to %v, want 1", sc, i, sum)
		}
	}
	// The requests view must be consistent with the loads the instance
	// defines: row i carries organization i's entire load.
	loads := sys.in.Load
	for i, row := range res.Requests() {
		var sum float64
		for _, r := range row {
			sum += r
		}
		if math.Abs(sum-loads[i]) > tol*math.Max(1, loads[i]) {
			t.Fatalf("%v: requests row %d sums to %v, want %v", sc, i, sum, loads[i])
		}
	}
	// NNZ counts exactly the entries Each visits, and Each agrees with
	// the dense view entry for entry.
	if res.NNZ <= 0 {
		t.Fatalf("%v: NNZ = %d, want > 0", sc, res.NNZ)
	}
	dense := res.Requests()
	visited := 0
	res.Each(func(i, j int, r float64) {
		visited++
		if dense[i][j] != r {
			t.Fatalf("%v: Each visits r[%d][%d] = %v, Requests holds %v", sc, i, j, r, dense[i][j])
		}
	})
	if visited != res.NNZ {
		t.Fatalf("%v: Each visited %d entries, NNZ says %d", sc, visited, res.NNZ)
	}
	// Loads, Cost and OrgCosts are model's dense folds, bit for bit.
	alloc := &model.Allocation{R: dense}
	if want := alloc.Loads(); !slices.Equal(res.Loads, want) {
		t.Fatalf("%v: Loads %v, dense fold %v", sc, res.Loads, want)
	}
	if want := model.TotalCost(sys.in, alloc); res.Cost != want {
		t.Fatalf("%v: Cost %v, dense fold %v", sc, res.Cost, want)
	}
	if want := model.OrgCosts(sys.in, alloc); !slices.Equal(res.OrgCosts, want) {
		t.Fatalf("%v: OrgCosts %v, dense fold %v", sc, res.OrgCosts, want)
	}
}
