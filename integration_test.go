package delaylb

// End-to-end integration tests exercising the full pipeline a downstream
// user would run: generate an instance → cooperative optimization →
// selfish play → discrete rounding → replication → distributed runtime,
// with cross-checks between every stage.

import (
	"math"
	"testing"
)

func TestFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration: skipped in -short mode")
	}
	const m = 25
	sys, err := New(
		UniformSpeeds(m, 1, 5, 100),
		ZipfLoads(m, 150, 101),
		PlanetLabLatencies(m, 102),
	)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Cooperative optimum via three independent algorithms.
	mine, err := sys.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	fw, err := sys.Optimize(WithSolver("frankwolfe"), WithTolerance(1e-8), WithMaxIterations(200000))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(fw.Cost-mine.Cost) / mine.Cost; rel > 1e-3 {
		t.Fatalf("solver disagreement: MinE %v vs FW %v", mine.Cost, fw.Cost)
	}

	// 2. Selfish play costs more, but not much more (Table III).
	nash, err := sys.NashEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	poa := nash.Cost / mine.Cost
	if poa < 1-1e-6 || poa > 1.2 {
		t.Fatalf("PoA = %v outside (1, 1.2]", poa)
	}

	// 3. Discrete rounding stays close to the fractional optimum.
	tasks, err := sys.GenerateTasks(4, 103)
	if err != nil {
		t.Fatal(err)
	}
	_, disc, err := sys.RoundTasks(mine, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if rel := (disc.Cost - mine.Cost) / mine.Cost; rel > 0.05 {
		t.Fatalf("rounding cost %v (+%.2f%%)", disc.Cost, 100*rel)
	}

	// 4. Replication: dearer than unconstrained, feasible caps.
	repl, err := sys.OptimizeReplicated(2)
	if err != nil {
		t.Fatal(err)
	}
	if repl.Cost < mine.Cost*(1-1e-9) {
		t.Fatalf("replicated cost %v below unconstrained %v", repl.Cost, mine.Cost)
	}

	// 5. The message-passing runtime reaches the same optimum.
	dist, msgs := sys.SimulateDistributed(50)
	if msgs == 0 {
		t.Fatal("runtime exchanged no messages")
	}
	if rel := (dist.Cost - mine.Cost) / mine.Cost; rel > 0.05 {
		t.Fatalf("runtime stalled %.2f%% above optimum", 100*rel)
	}

	// 6. The ordering of the regimes: optimum ≤ runtime, optimum ≤ nash,
	// and every allocation carries the same total mass.
	var want float64
	for _, n := range ZipfLoads(m, 150, 101) {
		want += n
	}
	for name, res := range map[string]*Result{
		"mine": mine, "nash": nash, "discrete": disc, "replicated": repl, "runtime": dist,
	} {
		var got float64
		for _, l := range res.Loads {
			got += l
		}
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s: total mass %v, want %v", name, got, want)
		}
	}
}

func TestPipelineWithForbiddenLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("integration: skipped in -short mode")
	}
	const m = 10
	lat := PlanetLabLatencies(m, 200)
	// Organization 0 trusts only servers 0–4.
	for j := 5; j < m; j++ {
		lat[0][j] = math.Inf(1)
	}
	sys, err := New(UniformSpeeds(m, 1, 5, 201), ExponentialLoads(m, 120, 202), lat)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := sys.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	for j := 5; j < m; j++ {
		if opt.Requests()[0][j] != 0 {
			t.Fatalf("optimizer placed %v on forbidden server %d", opt.Requests()[0][j], j)
		}
	}
	nash, err := sys.NashEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	for j := 5; j < m; j++ {
		if nash.Requests()[0][j] != 0 {
			t.Fatalf("nash placed %v on forbidden server %d", nash.Requests()[0][j], j)
		}
	}
}

// Determinism across the whole public surface: identical inputs and
// seeds must give byte-identical results.
func TestPipelineDeterminism(t *testing.T) {
	build := func() *Result {
		sys, err := New(
			UniformSpeeds(15, 1, 5, 300),
			ExponentialLoads(15, 90, 301),
			PlanetLabLatencies(15, 302),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Optimize(WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := build(), build()
	if a.Cost != b.Cost || a.Iterations != b.Iterations {
		t.Fatal("Optimize not deterministic under fixed seeds")
	}
	for i := range a.Requests() {
		for j := range a.Requests() {
			if a.Requests()[i][j] != b.Requests()[i][j] {
				t.Fatal("allocations differ under fixed seeds")
			}
		}
	}
}
