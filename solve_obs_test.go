package delaylb

import (
	"slices"
	"testing"

	"delaylb/obs"
)

// TestMineSolveSpan pins the MinE solvers' telemetry: with a scope, one
// "core.solve" span whose attributes match the result, with one partner
// search per server per iteration on the metro index (proxy and hybrid
// on a block view) and none for the exact strategy; and results, cost
// traces and allocations bit-identical to the same solve without one.
func TestMineSolveSpan(t *testing.T) {
	sys, err := NewScenario(90).WithClusters(6).WithLoads(LoadZipf, 100).WithSeed(5).Build()
	if err != nil {
		t.Fatal(err)
	}
	m := sys.M()
	for _, name := range []string{"mine", "hybrid", "proxy"} {
		opts := []Option{WithSolver(name), WithMaxIterations(4), WithSeed(3)}
		plain, err := sys.Optimize(opts...)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		traced, err := sys.Optimize(append(opts, WithObs(obs.NewScope(nil, tr)))...)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(plain.CostTrace, traced.CostTrace) || plain.Cost != traced.Cost || plain.Reason != traced.Reason {
			t.Fatalf("%s: the scope changed the run: cost %v vs %v, reason %q vs %q", name, plain.Cost, traced.Cost, plain.Reason, traced.Reason)
		}
		if d := AllocationDistance(plain, traced); d != 0 {
			t.Fatalf("%s: allocations differ by %v with a scope", name, d)
		}
		var spans []obs.TraceEvent
		for _, ev := range tr.Events() {
			if ev.Name == "core.solve" {
				spans = append(spans, ev)
			}
		}
		if len(spans) != 1 {
			t.Fatalf("%s: %d core.solve spans, want 1", name, len(spans))
		}
		searches := 0
		if name != "mine" {
			searches = traced.Iterations * m
		}
		want := map[string]float64{
			"iters":    float64(traced.Iterations),
			"reason":   float64(slices.Index(stopReasons, "max-iters")),
			"cost":     traced.Cost,
			"nnz":      float64(traced.NNZ),
			"searches": float64(searches),
		}
		args := spans[0].Args
		if traced.Reason != "max-iters" {
			t.Fatalf("%s: stopped by %q; the test wants a max-iters stop", name, traced.Reason)
		}
		for k, v := range want {
			if args[k] != v {
				t.Errorf("%s: span %s = %v, want %v (args %v)", name, k, args[k], v, args)
			}
		}
		if nodes := args["search_nodes"]; (searches == 0) != (nodes == 0) {
			t.Errorf("%s: search_nodes %v for %d searches", name, nodes, searches)
		}
	}
}
