package sweep

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// TestPersistedBenchReport pins the repository's committed
// BENCH_scale.json against the code that (re)generates it.
//
// Structure: every later tier landed as a pure append — first the
// Frank–Wolfe variant cells, then the sparse MinE-state cells, then the
// structured latency-update cells, each sitting strictly after all
// earlier tiers, so the diff that introduced each touched no
// pre-existing line. Content: the deterministic columns of the cheap
// cells must reproduce exactly when re-run here (same seed, same
// budget), which both proves the committed numbers are honest and
// proves the newer engines did not perturb the classic solver's
// trajectory. And the tiers' headline facts: the away-step variant
// reaches the 2% optimality band within the 600-iteration budget at
// every grid size, including the m where the classic cells' persisted
// gap shows them still unconverged; the sparse-state cells match the
// proxy-sparse cells' costs bit for bit at the sizes both cover; the
// latency-update cells record a real per-event cost.
func TestPersistedBenchReport(t *testing.T) {
	data, err := os.ReadFile("../BENCH_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultBenchConfig()
	cfg.Seed = rep.Seed
	if rep.FWIters != cfg.FWIters || rep.FWTol != cfg.FWTol {
		t.Fatalf("report budget (%d, %g) differs from DefaultBenchConfig (%d, %g) — regenerate",
			rep.FWIters, rep.FWTol, cfg.FWIters, cfg.FWTol)
	}

	// Stacked pure appends: tier rank must be non-decreasing over the
	// file, so no historical cell follows any later tier's first cell.
	tier := func(s string) int {
		switch s {
		case "frankwolfe-away", "frankwolfe-pairwise":
			return 1
		case "mine-sparse-state":
			return 2
		case "latency-structured-update":
			return 3
		default:
			return 0
		}
	}
	prev := 0
	seen := map[int]bool{}
	for i, e := range rep.Entries {
		tr := tier(e.Solver)
		if tr < prev {
			t.Fatalf("entry %d (%s, tier %d) follows tier %d — the append invariant is broken", i, e.Solver, tr, prev)
		}
		prev = tr
		seen[tr] = true
	}
	for tr := 1; tr <= 3; tr++ {
		if !seen[tr] {
			t.Fatalf("report is missing tier %d cells — run cmd/tables -benchappend", tr)
		}
	}

	classicCost := map[int]float64{}
	classicGap := map[int]float64{}
	proxyCost := map[int]float64{}
	for _, e := range rep.Entries {
		if e.Solver == "frankwolfe-sparse" {
			classicCost[e.M], classicGap[e.M] = e.Cost, e.Gap
		}
		if e.Solver == "proxy-sparse" {
			proxyCost[e.M] = e.Cost
		}
	}
	for _, e := range rep.Entries {
		switch tier(e.Solver) {
		case 1:
			if e.ItersToBand <= 0 || e.ItersToBand > rep.FWIters {
				t.Errorf("m=%d %s: iters_to_band %d outside (0, %d] — the 2%% band was not reached within budget",
					e.M, e.Solver, e.ItersToBand, rep.FWIters)
			}
			if cost, ok := classicCost[e.M]; ok {
				if e.Cost > cost*(1+1e-9) {
					t.Errorf("m=%d %s: cost %v above the classic 600-iteration cost %v", e.M, e.Solver, e.Cost, cost)
				}
				if classicGap[e.M] <= 0 {
					t.Errorf("m=%d: classic gap %v not positive — the stall the variant tier fixes is gone, revisit the grid",
						e.M, classicGap[e.M])
				}
			}
			if e.NNZ <= 0 {
				t.Errorf("m=%d %s: no nnz recorded", e.M, e.Solver)
			}
		case 2:
			if e.NNZ <= 0 {
				t.Errorf("m=%d %s: no nnz recorded", e.M, e.Solver)
			}
			// Identical solver configuration. The proxy-sparse costs were
			// persisted from the dense state with the owner index, these
			// from the row store that replaced it: they must agree bit for
			// bit at the sizes both tiers cover.
			if want, ok := proxyCost[e.M]; ok && e.Cost != want {
				t.Errorf("m=%d: mine-sparse-state cost %v != proxy-sparse %v — the sparse state drifted off the oracle",
					e.M, e.Cost, want)
			}
		case 3:
			if e.ChurnEvents <= 0 || e.ChurnEventNS <= 0 {
				t.Errorf("m=%d %s: no per-event cost recorded: %+v", e.M, e.Solver, e)
			}
		}
	}
	wantCells := map[string][]int{
		"frankwolfe-away":           cfg.FWVariantSizes,
		"frankwolfe-pairwise":       cfg.FWVariantSizes,
		"mine-sparse-state":         cfg.MineSparseSizes,
		"latency-structured-update": cfg.LatencyUpdateSizes,
	}
	for solver, sizes := range wantCells {
		for _, m := range sizes {
			found := false
			for _, e := range rep.Entries {
				if e.M == m && e.Solver == solver {
					found = true
				}
			}
			if !found {
				t.Errorf("grid cell m=%d %s missing from the persisted report", m, solver)
			}
		}
	}

	// Reproduce the cheap cells' deterministic columns bit for bit — the
	// m=100 classic cell predates this tier, so its reproduction is the
	// "pre-existing cells untouched" check in executable form. Timings
	// and allocations are machine facts and deliberately unchecked.
	for _, want := range rep.Entries {
		if want.M != 100 {
			continue
		}
		switch want.Solver {
		case "frankwolfe-sparse", "frankwolfe-away", "frankwolfe-pairwise":
		default:
			continue
		}
		got, err := cfg.runCell(context.Background(), benchCell{want.M, want.Solver})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != want.Cost || got.Gap != want.Gap || got.Iters != want.Iters ||
			got.NNZ != want.NNZ || got.Converged != want.Converged || got.ItersToBand != want.ItersToBand {
			t.Errorf("m=%d %s: persisted (cost %v gap %v iters %d nnz %d conv %v band %d) != recomputed (cost %v gap %v iters %d nnz %d conv %v band %d)",
				want.M, want.Solver,
				want.Cost, want.Gap, want.Iters, want.NNZ, want.Converged, want.ItersToBand,
				got.Cost, got.Gap, got.Iters, got.NNZ, got.Converged, got.ItersToBand)
		}
	}
}
