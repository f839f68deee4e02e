package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

func smallBenchConfig() BenchConfig {
	cfg := DefaultBenchConfig()
	cfg.Sizes = []int{30, 60}
	cfg.MineMax = 60
	cfg.FWIters = 50
	cfg.MineIters = 4
	cfg.DescentSizes = []int{30}
	cfg.DescentRounds = 80
	cfg.FWVariantSizes = []int{30, 60}
	cfg.MineSparseSizes = []int{30, 60}
	cfg.LatencyUpdateSizes = []int{30}
	return cfg
}

func TestRunBenchDeterministicAggregates(t *testing.T) {
	cfg := smallBenchConfig()
	start := time.Now()
	a, err := RunBench(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBench(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("two small bench runs in %v", time.Since(start).Round(time.Millisecond))

	wantCells := 2*4 + 1 + 2*2 + 2 + 1 // two solvers + both churn cells per size, one descent cell, two FW-variant cells per size, two mine-sparse-state cells, one latency-update cell
	if len(a.Entries) != wantCells || len(b.Entries) != wantCells {
		t.Fatalf("entry counts %d/%d, want %d", len(a.Entries), len(b.Entries), wantCells)
	}
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		if x.M != y.M || x.Solver != y.Solver || x.Scenario != y.Scenario {
			t.Fatalf("cell %d identity differs: %+v vs %+v", i, x, y)
		}
		// The deterministic fields must agree byte for byte; timings and
		// allocations are machine facts and deliberately unchecked.
		if x.Cost != y.Cost || x.Gap != y.Gap || x.Iters != y.Iters || x.NNZ != y.NNZ || x.Converged != y.Converged {
			t.Fatalf("cell %d (m=%d %s) not deterministic: %+v vs %+v", i, x.M, x.Solver, x, y)
		}
		// Descent cells add two more deterministic columns (bytes and
		// rounds are seed facts; only RoundNS is a machine fact), the
		// FW-variant cells one (iterations to the 2% band).
		if x.RoundsToBand != y.RoundsToBand || x.BytesPerRound != y.BytesPerRound || x.ItersToBand != y.ItersToBand {
			t.Fatalf("cell %d (m=%d %s) band columns not deterministic: %+v vs %+v", i, x.M, x.Solver, x, y)
		}
		if x.Cost <= 0 || x.Iters <= 0 {
			t.Fatalf("cell %d (m=%d %s) has degenerate aggregates: %+v", i, x.M, x.Solver, x)
		}
	}
}

func TestBenchReportJSON(t *testing.T) {
	cfg := smallBenchConfig()
	cfg.Sizes = []int{20}
	rep, err := RunBench(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(back.Entries) != len(rep.Entries) || back.Seed != rep.Seed {
		t.Fatal("JSON round-trip lost entries")
	}
	var table bytes.Buffer
	FprintBenchReport(&table, rep)
	if table.Len() == 0 {
		t.Fatal("FprintBenchReport wrote nothing")
	}
}

// TestAppendBenchPureAppend pins the contract cmd/tables -benchappend
// relies on: extending a report that predates the FW-variant,
// sparse-state and latency-update tiers runs only the missing cells and
// leaves every historical entry — including its machine-fact timings —
// byte-for-byte untouched.
func TestAppendBenchPureAppend(t *testing.T) {
	old := smallBenchConfig()
	old.FWVariantSizes = nil
	old.MineSparseSizes = nil
	old.LatencyUpdateSizes = nil
	rep, err := RunBench(context.Background(), old, nil)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := json.Marshal(rep.Entries)
	if err != nil {
		t.Fatal(err)
	}
	before := len(rep.Entries)

	added, err := AppendBench(context.Background(), smallBenchConfig(), rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*2 + 2 + 1; added != want {
		t.Fatalf("AppendBench added %d cells, want %d", added, want)
	}
	got, err := json.Marshal(rep.Entries[:before])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frozen, got) {
		t.Fatal("AppendBench modified pre-existing entries")
	}
	proxyCost := map[int]float64{}
	for _, e := range rep.Entries[:before] {
		if e.Solver == "proxy-sparse" {
			proxyCost[e.M] = e.Cost
		}
	}
	for _, e := range rep.Entries[before:] {
		if e.Cost <= 0 || e.Iters <= 0 {
			t.Fatalf("appended cell m=%d %s has degenerate aggregates: %+v", e.M, e.Solver, e)
		}
		switch e.Solver {
		case "frankwolfe-away", "frankwolfe-pairwise":
			if e.NNZ <= 0 {
				t.Fatalf("appended cell m=%d %s recorded no nnz", e.M, e.Solver)
			}
			if e.ItersToBand <= 0 {
				t.Fatalf("appended cell m=%d %s never reached the 2%% band (iters_to_band %d)", e.M, e.Solver, e.ItersToBand)
			}
		case "mine-sparse-state":
			if e.NNZ <= 0 {
				t.Fatalf("appended cell m=%d %s recorded no nnz", e.M, e.Solver)
			}
			// Same solve as proxy-sparse under another name: the costs
			// must agree bit for bit at sizes both tiers cover.
			if want, ok := proxyCost[e.M]; ok && e.Cost != want {
				t.Fatalf("m=%d: mine-sparse-state cost %v != proxy-sparse %v", e.M, e.Cost, want)
			}
		case "latency-structured-update":
			if e.ChurnEvents <= 0 || e.ChurnEventNS <= 0 {
				t.Fatalf("appended cell m=%d %s recorded no per-event cost: %+v", e.M, e.Solver, e)
			}
		default:
			t.Fatalf("appended unexpected cell %q", e.Solver)
		}
	}
	// A second append is a no-op: the grid is saturated.
	if added, err := AppendBench(context.Background(), smallBenchConfig(), rep, nil); err != nil || added != 0 {
		t.Fatalf("saturated AppendBench = (%d, %v), want (0, nil)", added, err)
	}
}

func TestRunBenchCancellation(t *testing.T) {
	cfg := smallBenchConfig()
	progressed := 0
	ctx, cancel := context.WithCancel(context.Background())
	rep, err := RunBench(ctx, cfg, func(done, total int) {
		progressed = done
		if done == 2 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("canceled bench run returned no error")
	}
	if progressed < 2 || len(rep.Entries) < 2 {
		t.Fatalf("expected at least the 2 pre-cancel entries, got %d", len(rep.Entries))
	}
	if len(rep.Entries) >= len(cfg.cells()) {
		t.Fatal("cancellation did not stop the grid")
	}
}
