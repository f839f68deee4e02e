package replay

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"delaylb"
	"delaylb/internal/model"
)

// The acceptance bar for the replay tier: an m=2000 NetClustered
// flash-crowd trace — demand surge, elastic ServerJoins into the hot
// metro, ServerLeaves after the decay — replayed end to end on the
// sparse scale-tier path, with
//
//   - allocation feasibility verified after every epoch (Config.Verify),
//   - a deterministic timeline (byte-identical JSON across runs),
//   - warm starts re-entering the 2% band in fewer iterations than the
//     per-epoch cold solves: never worse outside the two surge
//     transition epochs, strictly better in aggregate,
//   - wall-clock logged (single-digit seconds on one CPU; timings are
//     machine-dependent and never asserted).
func TestScaleTierReplayM2000(t *testing.T) {
	if testing.Short() {
		t.Skip("m=2000 replay: skipped in -short mode")
	}
	const epochs = 6
	sc := delaylb.NewScenario(2000).WithClusters(12).WithLoads(delaylb.LoadZipf, 100).WithSeed(1)
	tr, err := FlashCrowd(sc, epochs, 5, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The MinE family is what the §IX claim is about — it re-enters the
	// band in a handful of iterations, where Frank–Wolfe's sublinear
	// tail needs hundreds either way. "proxy" partner selection on the
	// sparse-columns path is the practical m=2000 configuration.
	cfg := Config{
		Options: []delaylb.Option{
			delaylb.WithSolver("proxy"),
			delaylb.WithMaxIterations(60),
		},
		Verify: true,
	}

	start := time.Now()
	tl, err := Run(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	t.Logf("m=2000 flash-crowd replay: %d epochs in %s (timings are machine-dependent, logged only)",
		len(tl.Epochs), elapsed.Round(time.Millisecond))
	for k, row := range tl.Epochs {
		t.Logf("epoch %d: m=%d load=%.4g warm2band=%d cold2band=%d cost=%.6g nnz=%d (%s)",
			row.Epoch, row.Servers, row.TotalLoad, row.WarmItersToBand, row.ColdItersToBand,
			row.Cost, row.NNZ, tl.Runtime.At(k).Elapsed.Round(time.Millisecond))
	}

	// The trace's shape made it through: the hot metro grew by 8 servers
	// at the surge and shrank back after the decay.
	up, down := epochs/3+1, 2*epochs/3+1
	if got := tl.Epochs[up].Servers; got != 2008 {
		t.Errorf("surge epoch has m=%d, want 2008", got)
	}
	if got := tl.Epochs[len(tl.Epochs)-1].Servers; got != 2000 {
		t.Errorf("final epoch has m=%d, want 2000", got)
	}

	// Warm-vs-cold: never worse outside the two surge transitions,
	// strictly better in aggregate.
	warmSum, coldSum := 0, 0
	for _, row := range tl.Epochs[1:] {
		warmSum += row.WarmItersToBand
		coldSum += row.ColdItersToBand
		if row.Epoch == up || row.Epoch == down {
			continue // the optimum jumps discontinuously; warm ≈ cold is fair
		}
		if row.WarmItersToBand > row.ColdItersToBand {
			t.Errorf("epoch %d: warm %d iters to band > cold %d",
				row.Epoch, row.WarmItersToBand, row.ColdItersToBand)
		}
	}
	if warmSum >= coldSum {
		t.Errorf("warm iters-to-band total %d, cold %d — warm must win in aggregate", warmSum, coldSum)
	}

	// The sparse path stayed on throughout: nnz ≪ m² at every epoch.
	for _, row := range tl.Epochs {
		if row.NNZ == 0 {
			t.Errorf("epoch %d: solve left the sparse path (NNZ=0)", row.Epoch)
		}
		if row.NNZ > row.Servers*row.Servers/10 {
			t.Errorf("epoch %d: nnz=%d is not sparse for m=%d", row.Epoch, row.NNZ, row.Servers)
		}
	}

	// Determinism: replaying the identical trace yields the identical
	// timeline bytes (wall-clock is excluded from the JSON form).
	tl2, err := Run(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := tl.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := tl2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("m=2000 replay is not byte-deterministic across runs")
	}
}

// TestReplayBlockMatchesDenseTimelineM2000 is the sparse end-to-end
// acceptance bar: the same m=2000 clustered flash-crowd trace replayed
// on the block latency representation (the default) and on the dense
// m×m oracle (WithDenseLatency) must produce byte-identical metrics
// timelines — same costs, same iteration counts, same churn, same nnz,
// epoch for epoch — while the block run's per-churn-event cost is
// O(m + k²) instead of O(m²) (the drop BENCH_scale.json's
// session-churn cells and the allocation-bound tests pin).
func TestReplayBlockMatchesDenseTimelineM2000(t *testing.T) {
	if testing.Short() {
		t.Skip("m=2000 replay twin: skipped in -short mode")
	}
	const epochs = 4
	base := delaylb.NewScenario(2000).WithClusters(12).WithLoads(delaylb.LoadZipf, 100).WithSeed(1)
	cfg := Config{
		Options: []delaylb.Option{
			delaylb.WithSolver("proxy"),
			delaylb.WithMaxIterations(40),
		},
		SkipCold: true, // halves the work; the warm path is what differs
		Verify:   true,
	}
	run := func(sc delaylb.Scenario) []byte {
		tr, err := FlashCrowd(sc, epochs, 5, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		tl, err := Run(context.Background(), tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s replay: %d epochs in %s", sc, len(tl.Epochs), time.Since(start).Round(time.Millisecond))
		// Compare the epoch rows only: the scenario header legitimately
		// differs in its DenseLatency flag.
		var buf bytes.Buffer
		tlCopy := *tl
		tlCopy.Scenario = base
		if err := tlCopy.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	blockJSON := run(base)
	denseJSON := run(base.WithDenseLatency())
	if !bytes.Equal(blockJSON, denseJSON) {
		t.Fatalf("block and dense timelines differ:\n--- block ---\n%s\n--- dense ---\n%s", blockJSON, denseJSON)
	}
}

// TestScaleTierReplayM5000NoDense pins the headline claim of the sparse
// end-to-end tier: an m=5000 clustered flash-crowd replay completes on
// one CPU without the dense m×m latency matrix ever being materialized.
// The session must still be block-backed at the end (no densify fell
// back), and the replay's total allocation stays far under the ~190 MiB
// a single m=5000 float64 matrix costs — so any dense materialization
// anywhere on the path fails the bound outright.
func TestScaleTierReplayM5000NoDense(t *testing.T) {
	if testing.Short() {
		t.Skip("m=5000 replay: skipped in -short mode")
	}
	const epochs = 3
	sc := delaylb.NewScenario(5000).WithClusters(16).WithLoads(delaylb.LoadZipf, 100).WithSeed(1)
	tr, err := FlashCrowd(sc, epochs, 5, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Options: []delaylb.Option{
			delaylb.WithSolver("frankwolfe"),
			delaylb.WithMaxIterations(120),
		},
		SkipCold: true,
		Verify:   true,
	}
	densifiedBefore := model.BlockDenseMaterializations.Load()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	tl, err := Run(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)
	residentMB := float64(after.HeapAlloc) / (1 << 20)
	t.Logf("m=5000 replay: %d epochs in %s, %.1f MB resident after GC (timings machine-dependent, logged only)",
		len(tl.Epochs), elapsed.Round(time.Millisecond), residentMB)
	for _, row := range tl.Epochs {
		t.Logf("epoch %d: m=%d cost=%.6g warm_iters=%d nnz=%d moved=%.4g",
			row.Epoch, row.Servers, row.Cost, row.WarmIters, row.NNZ, row.Moved)
	}
	if len(tl.Epochs) != epochs+1 {
		t.Fatalf("timeline has %d rows, want %d", len(tl.Epochs), epochs+1)
	}
	// The acceptance criterion, verbatim: the dense m×m latency matrix
	// is never materialized. Every BlockLatency.Dense() call is counted.
	if got := model.BlockDenseMaterializations.Load() - densifiedBefore; got != 0 {
		t.Errorf("the dense latency matrix was materialized %d times during the replay", got)
	}
	// A single dense m×m float64 matrix at m=5000 is ~190 MiB; the whole
	// replay's resident state (sparse allocation + block table + metrics)
	// must stay far below it. Classic Frank–Wolfe warm starts accumulate
	// nnz across epochs (the failure mode TestScaleTierAwayFWWarmSupport
	// pins, fixed by WithFWVariant(FWAway)), so nnz grows with
	// iters·epochs — sparse relative to m² = 25M, and bounded here.
	if residentMB > 150 {
		t.Errorf("%.1f MB resident after the replay — an O(m²) structure is being retained", residentMB)
	}
	for _, row := range tl.Epochs {
		if row.NNZ == 0 || row.NNZ >= 5000*5000/10 {
			t.Errorf("epoch %d: nnz=%d, expected sparse (0 < nnz ≪ m²)", row.Epoch, row.NNZ)
		}
	}
}

// TestScaleTierAwayFWWarmSupport is the warm-epoch support regression at
// full scale: on an m=5000 clustered flash-crowd replay, classic FW warm
// starts accumulate iterate support every epoch (each iteration spreads a
// little mass onto a new vertex and nothing ever removes it — hundreds of
// thousands of nnz per epoch), while the away-step variant's drop steps
// shed stale vertices and keep every epoch's nnz bounded. Both runs share
// the trace, the budget and the sparse path; only the step rule differs.
func TestScaleTierAwayFWWarmSupport(t *testing.T) {
	if testing.Short() {
		t.Skip("m=5000 replay pair: skipped in -short mode")
	}
	const epochs = 3
	sc := delaylb.NewScenario(5000).WithClusters(16).WithLoads(delaylb.LoadZipf, 100).WithSeed(1)
	tr, err := FlashCrowd(sc, epochs, 5, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(variant delaylb.FWVariant) *Timeline {
		tl, err := Run(context.Background(), tr, Config{
			Options: []delaylb.Option{
				delaylb.WithSolver("frankwolfe"),
				delaylb.WithFWVariant(variant),
				delaylb.WithMaxIterations(120),
			},
			SkipCold: true,
			Verify:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tl.Epochs {
			t.Logf("%s epoch %d: cost=%.6g warm_iters=%d nnz=%d", variant, row.Epoch, row.Cost, row.WarmIters, row.NNZ)
		}
		return tl
	}
	classic := run(delaylb.FWClassic)
	away := run(delaylb.FWAway)

	// The documented failure mode must still reproduce: classic's warm
	// support grows at every epoch.
	for e := 1; e <= epochs; e++ {
		if classic.Epochs[e].NNZ <= classic.Epochs[e-1].NNZ {
			t.Errorf("classic epoch %d nnz %d did not grow from %d — the failure mode this test documents is gone",
				e, classic.Epochs[e].NNZ, classic.Epochs[e-1].NNZ)
		}
	}
	// And the fix must hold: away's per-epoch nnz stays within a small
	// multiple of its cold-start support and decisively under classic's.
	bound := 3 * away.Epochs[0].NNZ
	for _, row := range away.Epochs {
		if row.NNZ > bound {
			t.Errorf("away epoch %d nnz %d exceeds bound %d — warm iterates are no longer lean", row.Epoch, row.NNZ, bound)
		}
	}
	if a, c := away.Epochs[epochs].NNZ, classic.Epochs[epochs].NNZ; 4*a >= c {
		t.Errorf("away final nnz %d not decisively leaner than classic's %d", a, c)
	}
	// Leaner must not mean worse: at the shared budget, away ends every
	// epoch at a cost no worse than classic's.
	for e := range away.Epochs {
		if away.Epochs[e].Cost > classic.Epochs[e].Cost*(1+1e-9) {
			t.Errorf("epoch %d: away cost %v worse than classic %v", e, away.Epochs[e].Cost, classic.Epochs[e].Cost)
		}
	}
}
