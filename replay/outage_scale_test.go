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

// TestMetroOutageReplayBlockMatchesDenseTimeline pins the structured
// latency-update fast path against its oracle at replay granularity: the
// same m=2000 metro-outage trace — a metro's servers leaving, the
// backbone degrading ×1.25, the bit-exact restore, the metro rejoining —
// replayed on the block representation (where the shift and restore are
// absorbed natively on the k×k table) and on the dense m×m twin (where
// the engine batches them entry by entry) must produce byte-identical
// metrics timelines. The pre-shift matrix is block-structured, so the
// structured snapshot records exactly the values the dense snapshot
// would have, and the two restore paths cannot drift even in IEEE
// round-off.
func TestMetroOutageReplayBlockMatchesDenseTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("m=2000 outage twin: skipped in -short mode")
	}
	base := delaylb.NewScenario(2000).WithClusters(12).WithLoads(delaylb.LoadZipf, 100).WithSeed(1)
	cfg := Config{
		Options: []delaylb.Option{
			delaylb.WithSolver("proxy"),
			delaylb.WithMaxIterations(40),
		},
		SkipCold: true,
		Verify:   true,
	}
	run := func(sc delaylb.Scenario) []byte {
		tr, err := MetroOutage(sc, 1, 2, 9)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		tl, err := Run(context.Background(), tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s outage replay: %d epochs in %s", sc, len(tl.Epochs), time.Since(start).Round(time.Millisecond))
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
		t.Fatalf("block and dense outage timelines differ:\n--- block ---\n%s\n--- dense ---\n%s", blockJSON, denseJSON)
	}
}

// TestMetroOutageReplayM5000NoDense is the acceptance bar of this tier,
// verbatim: an m=5000 NetClustered metro-outage replay — the workload
// whose LatencyShift event used to force the dense m×m matrix into
// existence — runs with the proxy solver on one CPU
// with the dense matrix never materialized and resident memory far
// below the ~190 MiB a single m=5000 float64 matrix costs. The shift
// and its restore ride the structured-update path (O(m + k²) per event,
// k×k snapshot); TestMetroOutageReplayBlockMatchesDenseTimeline proves
// the same trace byte-identical against the dense oracle at the m where
// the oracle is affordable.
func TestMetroOutageReplayM5000NoDense(t *testing.T) {
	if testing.Short() {
		t.Skip("m=5000 outage replay: skipped in -short mode")
	}
	sc := delaylb.NewScenario(5000).WithClusters(16).WithLoads(delaylb.LoadZipf, 100).WithSeed(1)
	tr, err := MetroOutage(sc, 1, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Options: []delaylb.Option{
			delaylb.WithSolver("proxy"),
			delaylb.WithMaxIterations(40),
		},
		SkipCold: true,
		Verify:   true,
	}
	densifiedBefore := model.BlockDenseMaterializations.Load()
	var after runtime.MemStats
	start := time.Now()
	tl, err := Run(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)
	residentMB := float64(after.HeapAlloc) / (1 << 20)
	t.Logf("m=5000 outage replay: %d epochs in %s, %.1f MB resident after GC (timings machine-dependent, logged only)",
		len(tl.Epochs), elapsed.Round(time.Millisecond), residentMB)
	for _, row := range tl.Epochs {
		t.Logf("epoch %d: m=%d cost=%.6g warm_iters=%d nnz=%d moved=%.4g",
			row.Epoch, row.Servers, row.Cost, row.WarmIters, row.NNZ, row.Moved)
	}
	if len(tl.Epochs) != 4 { // initial + down + recovery + settle
		t.Fatalf("timeline has %d rows, want 4", len(tl.Epochs))
	}
	// The outage shape made it through: the metro left and came back.
	if dip := tl.Epochs[1].Servers; dip >= 5000 {
		t.Errorf("outage epoch has m=%d, expected the metro to be gone", dip)
	}
	if got := tl.Epochs[2].Servers; got != 5000 {
		t.Errorf("recovery epoch has m=%d, want 5000", got)
	}
	// The acceptance criterion: the dense m×m latency matrix is never
	// materialized — neither by the shift, nor the restore, nor any
	// churn or solve in between. Every BlockLatency.Dense() is counted.
	if got := model.BlockDenseMaterializations.Load() - densifiedBefore; got != 0 {
		t.Errorf("the dense latency matrix was materialized %d times during the outage replay", got)
	}
	if residentMB > 150 {
		t.Errorf("%.1f MB resident after the replay — an O(m²) structure is being retained", residentMB)
	}
	for _, row := range tl.Epochs {
		if row.NNZ == 0 || row.NNZ >= 5000*5000/10 {
			t.Errorf("epoch %d: nnz=%d, expected sparse (0 < nnz ≪ m²)", row.Epoch, row.NNZ)
		}
	}
}
