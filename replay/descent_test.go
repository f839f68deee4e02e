package replay

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"delaylb"
	"delaylb/descent"
	"delaylb/internal/model"
)

// TestDescentReplaySmall drives a clustered flash-crowd trace — surge,
// elastic joins into the hot metro, leaves after the decay — through
// the descent plane and checks every epoch re-enters the 2% band of
// the per-epoch centralized oracle.
func TestDescentReplaySmall(t *testing.T) {
	const epochs = 6
	sc := delaylb.NewScenario(80).WithClusters(6).WithLoads(delaylb.LoadZipf, 100).WithSeed(2)
	tr, err := FlashCrowd(sc, epochs, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DescentConfig{
		Plane:       descent.Config{Seed: 2},
		RoundBudget: 300,
		Verify:      true,
	}
	tl, err := RunDescent(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Epochs) != epochs+1 {
		t.Fatalf("timeline has %d rows, want %d", len(tl.Epochs), epochs+1)
	}
	for _, row := range tl.Epochs {
		if row.RoundsToBand < 0 {
			t.Errorf("epoch %d never entered the 2%% band: cost=%g oracle=%g after %d rounds",
				row.Epoch, row.Cost, row.OracleCost, row.Rounds)
		}
		if row.RelGap > 0.02 {
			t.Errorf("epoch %d final gap %g > 2%%", row.Epoch, row.RelGap)
		}
	}
	// The trace's churn made it through the id mapping: m grows by 3 at
	// the surge and returns at the decay.
	up := epochs/3 + 1
	if got := tl.Epochs[up].Servers; got != 83 {
		t.Errorf("surge epoch has m=%d, want 83", got)
	}
	if got := tl.Epochs[len(tl.Epochs)-1].Servers; got != 80 {
		t.Errorf("final epoch has m=%d, want 80", got)
	}

	// Determinism: the identical trace and config yield identical bytes.
	tl2, err := RunDescent(context.Background(), tr, cfg)
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
		t.Error("descent replay is not byte-deterministic across runs")
	}
}

// TestDescentReplayRollingRestart exercises repeated leave/rejoin churn
// through the driver's id mapping.
func TestDescentReplayRollingRestart(t *testing.T) {
	sc := delaylb.NewScenario(30).WithClusters(3).WithLoads(delaylb.LoadExponential, 80).WithSeed(4)
	tr, err := RollingRestart(sc, 6, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DescentConfig{
		Plane:       descent.Config{Seed: 4},
		RoundBudget: 200,
		SkipOracle:  true, // churn mechanics are under test, not the gap
		Verify:      true,
	}
	tl, err := RunDescent(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := tl.Epochs[len(tl.Epochs)-1]
	if last.Servers != 30 {
		t.Errorf("final epoch has m=%d, want all 30 restarted servers back", last.Servers)
	}
	// Mid-trace the fleet must actually have shrunk.
	dipped := false
	for _, row := range tl.Epochs {
		if row.Servers < 30 {
			dipped = true
		}
	}
	if !dipped {
		t.Error("rolling restart never removed a server")
	}
}

// TestDescentReplayRejectsLatencyShifts pins the driver's declared
// limitation with a clear error instead of silent desynchronization —
// raised before epoch 0, so no epoch is measured and no round is spent.
func TestDescentReplayRejectsLatencyShifts(t *testing.T) {
	sc := delaylb.NewScenario(12).WithClusters(2).WithLoads(delaylb.LoadUniform, 50).WithSeed(6)
	tr, err := MetroOutage(sc, 0, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	progressed := false
	cfg := DescentConfig{SkipOracle: true, Progress: func(int, int) { progressed = true }}
	if _, err := RunDescent(context.Background(), tr, cfg); err == nil {
		t.Fatal("MetroOutage carries LatencyShift events; the descent driver must refuse them")
	} else if !strings.Contains(err.Error(), "descent epoch") {
		t.Errorf("refusal %q does not name the offending epoch", err)
	}
	if progressed {
		t.Error("the driver measured epochs before refusing the trace's latency shifts")
	}
}

// TestScaleTierDescentM50k is the acceptance bar for the distributed
// tier, verbatim from the roadmap: an m=50 000 clustered scenario on
// the replay engine, one machine, converging to within 2% of the
// centralized sparse Frank–Wolfe cost — with per-round message volume
// O(nnz) and the dense m×m latency matrix never materialized (at
// m=50k that matrix alone would be ~19 GiB).
func TestScaleTierDescentM50k(t *testing.T) {
	if testing.Short() {
		t.Skip("m=50k descent replay: skipped in -short mode")
	}
	const (
		m      = 50000
		epochs = 3
	)
	sc := delaylb.NewScenario(m).WithClusters(24).WithLoads(delaylb.LoadZipf, 100).WithSeed(1)
	tr, err := FlashCrowd(sc, epochs, 4, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DescentConfig{
		// Partial participation is what makes simultaneous play converge
		// at this scale: 50k rows stepping at once herd onto each metro's
		// top servers and thrash (see DESIGN.md).
		Plane:       descent.Config{Seed: 1, Participation: 0.2},
		RoundBudget: 200,
		OracleIters: 300,
		StopInBand:  true, // the online mode: rebalance until good enough
		Verify:      true,
	}
	densifiedBefore := model.BlockDenseMaterializations.Load()
	start := time.Now()
	tl, err := RunDescent(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("m=50k descent replay: %d epochs in %s (timings machine-dependent, logged only)",
		len(tl.Epochs), time.Since(start).Round(time.Millisecond))
	for k, row := range tl.Epochs {
		t.Logf("epoch %d: m=%d cost=%.6g oracle=%.6g gap=%+.4f rounds=%d r2band=%d bytes/round=%.4g nnz=%d (%s)",
			row.Epoch, row.Servers, row.Cost, row.OracleCost, row.RelGap,
			row.Rounds, row.RoundsToBand, row.BytesPerRound(), row.NNZ,
			tl.Runtime.At(k).Elapsed.Round(time.Millisecond))
	}
	if len(tl.Epochs) != epochs+1 {
		t.Fatalf("timeline has %d rows, want %d", len(tl.Epochs), epochs+1)
	}
	for _, row := range tl.Epochs {
		// Within 2% of the centralized cost. The distributed plane may
		// finish below a budgeted Frank–Wolfe cost (FW's tail is
		// sublinear), so the band is one-sided by construction.
		if row.RelGap > 0.02 {
			t.Errorf("epoch %d: gap %+.4f above the 2%% band (cost=%g oracle=%g)",
				row.Epoch, row.RelGap, row.Cost, row.OracleCost)
		}
		if row.RoundsToBand < 0 {
			t.Errorf("epoch %d never entered the band in %d rounds", row.Epoch, row.Rounds)
		}
		// O(nnz) message volume: a round's bytes stay proportional to the
		// live support, orders of magnitude under the m² a dense-column
		// exchange would ship (8·m² bytes/column-pair at m=50k is 20 GB).
		if perRound := row.BytesPerRound(); perRound > 64*8*float64(row.NNZ+row.Servers) {
			t.Errorf("epoch %d: %.4g bytes/round vs nnz=%d — message volume is not O(nnz)",
				row.Epoch, perRound, row.NNZ)
		}
	}
	if got := model.BlockDenseMaterializations.Load() - densifiedBefore; got != 0 {
		t.Errorf("the dense latency matrix was materialized %d times during the descent replay", got)
	}
}
